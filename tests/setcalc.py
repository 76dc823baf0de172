"""Set calculus over point-index sets of a finite metric space, the tests'
oracle for `Family`'s kernels: plain functions that take any iterable of
point indices and give frozensets or floats.

A signed radius r grows a set through open balls when r > 0 (the points
at distance < r from it), erodes it when r < 0 (its points at distance
> |r| from its complement), and leaves it as it is when r = 0.  The whole
space has an empty complement, so every erosion fixes it.
"""

import numpy as np


def dist_to(space, idx) -> np.ndarray:
    """(n,) distance from every point of the space to the set; +inf if the
    set is empty."""
    rows = sorted(int(i) for i in idx)
    if not rows:
        return np.full(space.n, np.inf)
    return space.dist[rows].min(axis=0)


def _hood(space, idx, r, within) -> frozenset:
    idx = frozenset(int(i) for i in idx)
    if r == 0:
        return idx
    if r > 0:
        signed = dist_to(space, idx)
    else:
        # d(x, complement) > |r| exactly when -d(x, complement) < r
        signed = -dist_to(space, frozenset(range(space.n)) - idx)
    return frozenset(np.flatnonzero(within(signed, r)).tolist())


def hood(space, idx, r: float) -> frozenset:
    """The open signed-radius r neighborhood of the set."""
    return _hood(space, idx, r, np.less)


def closed_hood(space, idx, r: float) -> frozenset:
    """Like `hood`, with non-strict comparisons."""
    return _hood(space, idx, r, np.less_equal)


def dist_sets(space, a, b) -> float:
    """Least distance between a point of a and a point of b; +inf if either
    set is empty."""
    a, b = sorted(int(i) for i in a), sorted(int(i) for i in b)
    if not a or not b:
        return np.inf
    return float(space.dist[np.ix_(a, b)].min())


def diameter(space, idx) -> float:
    """Largest distance between two points of the set; 0 below two points."""
    idx = sorted(int(i) for i in idx)
    if len(idx) < 2:
        return 0.0
    return float(space.dist[np.ix_(idx, idx)].max())


def r_multiplicity(space, members, r: float) -> int:
    """Largest number of the sets whose open signed-radius r neighborhoods
    hold one point; at r = 0, of the sets themselves."""
    counts = np.zeros(space.n, dtype=int)
    for u in members:
        counts[sorted(hood(space, u, r))] += 1
    return int(counts.max(initial=0))


def is_r_disjoint(space, members, r: float) -> bool:
    """The open r-neighborhoods of distinct sets are pairwise disjoint:
    stronger than separation r, as no point may lie within r of two sets."""
    return r <= 0 or r_multiplicity(space, members, r) <= 1
