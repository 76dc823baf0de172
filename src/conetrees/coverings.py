"""Families of subsets, colored coverings, and their scale parameters.

A Family is its CSR arrays: member i is ``indices[indptr[i]:indptr[i + 1]]``,
sorted and free of repeats.  Builders pass the arrays they hold, and
erosion and merge read theirs off a bool table (`_rows_family`).  Two
kernels answer every per-member distance question: `dist_rows()`, each
point's distance to each member, and `depths`, each point's distance to
each member's complement.  The Lebesgue number, separation, erosion and
the absorb-and-grow merge that pushes separated coverings down a scale
ladder are array operations on those two (k, n) matrices.  A
ColoredCovering's constants come from its color families, each distinct
one's tables derived once; `pooled`, all its members as one Family, is read
only by the benchmark and by the tests, as an oracle for them.

`dist_rows`, like every per-member minimum here, is `member_min`: the
minimum over each member's rows of an (n, m) array, which on a family of
singletons is a plain gather of the members' rows.  A space's matrix is
exactly symmetric, so row x of it is every point's distance to x, and
`dist_rows` reads the members' rows of the matrix itself.  `depths` reads
the same rows, one per (member, inside point) pair, and takes each row's
minimum over the columns outside its member.  Erosion and merge take and
give Families: `eroded` erodes every member, and `merged` merges all of a
family's members, the cores, at once against a fine family's open
neighborhoods, its `hoods`, which the caller derives once; the cores'
distances are their own `dist_rows()`.  Each per-member reduction is an
exact min, max or AND, so no value depends on the order of a member's
points.  Neither table is cached on the Family: both are derived per call,
since at n = 2048 each is 32 MB, and a caller that needs one twice derives
it once and passes it on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .metric_core import FiniteMetricSpace


class CoveringError(ValueError):
    """Raised when a family violates a covering requirement."""


@dataclass(frozen=True, eq=False, init=False)
class Family:
    """An ordered family of nonempty subsets of one space.  ``Family(space,
    members)`` takes point-index collections (lists, ranges, int arrays) and
    checks them once; iteration, indexing and `members` give each member's
    sorted points as a read-only array.  Erosion-type operations drop the
    members they empty from their output."""

    space: FiniteMetricSpace
    indptr: np.ndarray
    indices: np.ndarray

    def __init__(self, space: FiniteMetricSpace, members=()):
        parts = [np.asarray(u) for u in members]
        sizes = [p.size for p in parts]
        if not all(sizes):
            raise CoveringError("empty member in family")
        if any(p.ndim != 1 or p.dtype.kind not in "iu" for p in parts):
            raise CoveringError("each member must be a flat collection of integers")
        indices = np.concatenate([np.zeros(0, np.intp), *parts], dtype=np.intp,
                                 casting="unsafe")
        if indices.size and not 0 <= indices.min() <= indices.max() < space.n:
            raise CoveringError(f"member point outside 0..{space.n - 1}")
        key = np.repeat(np.arange(len(parts)), sizes) * space.n + indices
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise CoveringError("a member repeats a point")
        self._set(space, np.cumsum([0, *sizes]), indices[order])

    @classmethod
    def _of(cls, space, indptr, indices) -> "Family":
        """The Family of CSR arrays whose every member is nonempty, sorted,
        repeat-free and in range, as the caller vouches: unchecked."""
        return cls.__new__(cls)._set(space, indptr, indices)

    def _set(self, space, indptr, indices) -> "Family":
        indices.flags.writeable = False  # members are views of it
        self.__dict__.update(space=space, indptr=indptr, indices=indices)
        return self

    def __len__(self):
        return len(self.indptr) - 1

    @property
    def members(self) -> tuple[np.ndarray, ...]:
        ptr = self.indptr.tolist()
        return tuple(self.indices[a:b] for a, b in zip(ptr, ptr[1:]))

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.indices[self.indptr[i]: self.indptr[i + 1]]

    def part(self, lo: int, hi: int) -> "Family":
        """Members lo..hi-1, as a Family."""
        ptr = self.indptr[lo: hi + 1]
        return Family._of(self.space, ptr - ptr[0], self.indices[ptr[0]: ptr[-1]])

    def mask(self) -> np.ndarray:
        """(k, n) bool: row i marks the points of member i."""
        out = np.zeros((len(self), self.space.n), dtype=bool)
        out[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = True
        return out

    def member_min(self, values: np.ndarray) -> np.ndarray:
        """(k, m): row i is the minimum of the rows of the (n, m) array
        ``values`` over the points of member i."""
        if not len(self):
            return np.empty((0, values.shape[1]))
        if self.indptr[-1] == len(self):  # all singletons
            return values[self.indices]
        return np.minimum.reduceat(values[self.indices], self.indptr[:-1], axis=0)

    def dist_rows(self) -> np.ndarray:
        """(k, n): row i = distance from each point to member i."""
        return self.member_min(self.space.dist)

    @property
    def depths(self) -> np.ndarray:
        """(k, n): row i = distance from each point to the complement of
        member i, +inf when the member is the whole space.

        Points outside a member are at 0.  For x inside member i it is the
        minimum of row x of the matrix over the points outside member i:
        the members' rows are gathered once, one per (member, inside point)
        pair, with each row's own-member columns set to +inf.
        """
        k = len(self)
        member = np.repeat(np.arange(k), np.diff(self.indptr))
        rows = self.space.dist[self.indices]
        rows[self.mask()[member]] = np.inf
        out = np.zeros((k, self.space.n))
        out[member, self.indices] = rows.min(axis=1, initial=np.inf)
        return out

    @cached_property
    def mesh(self) -> float:
        if self.indptr[-1] == len(self):  # no member has two points
            return 0.0
        if (np.diff(self.indptr) == self.space.n).any():  # the whole space
            return self.space.diameter
        return max(float(self.space.dist[np.ix_(u, u)].max()) for u in self)

    def hoods(self, r: float) -> np.ndarray:
        """(k, n) bool: row i marks the open signed-radius r neighborhood of
        member i: the points < r from it for r > 0, and for r <= 0 its
        points > -r from its complement, so r = 0 gives the members."""
        return self.dist_rows() < r if r > 0 else self.depths > -r

    def lebesgue(self) -> float:
        """min over points of min(best inscribed depth, mesh)."""
        return float(min(self.depths.max(axis=0).min(), self.mesh)) if len(self) else 0.0

    def _separation(self, rows: np.ndarray) -> float:
        """Min distance between distinct members, +inf if fewer than 2,
        read off the family's `dist_rows()`; the member distances are
        exactly symmetric, as the space's matrix is."""
        sep = self.member_min(rows.T)  # [i, l]: min over x in i of d(x, l)
        np.fill_diagonal(sep, np.inf)
        return float(sep.min(initial=np.inf))

    def eroded(self, s: float) -> "Family":
        """Each member eroded by s > 0, i.e. its points farther than s from
        its complement, in order; members the erosion empties are dropped."""
        return _rows_family(self.space, self.depths > s)

    def merged(self, hoods: np.ndarray, s: float) -> "Family":
        """Each member, a core, absorbs every member of a fine family whose
        open s-neighborhood meets the core's, and the union grows by s: one
        output member per core, in order.

        The rows of the (k, n) bool ``hoods`` are the fine family's open
        s-neighborhoods, its `hoods(s)`.  The merge is two products of 0/1
        tables, whose counts float32 holds exactly.
        """
        if s <= 0:
            raise CoveringError(f"merge radius must be positive, got {s}")
        near = (self.dist_rows() < s).astype(np.float32)
        h = hoods.astype(np.float32)
        # open s-neighborhoods intersect iff some point is < s from both
        absorbed = (near @ h.T > 0).astype(np.float32)
        return _rows_family(self.space, (near > 0) | (absorbed @ h > 0))

    def __repr__(self):
        return f"Family(k={len(self)}, mesh={self.mesh:.6g})"


def _rows_family(space: FiniteMetricSpace, rows: np.ndarray) -> Family:
    """The Family whose members are the nonempty rows of the (k, n) bool
    ``rows``, in order: one `np.nonzero`, which lists each row sorted."""
    sizes = np.count_nonzero(rows, axis=1)
    return Family._of(space, np.cumsum(np.r_[0, sizes[sizes > 0]]), np.nonzero(rows)[1])


def stacked(space: FiniteMetricSpace, families) -> Family:
    """All members of a sequence of families, in order, as one Family."""
    return Family._of(space, np.cumsum(np.r_[0, *(np.diff(f.indptr) for f in families)]),
                      np.concatenate([np.zeros(0, np.intp), *(f.indices for f in families)]))


@dataclass(frozen=True, eq=False)
class ColoredCovering:
    """A level of a ladder: one family per color, jointly covering the space."""

    space: FiniteMetricSpace
    colors: tuple[Family, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise CoveringError("colored covering needs at least one color")
        for f in self.colors:
            if f.space is not self.space:
                raise CoveringError("color family belongs to a different space")
        if not self._counts().all():
            raise CoveringError("colored covering does not cover the space")

    @property
    def n_colors(self) -> int:
        return len(self.colors)

    @cached_property
    def pooled(self) -> Family:
        return stacked(self.space, self.colors)

    def _counts(self) -> np.ndarray:
        """(n,) how many members of all colors hold each point."""
        return np.bincount(np.concatenate([f.indices for f in self.colors]),
                           minlength=self.space.n)

    @property
    def mesh(self) -> float:
        return max(f.mesh for f in self.colors)

    def multiplicity(self) -> int:
        return int(self._counts().max())

    def lebesgue(self) -> float:
        return self._lebesgue(f.depths.max(axis=0, initial=0.0)
                              for f in dict.fromkeys(self.colors))

    def _lebesgue(self, peaks) -> float:
        """The pooled family's `lebesgue`, read off each distinct color
        family's per-point largest depth, ``depths.max(axis=0, initial=0.0)``:
        the max over all members is the max over the colors of theirs."""
        best = reduce(np.maximum, peaks, np.zeros(self.space.n))
        return float(min(best.min(initial=np.inf), self.mesh))

    def __repr__(self):
        sizes = ",".join(str(len(f)) for f in self.colors)
        return f"ColoredCovering(colors=[{sizes}], mesh={self.mesh:.6g})"
