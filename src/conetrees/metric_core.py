"""Finite metric spaces, validated on construction.

A space is an exactly symmetric nonnegative matrix with zero diagonal
satisfying the triangle inequality up to a relative tolerance, so row x of
the matrix is every point's distance to x.  The triangle inequality costs
an O(n^3) min-plus loop unless an exact O(n^2) route gives the loop's
verdict: a circulant matrix (`circle`) has the loop's minimum read off one
row, and otherwise a certificate proves that the loop would pass.  The
space keeps the circulance verdict as its distance classes, one per offset
(`FiniteMetricSpace.classes`), which the cone grid evaluates once each.  With
u = 2**-53, rounding breaks a triangle of a chord metric (`random_circle`,
`visual_circle`) by under 2**-46 * radius, so that certificate needs
rel_tol >= 2**-40 * radius; of a line metric (`interval`, `cantor`) by
under 3u * d[i, k], so that one needs rel_tol >= 4u; and of an ultrametric
(`tree_boundary`) never.

The chord and line formulas are written once, in `chord_metric` and
`line_metric`, for the generators and for the certificates that recompute
them from meta.  `spanning_tree` is the only single-linkage code: the
ultrametric certificate and the component level builder read its tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class MetricError(ValueError):
    """Raised when a distance matrix fails a metric axiom."""


def _min_path_loop(d: np.ndarray) -> np.ndarray:
    """best[i, k] = min_j (d[i, j] + d[j, k]), one pass per j, so memory
    stays at O(n^2)."""
    n = d.shape[0]
    best = np.full((n, n), np.inf)
    for j in range(n):
        np.minimum(best, d[:, j, None] + d[None, j, :], out=best)
    return best


def circulant(v: np.ndarray) -> np.ndarray:
    """The read-only (n, n) view, over 2n values, whose row i is the (n,)
    array v rolled right by i: entry [i, k] is v[(k - i) mod n]."""
    n = len(v)
    return sliding_window_view(np.concatenate([v, v]), n)[n:0:-1]


def _is_circulant(d: np.ndarray) -> bool:
    return bool(len(d)) and np.array_equal(d, circulant(d[0]))


def _circulant_min_path(d: np.ndarray) -> np.ndarray:
    """`_min_path_loop`'s result for a circulant d (see `_validate_matrix`)."""
    return circulant((d[0][:, None] + d).min(axis=0))


def chord_metric(angles: np.ndarray, radius: float) -> np.ndarray:
    """2R sin(min(|a_i - a_k|, 2 pi - |a_i - a_k|) / 2) for every two of the
    (n,) angles a on a circle of radius R."""
    diff = np.abs(angles[:, None] - angles[None, :])
    diff = np.minimum(diff, 2.0 * math.pi - diff)
    return (2.0 * radius) * np.sin(diff / 2.0)


def line_metric(x: np.ndarray) -> np.ndarray:
    """|x_i - x_k| for every two of the (n,) coordinates x."""
    return np.abs(x[:, None] - x[None, :])


def spanning_tree(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prim's minimum spanning tree of d from point 0: the order points join
    it, each one's parent (point 0 its own) and d[parent, point].  Ties go
    to the lowest index, and a point keeps its earliest nearest parent."""
    n = len(d)
    order, parent = np.zeros((2, n), dtype=np.intp)
    in_tree = np.arange(n) == 0
    key = np.where(in_tree, np.inf, d[0]) if n else np.zeros(0)
    for i in range(1, n):
        v = order[i] = int(np.argmin(key))
        in_tree[v], key[v] = True, np.inf
        closer = (d[v] < key) & ~in_tree
        key[closer] = d[v, closer]
        parent[closer] = v
    return order, parent, d[parent, np.arange(n)]


def _meta_floats(meta: dict, key: str, n: int) -> np.ndarray | None:
    """meta[key] as an (n,) array of finite float64 values, or None."""
    try:
        v = np.asarray(meta.get(key))
    except ValueError:  # ragged nesting
        return None
    if v.dtype != np.float64 or v.shape != (n,) or not np.isfinite(v).all():
        return None
    return v


def _chord_certificate(d: np.ndarray, meta: dict, rel_tol: float) -> bool:
    """d is the chord metric of points at meta["angles"] on a circle of
    meta["radius"], bit for bit as `chord_metric` computes it for
    `random_circle` and `visual_circle`.

    Bound.  With u = 2**-53, R a normal float, angles in [0, fl(2*pi)]
    and np.sin within 4 ulp, each entry is within E = 40*u*R of the exact
    chord 2R|sin((a_i - a_k)/2)| of the float angles: the angle
    difference, fl(2*pi) and the subtraction from it cost under 17u, the
    rest is sin and the product.  Exact chords are Euclidean distances, so
    d[i, k] - fl(d[i, j] + d[j, k]) <= 3E + u*(d[i, j] + d[j, k])
    <= 124*u*R < 2**-46 * R, while the loop's slack is at least rel_tol.
    Premise: rel_tol >= 2**-40 * R, 64 times the bound, so sin may be
    off by a few hundred ulp."""
    if meta.get("metric") != "chord":
        return False
    radius = meta.get("radius")
    # a normal radius keeps a subnormal entry's rounding, up to 2**-1075,
    # within u * R
    tiny = np.finfo(float).tiny
    if type(radius) is not float or not tiny <= radius < np.inf:
        return False
    if not rel_tol >= 2.0 ** -40 * radius:
        return False
    a = _meta_floats(meta, "angles", len(d))
    if a is None or not np.all((a >= 0) & (a <= 2.0 * math.pi)):
        return False
    return np.array_equal(d, chord_metric(a, radius))


def _line_certificate(d: np.ndarray, meta: dict, rel_tol: float) -> bool:
    """d is |x_i - x_k| for x = meta["coords"], bit for bit as
    `line_metric` computes it for `interval` and `cantor`.

    Bound.  Take x_i <= x_k.  For j outside [x_i, x_k], rounding is
    monotone, so one of d[i, j], d[j, k] is already >= d[i, k] and the
    inequality holds exactly.  For j inside, a = x_j - x_i and
    b = x_k - x_j sum to c = x_k - x_i, and with u = 2**-53,
    d[i, k] - fl(fl(a) + fl(b)) <= c*(1 + u) - c*(1 - u)**2 < 3*u*c
    <= 3*u*d[i, k] / (1 - u).  That is relative to d[i, k], as the loop's
    slack fl(rel_tol * max(d[i, k], 1)) >= rel_tol * d[i, k] * (1 - u)
    is.  Premise: rel_tol >= 4u > 3u / (1 - u)**2, whatever the
    coordinates' size."""
    if not rel_tol >= 2.0 ** -51:
        return False
    x = _meta_floats(meta, "coords", len(d))
    if x is None:
        return False
    # differences past the float range come out inf and match no entry
    with np.errstate(over="ignore"):
        return np.array_equal(d, line_metric(x))


def _ultrametric_certificate(d: np.ndarray, meta: dict,
                             rel_tol: float) -> bool:
    """d equals its subdominant ultrametric: the largest edge on the path
    between two points in a minimum spanning tree, `spanning_tree`'s.

    Prim's algorithm adds each point v through an edge of length w to a
    tree point p, and the path from v to any tree point t runs through p,
    so the subdominant value at (v, t) is max(d[p, t], w) once the rows
    added before have passed.  O(n^2) comparisons, no arithmetic, so it
    is exact.  Bound: none.  An ultrametric has d[i, k] <= max(d[i, j],
    d[j, k]) <= fl(d[i, j] + d[j, k]) for nonnegative entries, so it
    passes the loop at every rel_tol >= 0."""
    order, parent, length = spanning_tree(d)
    return all(np.array_equal(d[v, order[:i]],
                              np.maximum(d[parent[v], order[:i]], length[v]))
               for i, v in enumerate(order))


# Each reads only (d, meta, rel_tol) and vouches for the triangle inequality
# or declines; a decline leaves the verdict to the loop.
_CERTIFICATES = (_chord_certificate, _line_certificate,
                 _ultrametric_certificate)


def _validate_matrix(d: np.ndarray, rel_tol: float, meta: dict) -> bool:
    """Check the metric axioms on d, raising MetricError at the first failure,
    and return whether d is circulant.

    d must equal its transpose exactly; rel_tol is the triangle inequality's
    slack only.  The triangle inequality is d[i, k] <= min_j (d[i, j] + d[j, k]) with
    relative slack rel_tol * max(d[i, k], 1); a failure names the first
    (i, k) in row-major order and its min path.

    The minimum costs O(n^3) in general, but O(n^2) when d is circulant,
    d[i, k] == g[(k - i) mod n] with g = d[0], as `circle` is exactly.  Then
    j = i + t gives min_j (d[i, j] + d[j, k]) = min_t (g[t] + g[(k - i - t)
    mod n]) = B[(k - i) mod n], where B = min_j (d[0, j] + d[j, :]) is row 0
    of the general minimum.  Every candidate is the same float sum of the
    same two entries, and a minimum rounds nothing, so the minimum, the
    verdict and the message are those of the O(n^3) loop, bit for bit.

    A matrix that is not circulant is offered to three exact O(n^2)
    certificates, in order; each proves that the loop would pass d, or
    declines (see each one's docstring for its rounding bound and premise):
      - chord: `random_circle`, `visual_circle`, from meta's angles and
        radius.  Rounding breaks a triangle by under 2**-46 * radius, and
        the slack is at least rel_tol, so it needs
        rel_tol >= 2**-40 * radius;
      - line: `interval`, `cantor`, from meta's coords.  Rounding breaks a
        triangle by under 3 * 2**-53 * d[i, k], so it needs
        rel_tol >= 2**-51;
      - ultrametric: `tree_boundary`, from d alone.  Rounding breaks no
        triangle, so it needs nothing of rel_tol.
    A matrix that none vouches for, such as one edited after generation
    or whose meta disagrees with it, gets the loop's verdict and message."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MetricError(f"distance matrix must be square, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise MetricError("distance matrix has non-finite entries")
    if np.any(d < 0):
        raise MetricError("distance matrix has negative entries")
    diag = np.abs(np.diagonal(d))
    if np.any(diag > 0):
        raise MetricError("distance matrix has nonzero diagonal")
    if not np.array_equal(d, d.T):
        raise MetricError("distance matrix is not symmetric")
    zero = d == 0
    np.fill_diagonal(zero, False)
    if np.any(zero):
        i, k = np.argwhere(zero)[0]
        raise MetricError(f"zero distance between distinct points {i} and {k}")
    del zero
    circulant_d = _is_circulant(d)  # decided once, for both routes
    if not circulant_d and isinstance(meta, dict) and any(
            vouch(d, meta, rel_tol) for vouch in _CERTIFICATES):
        return False
    best = _circulant_min_path(d) if circulant_d else _min_path_loop(d)
    slack = rel_tol * np.maximum(d, 1.0)
    bad = d > best + slack
    if np.any(bad):
        i, k = np.argwhere(bad)[0]
        raise MetricError(
            f"triangle inequality fails at ({i},{k}): "
            f"d={d[i, k]:.6g} > min path {best[i, k]:.6g}"
        )
    return circulant_d


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space given by an explicit distance matrix.

    Attributes:
        dist: (n, n) float array, exactly symmetric, validated on
            construction.
        point_ids: stable string labels, one per point.
        meta: free-form description of where the points came from.
        classes: the distance classes of the ordered pairs, set by
            validation.  On a circulant matrix the class of (z, z') is
            (z' - z) mod n, whose distance is dist[0, class], and this is
            the read-only view circulant(arange(n)), held in 2n entries.
            On any other matrix every ordered pair is its own class, and
            this is None.
    """

    dist: np.ndarray
    point_ids: tuple[str, ...]
    meta: dict = field(default_factory=dict)
    rel_tol: float = 1e-9
    classes: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        # inf or NaN slack would pass every triangle
        if not (np.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise MetricError(
                f"rel_tol must be finite and nonnegative, got {self.rel_tol}")
        is_circulant = _validate_matrix(d, self.rel_tol, self.meta)
        object.__setattr__(self, "classes", circulant(np.arange(len(d)))
                           if is_circulant else None)
        if len(self.point_ids) != d.shape[0]:
            raise MetricError(
                f"{len(self.point_ids)} point ids for {d.shape[0]} points"
            )

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @cached_property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    @cached_property
    def spanning_tree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`spanning_tree` of the matrix: Prim order, parents, edge lengths."""
        return spanning_tree(self.dist)

    @cached_property
    def min_gap(self) -> float:
        """Smallest nonzero pairwise distance, or 0.0 for a single point."""
        if self.n < 2:
            return 0.0
        # off the diagonal; the matrix is exactly symmetric
        return float(self.dist.min(where=~np.eye(self.n, dtype=bool),
                                   initial=np.inf))

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n}, diameter={self.diameter:.6g})"

