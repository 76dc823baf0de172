"""Hyperbolic cone over a bounded finite metric space, and its radial grid.

Points of the cone are pairs (z, t) with z in the space and radius t >= 0;
all pairs at t = 0 are one point, the apex.  Angles are normalized by
mu = pi / diameter, so the two farthest points of the space sit at angle pi.
The distance uses the stable half-angle form

    d = 2 * asinh(sqrt(sinh((t - t')/2)^2 + sinh(t) sinh(t') sin(a/2)^2))

with a = mu * d_Z(z, z'), which stays accurate when a is tiny and the radii
are large, where the textbook arccosh form loses every significant digit.

On the radial grid the radii are the levels' j*R, so the distance of (j, z)
and (j', z') depends only on (j, j') and the distance class of (z, z'),
which the space keeps from its validation (`FiniteMetricSpace.classes`):
the offset (z' - z) mod n on a circulant base such as `circle`, the pair
itself on any other.  The one kernel, `ConeGrid.level_pair`, gives a row
range of level j against level j' as (values, classes), the distances
being values[classes]: on a circulant base the n values of the offsets
and a view of the space's class map, so n distances are computed for the
block, on any other base one value per pair.  It takes sin(a/2)**2 once
per class and two numbers per level pair, bit for bit as the tests'
oracle over arbitrary cone points, `cone_metric` in tests/oracles.py.
The QI fit streams the pairs i < k one pair of levels at a time (see
`harness._LevelPairs`); `ConeGrid.dist_matrix` writes every pair of
levels into the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metric_core import FiniteMetricSpace

RADIUS_CAP = 40.0


class ConeError(ValueError):
    """Raised for invalid grid parameters or level rows."""


@dataclass(frozen=True, eq=False)
class ConeGrid:
    """The apex plus a copy of the space at every radius j*R, j = 1..depth,
    with R = ln(1/r).  Any cone point within the radial range is within R/2
    of the grid by sliding along its own ray."""

    space: FiniteMetricSpace
    r: float
    depth: int

    def __post_init__(self):
        if not 0 < self.r < 1:
            raise ConeError(f"ratio must be in (0, 1), got {self.r}")
        if self.depth < 1:
            raise ConeError(f"depth must be >= 1, got {self.depth}")
        if self.space.diameter <= 0:
            raise ConeError("grid needs a space of positive diameter")
        if self.depth * self.R > RADIUS_CAP:
            raise ConeError(
                f"outer radius {self.depth * self.R:.4g} exceeds cap {RADIUS_CAP}"
            )

    @property
    def R(self) -> float:
        return math.log(1.0 / self.r)

    @property
    def mu(self) -> float:
        return math.pi / self.space.diameter

    @property
    def n_points(self) -> int:
        return 1 + self.depth * self.space.n

    @cached_property
    def point_level(self) -> np.ndarray:
        return np.concatenate(([0], np.repeat(np.arange(1, self.depth + 1),
                                              self.space.n)))

    @cached_property
    def point_z(self) -> np.ndarray:
        return np.concatenate(([0], np.tile(np.arange(self.space.n), self.depth)))

    def index(self, j: int, z: int = 0) -> int:
        if j == 0:
            return 0
        if not 1 <= j <= self.depth:
            raise ConeError(f"level {j} outside 0..{self.depth}")
        if not 0 <= z < self.space.n:
            raise ConeError(f"point index {z} out of range")
        return 1 + (j - 1) * self.space.n + z

    @cached_property
    def _level_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A = sinh((t_j - t_j')/2)**2 and B = sinh(t_j)*sinh(t_j') per level
        pair, the apex being level 0 (t = 0), and S = sin(a/2)**2 per
        distance class of the base: the (n,) row 0 of a circulant base, any
        other base's n x n pairs; see `level_pair`."""
        t = np.arange(self.depth + 1) * self.R
        sh = np.sinh(t)
        a = np.sinh(0.5 * (t[:, None] - t[None, :])) ** 2
        b = np.outer(sh, sh)
        d = self.space.dist
        s = 0.5 * self.mu * (d if self.space.classes is None else d[0])
        np.sin(s, out=s)
        np.square(s, out=s)
        return a, b, s

    def level_pair(self, j: int, k: int, lo: int = 0, hi: int | None = None,
                   keep=...) -> tuple[np.ndarray, np.ndarray]:
        """The cone distances of rows [lo, hi) of level j to the columns of
        level k, as (values, classes): the distances are values[classes].
        keep selects among that (hi - lo, columns) block, a boolean mask or
        ... for every entry.  The apex (level 0) is a level of one row and
        one column, base point 0, any other level has n; by default every
        row.

        The entry of (j, z) and (k, z') is 2*asinh(sqrt(A + B*S)), with A
        and B at (j, k) and S at the distance class of (z, z').  On a
        circulant base the classes are the space's offsets (z' - z) mod n:
        values holds the n offsets' distances and classes is the kept part
        of the space's class map, a view unless keep is a mask.  On any
        other base each pair is its own class: values holds the kept pairs'
        distances and classes is ..., so values[classes] is values.  The
        factors and ufuncs are the tests' `cone_metric`'s, in its order, so
        the distances are its, bit for bit."""
        if not (0 <= j <= self.depth and 0 <= k <= self.depth):
            raise ConeError(f"level pair ({j}, {k}) outside 0..{self.depth}")
        size = self.space.n if j else 1
        hi = size if hi is None else hi
        if not 0 <= lo <= hi <= size:
            raise ConeError(f"rows [{lo}, {hi}) outside level {j}")
        a, b, s = self._level_factors
        rows, cols = slice(lo, hi), slice(0, self.space.n if k else 1)
        classes = self.space.classes
        if classes is None:  # the kept pairs' own S entries
            s, classes = s[rows, cols][keep], ...
        else:
            classes = classes[rows, cols][keep]
        values = b[j, k] * s
        np.add(a[j, k], values, out=values)
        np.sqrt(values, out=values)
        np.arcsinh(values, out=values)
        values *= 2.0
        return values, classes

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        """The whole grid's cone distances, one `level_pair` per pair of
        levels, so bit for bit the tests' `cone_metric` oracle over the
        grid points.  The pipeline streams the pairs instead."""
        out = np.empty((self.n_points, self.n_points))
        spans = [slice(self.index(j), self.index(j) + (self.space.n if j else 1))
                 for j in range(self.depth + 1)]
        for j, rows in enumerate(spans):
            for k, cols in enumerate(spans):
                values, classes = self.level_pair(j, k)
                out[rows, cols] = values[classes]
        return out

    def __repr__(self):
        return (
            f"ConeGrid(n={self.space.n}, depth={self.depth}, "
            f"R={self.R:.4g}, points={self.n_points})"
        )


def build_grid(space: FiniteMetricSpace, r: float, depth: int) -> ConeGrid:
    """Validated grid constructor; see ConeGrid."""
    return ConeGrid(space, r, depth)
