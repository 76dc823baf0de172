"""Hyperbolic cone over a bounded finite metric space, and its radial grid.

Points of the cone are pairs (z, t) with z in the space and radius t >= 0;
all pairs at t = 0 are one point, the apex.  Angles are normalized by
mu = pi / diameter, so the two farthest points of the space sit at angle pi.
The distance uses the stable half-angle form

    d = 2 * asinh(sqrt(sinh((t - t')/2)^2 + sinh(t) sinh(t') sin(a/2)^2))

with a = mu * d_Z(z, z'), which stays accurate when a is tiny and the radii
are large, where the textbook arccosh form loses every significant digit.

On the radial grid the radii are the levels' j*R, so the distance of (j, z)
and (j', z') depends only on (j, j', d_Z(z, z')).  The one row kernel,
`ConeGrid.level_rows`, gives a row range of one level, from a first column
on, from sin(a/2)**2, taken once on the base, and two numbers per level
pair, bit for bit as the tests' oracle over arbitrary cone points,
`cone_metric` in tests/oracles.py.  Callers that read every pair i < k
stream bounded row blocks over the columns right of their first row, so
nothing below the diagonal is computed; `ConeGrid.dist_matrix` stacks the
full levels into the whole matrix.
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
        pair, the apex being level 0 (t = 0), and S = sin(a/2)**2 on the
        n x n base; see `level_rows`."""
        t = np.arange(self.depth + 1) * self.R
        sh = np.sinh(t)
        a = np.sinh(0.5 * (t[:, None] - t[None, :])) ** 2
        b = np.outer(sh, sh)
        # sin(0.5 * mu * d)**2, in one n x n array
        s = 0.5 * self.mu * self.space.dist
        np.sin(s, out=s)
        np.square(s, out=s)
        return a, b, s

    def level_rows(self, j: int, lo: int = 0, hi: int | None = None,
                   start: int = 0) -> np.ndarray:
        """The cone distances of rows [lo, hi) of level j to the grid
        points [start, n_points): a (hi - lo, n_points - start) array.  The
        apex (j = 0) is a level of one row, any other level has n; by
        default every row and every column.

        The entry of (j, z) and (j', z') is 2*asinh(sqrt(A + B*S)), with A
        and B at (j, j') and S at (z, z'); the apex sits at base point 0.
        The columns are taken one level j' at a time, each a slice of S's
        rows; the factors and ufuncs are the tests' `cone_metric`'s, in its
        order, bit for bit, and every entry is computed rather than mirrored."""
        if not 0 <= j <= self.depth:
            raise ConeError(f"level {j} outside 0..{self.depth}")
        n, n_points = self.space.n, self.n_points
        size = n if j else 1
        hi = size if hi is None else hi
        if not 0 <= lo <= hi <= size:
            raise ConeError(f"rows [{lo}, {hi}) outside level {j}")
        if not 0 <= start <= n_points:
            raise ConeError(f"first column {start} outside 0..{n_points}")
        a, b, s = self._level_factors
        s = s[lo:hi] if j else s[:1]
        rows = np.empty((hi - lo, n_points - start))
        # from the level of column start on, level k's columns from base
        # point z0, one slice of S's rows each; the apex's one column is
        # base point 0
        for k in range((start + n - 1) // n, self.depth + 1):
            first = self.index(k, 0)
            z0, width = max(start - first, 0), (n if k else 1)
            part = rows[:, first + z0 - start: first + width - start]
            np.multiply(b[j, k], s[:, z0:width], out=part)
            np.add(a[j, k], part, out=part)
        np.sqrt(rows, out=rows)
        np.arcsinh(rows, out=rows)
        rows *= 2.0
        return rows

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        """The whole grid's cone distances: the `level_rows` of every
        level, stacked, so bit for bit the tests' `cone_metric` oracle over
        the grid points.  The pipeline streams the rows instead."""
        out = np.empty((self.n_points, self.n_points))
        for j in range(self.depth + 1):
            rows = self.level_rows(j)
            lo = self.index(j, 0)
            out[lo: lo + len(rows)] = rows
        return out

    def __repr__(self):
        return (
            f"ConeGrid(n={self.space.n}, depth={self.depth}, "
            f"R={self.R:.4g}, points={self.n_points})"
        )


def build_grid(space: FiniteMetricSpace, r: float, depth: int) -> ConeGrid:
    """Validated grid constructor; see ConeGrid."""
    return ConeGrid(space, r, depth)
