"""Families of subsets, colored coverings, and their scale parameters.

A Family lists its members' points once, as CSR arrays: member i owns
``indices[indptr[i]:indptr[i + 1]]``.  Two kernels answer every per-member
distance question from them: `dist_rows()`, each point's distance to each
member, and `depths`, each point's distance to each member's complement.
Mesh, multiplicity, Lebesgue number, capacity, separation, uniform erosion
(shrink) and the absorb-and-grow merge that pushes separated coverings down
a scale ladder are array operations on those two (k, n) matrices.  A
ColoredCovering's constants come from its color families, each distinct
one's tables derived once; `pooled`, all its members as one Family, is
only the tests' oracle for them.

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
distances are their own `dist_rows()`.
Neither table is cached on the Family: both are derived per call, since at
n = 2048 each is 32 MB, and a caller that needs one twice derives it once
and passes it on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain

import numpy as np

from .metric_core import FiniteMetricSpace, Subset


class CoveringError(ValueError):
    """Raised when a family violates a covering requirement."""


@dataclass(frozen=True, eq=False)
class Family:
    """An ordered family of nonempty subsets of one space.

    Erosion-type operations drop the members they empty from their output.
    """

    space: FiniteMetricSpace
    members: tuple[Subset, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for u in self.members:
            if u.space is not self.space:
                raise CoveringError("family member belongs to a different space")
            if u.is_empty:
                raise CoveringError("empty member in family")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> Subset:
        return self.members[i]

    @cached_property
    def indptr(self) -> np.ndarray:
        """(k+1,) offsets: member i owns indices[indptr[i]:indptr[i + 1]]."""
        return np.cumsum([0] + [len(u) for u in self.members])

    @cached_property
    def indices(self) -> np.ndarray:
        """The members' points, member after member."""
        return np.fromiter(chain.from_iterable(u.indices for u in self.members),
                           dtype=np.intp, count=int(self.indptr[-1]))

    def mask(self) -> np.ndarray:
        """(k, n) bool: row i marks the points of member i."""
        out = np.zeros((len(self), self.space.n), dtype=bool)
        out[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = True
        return out

    def member_min(self, values: np.ndarray) -> np.ndarray:
        """(k, m): row i is the minimum of the rows of the (n, m) array
        ``values`` over the points of member i."""
        if not self.members:
            return np.empty((0, values.shape[1]))
        if self.indptr[-1] == len(self.members):  # all singletons
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

    def union_size(self) -> int:
        """Number of points in some member."""
        return int(np.count_nonzero(np.bincount(self.indices, minlength=self.space.n)))

    def covers(self) -> bool:
        return self.union_size() == self.space.n

    @cached_property
    def mesh(self) -> float:
        if not self.members:
            return 0.0
        return max(u.diameter() for u in self.members)

    def multiplicity(self) -> int:
        return int(np.bincount(self.indices, minlength=self.space.n).max())

    def hoods(self, r: float) -> np.ndarray:
        """(k, n) bool: row i marks the open r-neighborhood of member i
        (signed radius r != 0, as in Subset.neighborhood)."""
        return self.dist_rows() < r if r > 0 else self.depths > -r

    def r_multiplicity(self, r: float) -> int:
        """Max over points of how many open r-neighborhoods of members hit
        it (signed radius, as in Subset.neighborhood)."""
        if r == 0:
            return self.multiplicity()
        return int(self.hoods(r).sum(axis=0).max())

    def lebesgue(self) -> float:
        """min over points of min(best inscribed depth, mesh)."""
        return self._lebesgue(self.depths) if self.members else 0.0

    def _lebesgue(self, depths: np.ndarray) -> float:
        """`lebesgue` of a nonempty family, read off its `depths` table."""
        return float(min(depths.max(axis=0).min(), self.mesh))

    def capacity(self) -> float:
        """Lebesgue number relative to mesh; 1.0 by convention at mesh 0."""
        if self.mesh == 0:
            return 1.0
        return self.lebesgue() / self.mesh

    def net_radius(self) -> float:
        """Max over space points of the distance to the union of members."""
        return float(self.dist_rows().min(axis=0, initial=np.inf).max())

    def min_separation(self) -> float:
        """Min distance between distinct members; +inf if fewer than 2."""
        return self._separation(self.dist_rows())

    def _separation(self, rows: np.ndarray) -> float:
        """`min_separation` read off the family's `dist_rows()`; the member
        distances are exactly symmetric, as the space's matrix is."""
        sep = self.member_min(rows.T)  # [i, l]: min over x in i of d(x, l)
        np.fill_diagonal(sep, np.inf)
        return float(sep.min(initial=np.inf))

    def is_separated(self, s: float) -> bool:
        """Pairwise distance between distinct members is >= s."""
        return self.min_separation() >= s

    def is_r_disjoint(self, r: float) -> bool:
        """Open r-neighborhoods of distinct members are pairwise disjoint.
        Stronger than is_separated(r): no point may lie within r of two
        members."""
        return r <= 0 or self.r_multiplicity(r) <= 1

    def eroded(self, s: float) -> "Family":
        """Each member eroded by s > 0, i.e. its points farther than s from
        its complement, in order; members the erosion empties are dropped."""
        return self._eroded(self.depths, s)

    def _eroded(self, depths: np.ndarray, s: float) -> "Family":
        """`eroded` read off the family's `depths` table."""
        return _rows_family(self.space, depths > s)

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

    def shrink(self, s: float) -> "Family":
        """Erode every member by s.  Requires 0 < s < Lebesgue number, which
        guarantees the eroded family still covers; empty members are dropped.
        The `depths` table is derived once, for both.
        """
        depths = self.depths
        leb = self._lebesgue(depths) if self.members else 0.0
        if not 0 < s < leb:
            raise CoveringError(
                f"shrink step {s:.6g} exceeds Lebesgue number {leb:.6g}"
            )
        return self._eroded(depths, s)

    def __repr__(self):
        return f"Family(k={len(self.members)}, mesh={self.mesh:.6g})"


def _rows_family(space: FiniteMetricSpace, rows: np.ndarray) -> Family:
    """The Family whose members are the nonempty rows of the (k, n) bool
    ``rows``, in order."""
    return Family(space, tuple(Subset(space, frozenset(np.flatnonzero(row).tolist()))
                               for row in rows if row.any()))


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
        members = tuple(u for f in self.colors for u in f.members)
        return Family(self.space, members)

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

    capacity = Family.capacity  # read off this covering's mesh and lebesgue

    def __repr__(self):
        sizes = ",".join(str(len(f)) for f in self.colors)
        return f"ColoredCovering(colors=[{sizes}], mesh={self.mesh:.6g})"
