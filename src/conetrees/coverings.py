"""Families of subsets, colored coverings, and their scale parameters.

A Family lists its members' points once, as CSR arrays: member i owns
``indices[indptr[i]:indptr[i + 1]]``.  Two kernels answer every per-member
distance question from them: `dist_rows()`, each point's distance to each
member, and `depths`, each point's distance to each member's complement.
Mesh, multiplicity, Lebesgue number, capacity, separation, uniform erosion
(shrink) and the absorb-and-grow merge that pushes separated coverings down
a scale ladder are array operations on those two (k, n) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        return np.minimum.reduceat(values[self.indices], self.indptr[:-1], axis=0)

    def dist_rows(self) -> np.ndarray:
        """(k, n): row i = distance from each point to member i."""
        # row y of dist.T is column y of dist: each point's distance to y
        return self.member_min(self.space.dist.T)

    @cached_property
    def depths(self) -> np.ndarray:
        """(k, n): row i = distance from each point to the complement of
        member i, +inf when the member is the whole space.

        Points outside a member are at 0.  For x inside member i it is the
        distance to the first point of x's neighbor order that lies outside
        member i; all such (member, point) pairs walk their orders together,
        one rank at a time, until each has left its member.
        """
        inside = self.mask()
        whole = inside.all(axis=1)
        out = np.zeros(inside.shape)
        out[whole] = np.inf
        i, x = np.nonzero(inside & ~whole[:, None])
        order = self.space.neighbor_order
        rank = 0  # rank 0 is x itself, which lies inside
        while i.size:
            rank += 1
            y = order[x, rank]
            left = ~inside[i, y]
            out[i[left], x[left]] = self.space.dist[x[left], y[left]]
            i, x = i[~left], x[~left]
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

    def r_multiplicity(self, r: float) -> int:
        """Max over points of how many open r-neighborhoods of members hit
        it (signed radius, as in Subset.neighborhood)."""
        if r == 0:
            return self.multiplicity()
        hoods = self.dist_rows() < r if r > 0 else self.depths > -r
        return int(hoods.sum(axis=0).max())

    def lebesgue(self) -> float:
        """min over points of min(best inscribed depth, mesh)."""
        if not self.members:
            return 0.0
        best = self.depths.max(axis=0)
        return float(min(best.min(), self.mesh))

    def capacity(self) -> float:
        """Lebesgue number relative to mesh; 1.0 by convention at mesh 0."""
        if self.mesh == 0:
            return 1.0
        return self.lebesgue() / self.mesh

    def inner_radii(self) -> np.ndarray:
        """Per member, the largest depth of any point inside it."""
        return self.depths.max(axis=1)

    def net_radius(self) -> float:
        """Max over space points of the distance to the union of members."""
        return float(self.dist_rows().min(axis=0, initial=np.inf).max())

    def min_separation(self) -> float:
        """Min distance between distinct members; +inf if fewer than 2."""
        # entry [i, l]: min over x in member i of d(x, member l)
        sep = self.member_min(self.dist_rows().T)
        return float(sep[np.triu_indices(len(self), k=1)].min(initial=np.inf))

    def is_separated(self, s: float) -> bool:
        """Pairwise distance between distinct members is >= s."""
        return self.min_separation() >= s

    def is_r_disjoint(self, r: float) -> bool:
        """Open r-neighborhoods of distinct members are pairwise disjoint.
        Stronger than is_separated(r): no point may lie within r of two
        members."""
        return r <= 0 or self.r_multiplicity(r) <= 1

    def eroded_members(self, s: float) -> tuple[Subset, ...]:
        """Each member eroded by s > 0, i.e. its points farther than s from
        its complement, in order; members the erosion empties are dropped."""
        return tuple(Subset(self.space, frozenset(np.flatnonzero(keep).tolist()))
                     for keep in self.depths > s if keep.any())

    def shrink(self, s: float) -> "Family":
        """Erode every member by s.  Requires 0 < s < Lebesgue number, which
        guarantees the eroded family still covers; empty members are dropped.
        """
        leb = self.lebesgue()
        if not 0 < s < leb:
            raise CoveringError(
                f"shrink step {s:.6g} exceeds Lebesgue number {leb:.6g}"
            )
        return Family(self.space, self.eroded_members(s))

    def __repr__(self):
        return f"Family(k={len(self.members)}, mesh={self.mesh:.6g})"


def star_merge(core: Subset, fam: Family, s: float) -> tuple[Subset, tuple[int, ...]]:
    """Absorb into ``core`` every member of ``fam`` whose open s-neighborhood
    meets the open s-neighborhood of ``core``, then grow the union by s.

    Returns the grown union and the indices of the absorbed members.
    """
    if s <= 0:
        raise CoveringError(f"merge radius must be positive, got {s}")
    rows = fam.dist_rows()
    d_core = core.dist_to_points()
    # open s-neighborhoods intersect iff some point is < s from both
    absorbed = np.maximum(rows, d_core).min(axis=1) < s
    d_union = np.minimum(d_core, rows[absorbed].min(axis=0, initial=np.inf))
    grown = Subset(core.space, frozenset(np.flatnonzero(d_union < s).tolist()))
    return grown, tuple(np.flatnonzero(absorbed).tolist())


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
        if not self.pooled.covers():
            raise CoveringError("colored covering does not cover the space")

    @property
    def n_colors(self) -> int:
        return len(self.colors)

    @cached_property
    def pooled(self) -> Family:
        members = tuple(u for f in self.colors for u in f.members)
        return Family(self.space, members)

    @property
    def mesh(self) -> float:
        return self.pooled.mesh

    def multiplicity(self) -> int:
        return self.pooled.multiplicity()

    def lebesgue(self) -> float:
        return self.pooled.lebesgue()

    def capacity(self) -> float:
        return self.pooled.capacity()

    def __repr__(self):
        sizes = ",".join(str(len(f)) for f in self.colors)
        return f"ColoredCovering(colors=[{sizes}], mesh={self.mesh:.6g})"
