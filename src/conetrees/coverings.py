"""Families of subsets, colored coverings, and their scale parameters.

Mesh, multiplicity, Lebesgue number, and capacity quantify how a family of
subsets covers its space.  Families support uniform erosion (shrink) and the
absorb-and-grow merge used to push separated coverings down a scale ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metric_core import FiniteMetricSpace, Subset


class CoveringError(ValueError):
    """Raised when a family violates a covering requirement."""


@dataclass(frozen=True, eq=False)
class Family:
    """An ordered family of subsets of one space.

    Empty members are rejected unless allow_empty is set; erosion-type
    operations drop empties from their output instead.
    """

    space: FiniteMetricSpace
    members: tuple[Subset, ...]
    allow_empty: bool = False

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for u in self.members:
            if u.space is not self.space:
                raise CoveringError("family member belongs to a different space")
            if u.is_empty and not self.allow_empty:
                raise CoveringError("empty member in family")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> Subset:
        return self.members[i]

    @cached_property
    def union_indices(self) -> frozenset:
        out = frozenset()
        for u in self.members:
            out |= u.indices
        return out

    def covers(self) -> bool:
        return len(self.union_indices) == self.space.n

    @cached_property
    def mesh(self) -> float:
        if not self.members:
            return 0.0
        return max(u.diameter() for u in self.members)

    @cached_property
    def _membership(self) -> np.ndarray:
        """(len(members), n) bool matrix, row i = indicator of member i."""
        m = np.zeros((len(self.members), self.space.n), dtype=bool)
        for i, u in enumerate(self.members):
            if u.indices:
                m[i, list(u.indices)] = True
        return m

    def multiplicity(self) -> int:
        if not self.members or self.space.n == 0:
            return 0
        return int(self._membership.sum(axis=0).max())

    def r_multiplicity(self, r: float) -> int:
        """Max over points of how many open r-neighborhoods of members hit it."""
        if not self.members or self.space.n == 0:
            return 0
        if r == 0:
            return self.multiplicity()
        counts = np.zeros(self.space.n, dtype=int)
        for u in self.members:
            hood = u.neighborhood(r)
            if hood.indices:
                counts[list(hood.indices)] += 1
        return int(counts.max())

    @cached_property
    def _depths(self) -> np.ndarray:
        """(len(members), n): row i = distance from each point to the
        complement of member i (+inf when the member is the whole space)."""
        n = self.space.n
        rows = np.zeros((len(self.members), n))
        full = frozenset(range(n))
        for i, u in enumerate(self.members):
            comp = full - u.indices
            if comp:
                cols = np.fromiter(comp, dtype=int, count=len(comp))
                rows[i] = self.space.dist[:, cols].min(axis=1)
            else:
                rows[i] = np.inf
        return rows

    def lebesgue(self) -> float:
        """min over points of min(best inscribed depth, mesh)."""
        if self.space.n == 0 or not self.members:
            return 0.0
        best = self._depths.max(axis=0)
        return float(min(best.min(), self.mesh))

    def capacity(self) -> float:
        """Lebesgue number relative to mesh; 1.0 by convention at mesh 0."""
        if self.mesh == 0:
            return 1.0
        return self.lebesgue() / self.mesh

    def inner_radii(self) -> np.ndarray:
        """Per member, the largest depth of any point inside it."""
        if not self.members:
            return np.zeros(0)
        return self._depths.max(axis=1)

    def net_radius(self) -> float:
        """Max over space points of the distance to the union of members."""
        if self.space.n == 0:
            return 0.0
        if not self.union_indices:
            return np.inf
        cols = np.fromiter(self.union_indices, dtype=int, count=len(self.union_indices))
        return float(self.space.dist[:, cols].min(axis=1).max())

    def min_separation(self) -> float:
        """Min distance between distinct nonempty members; +inf if fewer than 2."""
        live = [u for u in self.members if not u.is_empty]
        if len(live) < 2:
            return np.inf
        if all(len(u) == 1 for u in live):
            idx = np.fromiter((next(iter(u.indices)) for u in live), dtype=int)
            sub = self.space.dist[np.ix_(idx, idx)]
            iu = np.triu_indices(len(idx), k=1)
            return float(sub[iu].min())
        best = np.inf
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                best = min(best, live[i].dist_sets(live[j]))
        return best

    def is_separated(self, s: float) -> bool:
        """Pairwise distance between distinct nonempty members is >= s."""
        live = [u for u in self.members if not u.is_empty]
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                if live[i].dist_sets(live[j]) < s:
                    return False
        return True

    def is_r_disjoint(self, r: float) -> bool:
        """Open r-neighborhoods of distinct nonempty members are pairwise
        disjoint.  Stronger than is_separated(r): no point may lie within r
        of two members."""
        if r <= 0:
            return True
        live = [u for u in self.members if not u.is_empty]
        if len(live) < 2:
            return True
        near = np.stack([u.dist_to_points() < r for u in live])
        return not np.any(near.sum(axis=0) > 1)

    def shrink(self, s: float) -> "Family":
        """Erode every member by s.  Requires 0 < s < Lebesgue number, which
        guarantees the eroded family still covers; empty members are dropped.
        """
        leb = self.lebesgue()
        if not 0 < s < leb:
            raise CoveringError(
                f"shrink step {s:.6g} exceeds Lebesgue number {leb:.6g}"
            )
        out = [u.neighborhood(-s) for u in self.members]
        return Family(self.space, tuple(u for u in out if not u.is_empty))

    def __repr__(self):
        return f"Family(k={len(self.members)}, mesh={self.mesh:.6g})"


def star_merge(core: Subset, fam: Family, s: float) -> tuple[Subset, tuple[int, ...]]:
    """Absorb into ``core`` every member of ``fam`` whose open s-neighborhood
    meets the open s-neighborhood of ``core``, then grow the union by s.

    Returns the grown union and the indices of the absorbed members.
    """
    if s <= 0:
        raise CoveringError(f"merge radius must be positive, got {s}")
    space = core.space
    d_core = core.dist_to_points()
    absorbed = []
    merged = set(core.indices)
    for i, w in enumerate(fam):
        d_w = w.dist_to_points()
        # open s-neighborhoods intersect iff some point is < s from both
        if float(np.maximum(d_core, d_w).min()) < s:
            absorbed.append(i)
            merged |= w.indices
    grown = Subset(space, frozenset(merged)).neighborhood(s)
    return grown, tuple(absorbed)


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
        union = frozenset()
        for f in self.colors:
            union |= f.union_indices
        if len(union) != self.space.n:
            raise CoveringError("colored covering does not cover the space")

    @property
    def n_colors(self) -> int:
        return len(self.colors)

    @cached_property
    def pooled(self) -> Family:
        members = tuple(u for f in self.colors for u in f.members)
        return Family(self.space, members, allow_empty=True)

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
