"""Rooted trees from separated ladders, and the grid-to-tree-product map.

One tree per color: the root stands for the whole space at level 0, and each
member of the color's family at level j becomes a node at depth j.  A node's
parent is the member at the greatest lower level whose point set contains it
(containment is non-strict, so a repeated singleton chains through every
level); members contained in nothing land directly under the root.  Edges
are weighted by level difference, so tree distance is level[u] + level[v]
- 2 * level[lca].

A cone grid point (z, j*R) maps, in each tree, to the level-j node nearest
to z; the product metric is the l1 sum over trees.

`build_tree` numbers the nodes level by level (the root, then each level's
members in order, one run of ids per level), and a parent lies at a lower
level, so a parent's rows of the ancestor and lca-level tables are finished
before its children's.  The tree's `all_pairs_dist` copies each node's row
from its parent's, since the two agree outside the node's subtree, writes
the node's level over that subtree, and finishes its int16 result in place.
Both it and `ProductEmbedding.all_pairs_dist`, which adds a tree whose table
column is the identity straight into its int32 sum, gather rows in blocks of
at most BLOCK_ENTRIES entries: no n x n transient is made beyond the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .char_seq import CharSequence
from .coverings import Family, stacked
from .hyp_cone import ConeGrid
from .qi_verify import BLOCK_ENTRIES


class TreeError(ValueError):
    """Raised when a ladder does not define a valid tree."""


class RadialCheckError(AssertionError):
    """Raised when an embedded ray climbs its trees too fast."""


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Tree over one color of a separated ladder.

    Attributes:
        level: per-node depth, root 0.
        parent: per-node parent id, root -1.
        members: a Family, one member per node; the root owns every point.
    """

    color: int
    depth: int
    level: np.ndarray
    parent: np.ndarray
    members: Family

    @property
    def n_nodes(self) -> int:
        return len(self.members)

    @cached_property
    def ancestors(self) -> np.ndarray:
        """(n_nodes, depth+1) ancestor-at-level table: entry [u, l] is u's
        ancestor at level l (u itself at level[u], the root at 0), or -1
        where u's chain skips level l or l lies below u.  Level by level, a
        node's row is its parent's finished row with itself at its level."""
        anc = np.full((self.n_nodes, self.depth + 1), -1, dtype=np.int64)
        anc[0, 0] = 0
        ends = np.searchsorted(self.level, np.arange(1, self.depth + 2)).tolist()
        for lvl, (lo, hi) in enumerate(zip(ends, ends[1:]), 1):
            anc[lo:hi] = anc[self.parent[lo:hi]]
            anc[lo:hi, lvl] = np.arange(lo, hi)
        return anc

    @cached_property
    def all_pairs_dist(self) -> np.ndarray:
        """(n_nodes, n_nodes) int16 tree distances level[u] + level[v] -
        2*lca, lca the level of u's and v's deepest common ancestor.  The
        lca table is built level by level, a parent's row before its
        children's: outside u's subtree lca(u, v) = lca(parent(u), v), so
        u's row starts as its parent's, gathered in row blocks of at most
        BLOCK_ENTRIES entries, and inside it lca(u, v) = level[u], written
        at (ancestors[v, l], v) for every v with an ancestor at level l.
        The result is finished in place, so the kernel holds only it and
        one block."""
        n, anc = self.n_nodes, self.ancestors
        lca = np.empty((n, n), dtype=np.int16)
        lca[0] = 0
        rows = max(1, BLOCK_ENTRIES // n)
        ends = np.searchsorted(self.level, np.arange(1, self.depth + 2)).tolist()
        for lvl, (lo, hi) in enumerate(zip(ends, ends[1:]), 1):
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                lca[a:b] = lca[self.parent[a:b]]
            v = np.flatnonzero(anc[:, lvl] >= 0)
            lca[anc[v, lvl], v] = lvl
        lv = self.level.astype(np.int16)
        lca *= -2
        lca += lv[:, None]
        lca += lv[None, :]
        return lca

    def __repr__(self):
        return f"RootedTree(color={self.color}, nodes={self.n_nodes}, depth={self.depth})"


def build_tree(seq: CharSequence, color: int) -> RootedTree:
    """Tree for one color; see module docstring for the parent rule."""
    if not 0 <= color < seq.n_colors:
        raise TreeError(f"color {color} outside 0..{seq.n_colors - 1}")
    space = seq.space
    fams = [seq.level(j).colors[color] for j in range(1, seq.depth + 1)]
    sizes = [len(f) for f in fams]
    # node ids: the root, then every level's members in order
    first = np.cumsum([1] + sizes)
    parent = np.zeros(first[-1], dtype=np.int64)
    parent[0] = -1
    for j in range(2, seq.depth + 1):
        fine = fams[j - 1]
        fit_count = np.zeros(len(fine), dtype=np.int64)
        fit_level = np.zeros(len(fine), dtype=np.int64)
        for jc in range(j - 1, 0, -1):
            # fits[i, l]: every point of member i lies in level-jc member l
            fits = fine.member_min(fams[jc - 1].mask().T)
            new = (fit_count == 0) & fits.any(axis=1)
            fit_count[new] = fits[new].sum(axis=1)
            fit_level[new] = jc
            parent[first[j - 1] + np.flatnonzero(new)] = (
                first[jc - 1] + fits[new].argmax(axis=1))
            if fit_count.all():
                break
        ambiguous = np.flatnonzero(fit_count > 1)
        if ambiguous.size:
            i = int(ambiguous[0])
            raise TreeError(
                f"ambiguous containment at level {j} color {color}: "
                f"member {i} fits {fit_count[i]} level-{fit_level[i]} members"
            )
    return RootedTree(
        color=color,
        depth=seq.depth,
        level=np.repeat(np.arange(seq.depth + 1), [1] + sizes),
        parent=parent,
        members=stacked(space, (Family(space, (np.arange(space.n),)), *fams)),
    )


@dataclass(frozen=True, eq=False)
class ProductEmbedding:
    """Assignment of every grid point to one node per tree."""

    grid: ConeGrid
    trees: tuple[RootedTree, ...]
    table: np.ndarray  # (n_points, n_trees)

    def __post_init__(self):
        if self.table.shape != (self.grid.n_points, len(self.trees)):
            raise ValueError("embedding table shape mismatch")

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @cached_property
    def all_pairs_dist(self) -> np.ndarray:
        """(n_points, n_points) int32 l1 product distances: the sum over
        trees of each tree's int16 `all_pairs_dist` at the points' nodes,
        cast to int32 as it is written.  A tree whose table column is the
        identity, as on an all-singleton ladder, is taken whole; any other
        is gathered rows then columns in row blocks of at most BLOCK_ENTRIES
        entries, so no n_points x n_points int16 copy is made.  The first
        tree is written into the uninitialised result and the others are
        added, so no page of it is read before it is written."""
        n = self.grid.n_points
        if not self.trees:
            return np.zeros((n, n), dtype=np.int32)
        out = np.empty((n, n), dtype=np.int32)
        for a, t in enumerate(self.trees):
            col = self.table[:, a]
            dist = t.all_pairs_dist
            whole = t.n_nodes == n and np.array_equal(col, np.arange(n))
            rows = n if whole else max(1, BLOCK_ENTRIES // n)
            for lo in range(0, n, rows):
                part = dist if whole else (
                    dist.take(col[lo: lo + rows], axis=0).take(col, axis=1))
                if a:
                    out[lo: lo + rows] += part
                else:
                    out[lo: lo + rows] = part
        return out

    def __repr__(self):
        return f"ProductEmbedding(points={self.grid.n_points}, trees={self.n_trees})"


def embed_grid(seq: CharSequence, grid: ConeGrid,
               trees: tuple[RootedTree, ...]) -> ProductEmbedding:
    """Embed every grid point into the product of the ladder's trees."""
    if grid.space is not seq.space:
        raise TreeError("grid and ladder live on different spaces")
    if grid.depth != seq.depth:
        raise TreeError(
            f"grid depth {grid.depth} does not match ladder depth {seq.depth}"
        )
    table = np.zeros((grid.n_points, len(trees)), dtype=np.int64)
    for j in range(1, grid.depth + 1):
        fams = [seq.level(j).colors[tree.color] for tree in trees]
        # each point's nearest member, once per distinct family
        nearest = {f: f.dist_rows().argmin(axis=0) for f in dict.fromkeys(fams)}
        lo = grid.index(j, 0)
        for a, (tree, fam) in enumerate(zip(trees, fams)):
            # the tree's level-j nodes are this family's members, in order
            first = np.searchsorted(tree.level, j)
            table[lo: lo + seq.space.n, a] = first + nearest[fam]
    return ProductEmbedding(grid=grid, trees=trees, table=table)


def radial_check(emb: ProductEmbedding) -> dict:
    """Exhaustive climb test: for every grid point at level j and every
    target level i < j, the slowest tree must take enough parent hops M that
    m * (M + 1) >= j - i + 1, i.e. the trees jointly pass through every
    intermediate level.  Raises RadialCheckError on the first violation.
    """
    m = emb.n_trees
    grid = emb.grid
    # steps[idx, i]: the most parent hops, over trees, from idx's node down to
    # level <= i: the node's ancestors above level i, a suffix count per tree
    steps = np.zeros((grid.n_points, grid.depth + 1), dtype=np.int64)
    for a, tree in enumerate(emb.trees):
        present = tree.ancestors >= 0
        above = present.sum(axis=1, keepdims=True) - present.cumsum(axis=1)
        np.maximum(steps, above[emb.table[:, a]], out=steps)
    target = np.arange(grid.depth + 1)[None, :]
    level = grid.point_level[:, None]
    valid = target < level
    bad = valid & (m * (steps + 1) < level - target + 1)
    if bad.any():
        idx, i = (int(v) for v in np.argwhere(bad)[0])
        j, hops = int(grid.point_level[idx]), int(steps[idx, i])
        raise RadialCheckError(
            f"grid point (z={int(grid.point_z[idx])}, level={j}) reaches "
            f"level {i} in {hops} hops: {m}*({hops}+1) < {j - i + 1}"
        )
    return {"checks": int(np.count_nonzero(valid)),
            "max_steps": int(steps.max(where=valid, initial=0)), "failures": 0}
