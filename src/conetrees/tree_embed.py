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

Node ids run level by level (the root, then each level's members), which
`RootedTree.validate` checks, so the nodes of level >= l are a suffix of
the ids.  `RootedTree.all_pairs_dist` compares, at level l, only that
suffix, in one reused bool buffer, and finishes its int16 result in place.
`ProductEmbedding.all_pairs_dist` adds a tree whose table column is the
identity straight into its int32 sum, and gathers any other tree in row
blocks of at most BLOCK_ENTRIES entries, so neither kernel makes an n x n
transient beyond its result and that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .char_seq import CharSequence
from .hyp_cone import ConeGrid
from .metric_core import FiniteMetricSpace
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
        members: per-node point index set; the root owns every point.
        refs: per-node (ladder level, member index), root (0, -1).
    """

    space: FiniteMetricSpace
    color: int
    depth: int
    level: np.ndarray
    parent: np.ndarray
    members: tuple[frozenset, ...]
    refs: tuple[tuple[int, int], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.members)

    def children(self, u: int) -> np.ndarray:
        return np.flatnonzero(self.parent == u)

    def nodes_at_level(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.level == j)

    @cached_property
    def ancestors(self) -> np.ndarray:
        """(n_nodes, depth+1) ancestor-at-level table: entry [u, l] is u's
        ancestor at level l (u itself at level[u], the root at 0), or -1
        where u's chain skips level l or l lies below u."""
        anc = np.full((self.n_nodes, self.depth + 1), -1, dtype=np.int64)
        rows = np.arange(self.n_nodes)
        cur = rows.copy()
        # levels drop by at least one per parent hop, so depth+1 steps carry
        # every chain past the root, where cur becomes -1 and stops
        for _ in range(self.depth + 1):
            live = cur >= 0
            anc[rows[live], self.level[cur[live]]] = cur[live]
            cur[live] = self.parent[cur[live]]
        return anc

    def lca_level(self, u: int, v: int) -> int:
        au, av = self.ancestors[u], self.ancestors[v]
        return int(np.flatnonzero((au == av) & (au >= 0))[-1])

    def dist(self, u: int, v: int) -> int:
        return int(self.level[u] + self.level[v] - 2 * self.lca_level(u, v))

    @cached_property
    def all_pairs_dist(self) -> np.ndarray:
        """(n_nodes, n_nodes) int16 tree distances level[u] + level[v] -
        2*lca, where lca is the largest level l with ancestors[u, l] ==
        ancestors[v, l] >= 0.  Every pair shares the root at level 0; at
        level l >= 1 only the nodes of level >= l can match, and they are
        the suffix of the ids from the first level-l node, so one equality
        pass per level covers that suffix's square, in one reused bool
        buffer.  Each column is compared in the narrowest signed type that
        holds the node ids and -2.  The result is finished in place, so the
        kernel holds only it and the buffer.  Raises TreeError when the ids
        are not in non-decreasing level order."""
        if np.any(self.level[1:] < self.level[:-1]):
            raise TreeError("node ids are not in non-decreasing level order")
        anc = self.ancestors
        ids = np.min_scalar_type(-self.n_nodes)
        lca = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int16)
        first = np.searchsorted(self.level, np.arange(1, self.depth + 1))
        size = self.n_nodes - int(first[0]) if first.size else 0
        buf = np.empty(size * size, dtype=bool)
        for lvl, lo in enumerate(first.tolist(), 1):
            m = self.n_nodes - lo
            col = anc[lo:, lvl].astype(ids)
            match = buf[:m * m].reshape(m, m)
            # -1 on one side against -2 on the other: skipped levels never match
            np.equal(col[:, None], np.where(col < 0, -2, col)[None, :], out=match)
            np.copyto(lca[lo:, lo:], lvl, where=match)
        lv = self.level.astype(np.int16)
        lca *= -2
        lca += lv[:, None]
        lca += lv[None, :]
        return lca

    def steps_to_level(self, u: int, i: int) -> int:
        """Parent hops from u until the level drops to i or below: the
        number of u's ancestors, u included, above level i."""
        if i < 0:
            raise TreeError("walked past the root")
        return int(np.count_nonzero(self.ancestors[u, i + 1:] >= 0))

    def validate(self) -> None:
        if self.level[0] != 0 or self.parent[0] != -1:
            raise TreeError("node 0 must be the level-0 root")
        if np.any(self.level[1:] < self.level[:-1]):
            raise TreeError("node ids are not in non-decreasing level order")
        if np.count_nonzero(self.level == 0) != 1:
            raise TreeError("exactly one root expected")
        for u in range(1, self.n_nodes):
            p = int(self.parent[u])
            if not 0 <= p < self.n_nodes:
                raise TreeError(f"node {u} has invalid parent {p}")
            if self.level[p] >= self.level[u]:
                raise TreeError(f"node {u} does not descend in level")
            if not self.members[u] <= self.members[p]:
                raise TreeError(f"node {u} is not contained in its parent")
            if not self.members[u]:
                raise TreeError(f"node {u} has an empty member")

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
    tree = RootedTree(
        space=space,
        color=color,
        depth=seq.depth,
        level=np.repeat(np.arange(seq.depth + 1), [1] + sizes),
        parent=parent,
        members=(frozenset(range(space.n)),)
        + tuple(u.indices for f in fams for u in f),
        refs=((0, -1),) + tuple((j, i) for j, f in enumerate(fams, 1)
                                for i in range(len(f))),
    )
    tree.validate()
    return tree


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

    def product_dist(self, i: int, k: int) -> int:
        return int(sum(
            t.dist(int(self.table[i, a]), int(self.table[k, a]))
            for a, t in enumerate(self.trees)
        ))

    @cached_property
    def all_pairs_dist(self) -> np.ndarray:
        """(n_points, n_points) int32 l1 product distances: the sum over
        trees of each tree's int16 `all_pairs_dist` at the points' nodes,
        cast to int32 in the add.  A tree whose table column is the
        identity, as on an all-singleton ladder, is added whole; any other
        is gathered rows then columns in row blocks of at most BLOCK_ENTRIES
        entries, so no n_points x n_points int16 copy is made."""
        n = self.grid.n_points
        out = np.zeros((n, n), dtype=np.int32)
        rows = max(1, BLOCK_ENTRIES // n)
        for a, t in enumerate(self.trees):
            col = self.table[:, a]
            dist = t.all_pairs_dist
            if t.n_nodes == n and np.array_equal(col, np.arange(n)):
                out += dist
                continue
            for lo in range(0, n, rows):
                part = col[lo: lo + rows]
                out[lo: lo + rows] += dist.take(part, axis=0).take(col, axis=1)
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
            table[lo: lo + seq.space.n, a] = tree.nodes_at_level(j)[nearest[fam]]
    return ProductEmbedding(grid=grid, trees=trees, table=table)


def radial_check(emb: ProductEmbedding) -> dict:
    """Exhaustive climb test: for every grid point at level j and every
    target level i < j, the slowest tree must take enough parent hops M that
    m * (M + 1) >= j - i + 1, i.e. the trees jointly pass through every
    intermediate level.  Raises RadialCheckError on the first violation.
    """
    m = emb.n_trees
    grid = emb.grid
    # steps[idx, i]: the slowest tree's steps_to_level from grid point idx
    # to level i, read off suffix counts of each tree's ancestor table
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
