"""Rooted trees over a separated ladder and the product embedding."""

import numpy as np
import pytest

from conetrees import (
    CharSequence,
    ColoredCovering,
    Family,
    FiniteMetricSpace,
    ProductEmbedding,
    RadialCheckError,
    RootedTree,
    TreeError,
    build_base,
    build_grid,
    build_tree,
    embed_grid,
    embed_point,
    radial_check,
    rough_triangle_bound,
    separate,
)
from conetrees.harness import generate


@pytest.fixture(scope="module")
def small__seq():
    sp = generate("circle", n=32)
    return separate(build_base(sp, r=0.125, depth=3, colors=2))


@pytest.fixture(scope="module")
def small_trees(small__seq):
    return tuple(build_tree(small__seq, a) for a in (0, 1))


def brute_tree_dist(tree, u, v):
    au = {}
    node = u
    while node != -1:
        au[node] = tree.level[node]
        node = tree.parent[node]
    node = v
    while node != -1:
        if node in au:
            return int(tree.level[u] + tree.level[v] - 2 * tree.level[node])
        node = tree.parent[node]
    raise AssertionError("no common ancestor")


class TestTreeStructure:
    def test_root(self, small_trees):
        for tree in small_trees:
            assert tree.level[0] == 0
            assert tree.parent[0] == -1
            assert tree.members[0] == frozenset(range(32))

    def test_parent_levels_decrease(self, small_trees):
        for tree in small_trees:
            for u in range(1, tree.n_nodes):
                assert tree.level[tree.parent[u]] < tree.level[u]

    def test_containment(self, small_trees):
        for tree in small_trees:
            for u in range(1, tree.n_nodes):
                assert tree.members[u] <= tree.members[tree.parent[u]]

    def test_node_count(self, small__seq, small_trees):
        for a, tree in enumerate(small_trees):
            expect = 1 + sum(
                len(small__seq.level(j).colors[a].members)
                for j in range(1, 4)
            )
            assert tree.n_nodes == expect

    def test_children_partition(self, small_trees):
        tree = small_trees[0]
        seen = set()
        for u in range(tree.n_nodes):
            for c in tree.children(u):
                assert c not in seen
                seen.add(c)
        assert seen == set(range(1, tree.n_nodes))

    def test_validate_passes(self, small_trees):
        for tree in small_trees:
            tree.validate()

    def test_distance_matches_chain_walk(self, small_trees):
        tree = small_trees[0]
        rng = np.random.default_rng(2)
        for _ in range(200):
            u, v = rng.integers(0, tree.n_nodes, size=2)
            assert tree.dist(int(u), int(v)) == brute_tree_dist(tree, u, v)

    def test_all_pairs_matches_scalar(self, small_trees):
        for tree in small_trees:
            ap = tree.all_pairs_dist
            assert ap.shape == (tree.n_nodes, tree.n_nodes)
            for u in range(tree.n_nodes):
                for v in range(tree.n_nodes):
                    assert ap[u, v] == brute_tree_dist(tree, u, v)

    def test_steps_to_level(self, small_trees):
        tree = small_trees[0]
        deepest = int(np.flatnonzero(tree.level == 3)[0])
        assert tree.steps_to_level(deepest, 3) == 0
        assert tree.steps_to_level(deepest, 0) >= 1
        hops = tree.steps_to_level(deepest, 1)
        node = deepest
        for _ in range(hops):
            node = tree.parent[node]
        assert tree.level[node] <= 1


def skipping_tree():
    """Color 0 of a hand-built ladder on 10 line points.  {4} at level 3
    skips level 2 to hang under {4,5,6}; {7,8} at level 2 and {9} at level
    3 hang directly under the root.  Color 1 is all singletons, so that
    every level covers the space."""
    coords = np.arange(10, dtype=float)
    d = np.abs(coords[:, None] - coords[None, :])
    sp = FiniteMetricSpace(d, tuple(f"x{i}" for i in range(10)))
    singles = Family(sp, tuple(sp.subset([i]) for i in range(10)))

    def level(*members):
        return ColoredCovering(sp, (
            Family(sp, tuple(sp.subset(m) for m in members)), singles))

    seq = CharSequence(sp, 0.5, (
        level([0, 1, 2, 3], [4, 5, 6]),
        level([0, 1], [7, 8]),
        level([0], [4], [8], [9]),
    ), 0.1, 0.1, 0.0, {})
    return build_tree(seq, 0)


class TestAncestorTable:
    def test_skipped_levels_are_minus_one(self):
        tree = skipping_tree()
        # nodes: root, {0..3}, {4,5,6}, {0,1}, {7,8}, {0}, {4}, {8}, {9}
        assert tree.parent.tolist() == [-1, 0, 0, 1, 0, 3, 2, 4, 0]
        assert tree.ancestors.tolist() == [
            [0, -1, -1, -1],
            [0, 1, -1, -1],
            [0, 2, -1, -1],
            [0, 1, 3, -1],
            [0, -1, 4, -1],
            [0, 1, 3, 5],
            [0, 2, -1, 6],
            [0, -1, 4, 7],
            [0, -1, -1, 8],
        ]

    def test_all_pairs_matches_chain_walk_with_skips(self):
        tree = skipping_tree()
        ap = tree.all_pairs_dist
        for u in range(tree.n_nodes):
            for v in range(tree.n_nodes):
                assert ap[u, v] == brute_tree_dist(tree, u, v)
                assert tree.dist(u, v) == ap[u, v]

    def test_steps_match_parent_walk_with_skips(self):
        tree = skipping_tree()
        for u in range(tree.n_nodes):
            for i in range(tree.depth + 1):
                hops, node = 0, u
                while tree.level[node] > i:
                    node = tree.parent[node]
                    hops += 1
                assert tree.steps_to_level(u, i) == hops


class TestAmbiguity:
    def test_overlapping_parents_rejected(self):
        coords = np.arange(10, dtype=float)
        d = np.abs(coords[:, None] - coords[None, :])
        sp = FiniteMetricSpace(d, tuple(f"x{i}" for i in range(10)))
        lvl1 = ColoredCovering(sp, (
            Family(sp, (sp.subset(range(0, 7)), sp.subset(range(4, 10)))),
        ))
        lvl2 = ColoredCovering(sp, (
            Family(sp, tuple(sp.subset([i]) for i in range(10))),
        ))
        seq = CharSequence(sp, 0.5, (lvl1, lvl2), 0.1, 0.1, 0.0, {})
        with pytest.raises(TreeError, match="ambiguous"):
            build_tree(seq, 0)


class TestEmbedding:
    def test_apex_goes_to_roots(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        assert tuple(emb.table[0]) == (0, 0)

    def test_points_map_to_containing_member(self, small__seq, small_trees):
        for tree in small_trees:
            for z in range(32):
                node = embed_point(tree, z, 2)
                assert tree.level[node] == 2
                assert z in tree.members[node]

    def test_tie_breaks_to_smallest_node(self):
        coords = np.arange(5, dtype=float)
        d = np.abs(coords[:, None] - coords[None, :])
        sp = FiniteMetricSpace(d, tuple(f"x{i}" for i in range(5)))
        lvl = ColoredCovering(sp, (
            Family(sp, (sp.subset([0, 1, 2]), sp.subset([2, 3, 4]))),
        ))
        seq = CharSequence(sp, 0.5, (lvl,), 0.1, 0.1, 0.0, {})
        tree = build_tree(seq, 0)
        # point 2 sits in both members; the first node wins the argmin
        assert embed_point(tree, 2, 1) == min(
            np.flatnonzero(tree.level == 1))

    def test_same_point_level_gap(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        d = emb.all_pairs_dist
        for z in (0, 7, 19):
            i, k = grid.index(1, z), grid.index(3, z)
            assert d[i, k] == 2 * 2  # both trees walk the nested chain

    def test_product_dist_is_l1(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        rng = np.random.default_rng(8)
        for _ in range(100):
            i, k = rng.integers(0, grid.n_points, size=2)
            want = sum(t.dist(int(emb.table[i, a]), int(emb.table[k, a]))
                       for a, t in enumerate(small_trees))
            assert emb.product_dist(int(i), int(k)) == want
            assert emb.all_pairs_dist[i, k] == want

    def test_rejects_depth_mismatch(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 2)
        with pytest.raises(TreeError, match="depth"):
            embed_grid(small__seq, grid, small_trees)

    def test_rejects_foreign_space(self, small__seq, small_trees):
        other = generate("circle", n=32)
        grid = build_grid(other, 0.125, 3)
        with pytest.raises(TreeError, match="space"):
            embed_grid(small__seq, grid, small_trees)


class TestRadial:
    def test_passes_on_small_circle(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        report = radial_check(emb)
        assert report["failures"] == 0
        # each grid point at level j checks every target level i < j
        assert report["checks"] == 32 * (1 + 2 + 3)

    def test_deep_point_at_the_roots_fails(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        table = embed_grid(small__seq, grid, small_trees).table.copy()
        # a level-3 point sent to the root of both trees climbs no levels
        table[grid.index(3, 5)] = 0
        emb = ProductEmbedding(grid=grid, trees=small_trees, table=table)
        with pytest.raises(RadialCheckError, match=r"level=3\) reaches level 0"):
            radial_check(emb)


class TestRoughTriangle:
    def test_holds_on_tree_distances(self, small_trees):
        tree = small_trees[0]
        ap = tree.all_pairs_dist
        rng = np.random.default_rng(13)
        for _ in range(100):
            u, v, w = rng.integers(0, tree.n_nodes, size=3)
            p, q, t = int(ap[u, v]), int(ap[v, w]), int(ap[u, w])
            if t >= max(p, q):
                assert rough_triangle_bound(p, q, t)
