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


def scalar_parents(seq, color):
    """The parent rule one node at a time: the member at the greatest lower
    level that contains the node, the root if none does.  Returns the
    parent list, or the ambiguity message of the first node that fits
    several members at its level."""
    nodes = [(0, frozenset(range(seq.space.n)))]
    for j in range(1, seq.depth + 1):
        nodes += [(j, u.indices) for u in seq.level(j).colors[color]]
    parent = [-1]
    for j, mem in nodes[1:]:
        chosen = 0
        for jc in range(j - 1, 0, -1):
            cands = [c for c, (lc, m) in enumerate(nodes) if lc == jc and mem <= m]
            if len(cands) > 1:
                first = min(c for c, (lc, _) in enumerate(nodes) if lc == j)
                return (f"ambiguous containment at level {j} color {color}: "
                        f"member {len(parent) - first} fits {len(cands)} "
                        f"level-{jc} members")
            if cands:
                chosen = cands[0]
                break
        parent.append(chosen)
    return parent


def built_parents(seq, color):
    try:
        return build_tree(seq, color).parent.tolist()
    except TreeError as e:
        return str(e)


def line_ladder(*levels):
    """Ladder on 10 line points: color 0 as given per level, color 1 all
    singletons so that every level covers."""
    coords = np.arange(10, dtype=float)
    sp = FiniteMetricSpace(np.abs(coords[:, None] - coords[None, :]),
                           tuple(f"x{i}" for i in range(10)))
    singles = Family(sp, tuple(sp.subset([i]) for i in range(10)))
    return CharSequence(sp, 0.5, tuple(
        ColoredCovering(sp, (Family(sp, tuple(sp.subset(m) for m in members)),
                             singles))
        for members in levels), 0.1, 0.1, 0.0, {})


class TestParentsAgainstScalar:
    def test_built_ladders(self, small__seq):
        cascade = separate(build_base(generate("random_circle", n=60, seed=0),
                                      r=0.25, depth=3, colors=2))
        greedy = separate(build_base(generate("interval", n=120), r=0.125,
                                     depth=2, colors=5, strategy="generic_greedy",
                                     allow_more_colors=True))
        for seq in (small__seq, cascade, greedy):
            for a in range(seq.n_colors):
                assert built_parents(seq, a) == scalar_parents(seq, a)

    def test_skipped_levels(self):
        seq = line_ladder([[0, 1, 2, 3], [4, 5, 6]], [[0, 1], [7, 8]],
                          [[0], [4], [8], [9]])
        assert built_parents(seq, 0) == scalar_parents(seq, 0)

    def test_first_ambiguous_node_is_reported(self):
        # {4} at level 3 fits both level-1 members; {6}, a later node, fits
        # both of its level-2 supersets, which a level-by-level scan meets first
        seq = line_ladder([range(0, 5), range(4, 10)], [[0, 1], [5, 6], [6, 7]],
                          [[4], [6]])
        want = scalar_parents(seq, 0)
        assert want == ("ambiguous containment at level 3 color 0: "
                        "member 0 fits 2 level-1 members")
        assert built_parents(seq, 0) == want


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


def scalar_radial_check(emb):
    """The climb test one (grid point, target level) at a time."""
    m = emb.n_trees
    checks, max_m = 0, 0
    for idx in range(1, emb.grid.n_points):
        j = int(emb.grid.point_level[idx])
        z = int(emb.grid.point_z[idx])
        for i in range(j):
            steps = max(tree.steps_to_level(int(emb.table[idx, a]), i)
                        for a, tree in enumerate(emb.trees))
            checks += 1
            max_m = max(max_m, steps)
            if m * (steps + 1) < j - i + 1:
                raise RadialCheckError(
                    f"grid point (z={z}, level={j}) reaches level {i} in "
                    f"{steps} hops: {m}*({steps}+1) < {j - i + 1}"
                )
    return {"checks": checks, "max_steps": max_m, "failures": 0}


def outcome(check, emb):
    try:
        return check(emb)
    except RadialCheckError as e:
        return str(e)


class TestRadialAgainstScalar:
    def test_embedded_grid(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        assert radial_check(emb) == scalar_radial_check(emb)

    def test_perturbed_tables(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        base = embed_grid(small__seq, grid, small_trees).table
        rng = np.random.default_rng(3)
        failed = 0
        for trial in range(30):
            table = base.copy()
            rows = rng.integers(1, grid.n_points, size=trial % 4)
            for a, tree in enumerate(small_trees):
                table[rows, a] = rng.integers(0, tree.n_nodes, size=rows.size)
            emb = ProductEmbedding(grid=grid, trees=small_trees, table=table)
            want = outcome(scalar_radial_check, emb)
            assert outcome(radial_check, emb) == want
            failed += isinstance(want, str)
        assert 0 < failed < 30  # both outcomes are exercised

    def test_deep_ladder(self):
        sp = generate("circle", n=24)
        seq = separate(build_base(sp, r=0.125, depth=6, colors=2))
        trees = tuple(build_tree(seq, a) for a in (0, 1))
        emb = embed_grid(seq, build_grid(sp, 0.125, 6), trees)
        assert radial_check(emb) == scalar_radial_check(emb)


class TestEmbedAgainstScalar:
    def test_table_matches_embed_point(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        for idx in range(1, grid.n_points):
            z, j = int(grid.point_z[idx]), int(grid.point_level[idx])
            for a, tree in enumerate(small_trees):
                assert emb.table[idx, a] == embed_point(tree, z, j)

    def test_cascade_ladder(self):
        sp = generate("random_circle", n=60, seed=0)
        seq = separate(build_base(sp, r=0.25, depth=3, colors=2))
        trees = tuple(build_tree(seq, a) for a in (0, 1))
        grid = build_grid(sp, 0.25, 3)
        table = embed_grid(seq, grid, trees).table
        for idx in range(1, grid.n_points):
            z, j = int(grid.point_z[idx]), int(grid.point_level[idx])
            for a, tree in enumerate(trees):
                assert table[idx, a] == embed_point(tree, z, j)


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
