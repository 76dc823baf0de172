"""Rooted trees over a separated ladder and the product embedding."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conetrees import (
    CharSequence,
    ColoredCovering,
    Family,
    FiniteMetricSpace,
    PipelineConfig,
    ProductEmbedding,
    RadialCheckError,
    RootedTree,
    TreeError,
    build_base,
    build_grid,
    build_tree,
    embed_grid,
    radial_check,
    run_pipeline,
    separate,
    tree_embed,
)
from conetrees.harness import generate


@pytest.fixture(scope="module")
def small__seq():
    sp = generate("circle", n=32)
    return separate(build_base(sp, r=0.125, depth=3, colors=2))


@pytest.fixture(scope="module")
def small_trees(small__seq):
    return tuple(build_tree(small__seq, a) for a in (0, 1))


def embed_point(tree, z, j):
    """embed_grid's node for one grid point, by a scan: the node at tree
    level j nearest to z, ties to the smallest node id."""
    if j == 0:
        return 0
    ids = tree.nodes_at_level(j)
    if ids.size == 0:
        raise TreeError(f"tree has no nodes at level {j}")
    best, best_d = -1, np.inf
    for nid in ids:
        d = float(tree.space.dist[z, tree.members[nid]].min())
        if d < best_d:
            best, best_d = int(nid), d
    return best


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


def parent_walk_hops(tree, u, i):
    """Parent hops from node u until the level drops to i or below."""
    hops, node = 0, u
    while tree.level[node] > i:
        node = tree.parent[node]
        hops += 1
    return hops


class TestTreeStructure:
    def test_root(self, small_trees):
        for tree in small_trees:
            assert tree.level[0] == 0
            assert tree.parent[0] == -1
            assert tree.members[0].tolist() == list(range(32))

    def test_parent_levels_decrease(self, small_trees):
        for tree in small_trees:
            for u in range(1, tree.n_nodes):
                assert tree.level[tree.parent[u]] < tree.level[u]

    def test_containment(self, small_trees):
        for tree in small_trees:
            for u in range(1, tree.n_nodes):
                assert (set(tree.members[u].tolist())
                        <= set(tree.members[tree.parent[u]].tolist()))

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
            for c in np.flatnonzero(tree.parent == u):
                assert c not in seen
                seen.add(c)
        assert seen == set(range(1, tree.n_nodes))

    def test_validate_passes(self, small_trees):
        for tree in small_trees:
            tree.validate()
            assert scalar_validate(tree) is None

    def test_all_pairs_matches_scalar(self, small_trees):
        for tree in small_trees:
            ap = tree.all_pairs_dist
            assert ap.shape == (tree.n_nodes, tree.n_nodes)
            for u in range(tree.n_nodes):
                for v in range(tree.n_nodes):
                    assert ap[u, v] == brute_tree_dist(tree, u, v)


def scalar_validate(tree):
    """`RootedTree.validate`'s node checks one node at a time, on sets:
    the message of the first node whose parent is invalid, not lower in
    level, or not a superset of it, or whose member is empty; None if every
    node passes."""
    members = [set(u.tolist()) for u in tree.members]
    for u in range(1, tree.n_nodes):
        p = int(tree.parent[u])
        if not 0 <= p < tree.n_nodes:
            return f"node {u} has invalid parent {p}"
        if tree.level[p] >= tree.level[u]:
            return f"node {u} does not descend in level"
        if not members[u] <= members[p]:
            return f"node {u} is not contained in its parent"
        if not members[u]:
            return f"node {u} has an empty member"
    return None


def tampered(tree, seed):
    """A copy of the tree with a few parents or members changed at random:
    a parent out of range or at the same level, or a member with a point
    added, removed or emptied."""
    rng = np.random.default_rng(seed)
    parent = tree.parent.copy()
    members = [u.tolist() for u in tree.members]
    n = tree.space.n
    for _ in range(int(rng.integers(1, 4))):
        u = int(rng.integers(1, tree.n_nodes))
        how = int(rng.integers(0, 6))
        if how == 0:
            parent[u] = rng.choice([-1, tree.n_nodes, -5])
        elif how == 1:
            parent[u] = u
        elif how == 2:
            members[u] = sorted(set(members[u]) | {int(rng.integers(n))})
        elif how == 3 and len(members[u]) > 1:
            members[u] = members[u][1:]
        elif how == 4:
            members[u] = []
        else:
            members[u] = list(range(n))
    sizes = [len(m) for m in members]
    fam = Family._of(tree.space, np.cumsum([0] + sizes),
                  np.array([x for m in members for x in m], dtype=np.intp))
    return dataclasses.replace(tree, parent=parent, members=fam)


def skipping_tree():
    """Color 0 of a hand-built ladder on 10 line points.  {4} at level 3
    skips level 2 to hang under {4,5,6}; {7,8} at level 2 and {9} at level
    3 hang directly under the root.  Color 1 is all singletons, so that
    every level covers the space."""
    coords = np.arange(10, dtype=float)
    d = np.abs(coords[:, None] - coords[None, :])
    sp = FiniteMetricSpace(d, tuple(f"x{i}" for i in range(10)))
    singles = Family(sp, tuple([i] for i in range(10)))

    def level(*members):
        return ColoredCovering(sp, (
            Family(sp, tuple(m for m in members)), singles))

    seq = CharSequence(sp, 0.5, (
        level([0, 1, 2, 3], [4, 5, 6]),
        level([0, 1], [7, 8]),
        level([0], [4], [8], [9]),
    ))
    return build_tree(seq, 0)


class TestValidate:
    def test_refuses_node_outside_its_parent(self):
        sp = FiniteMetricSpace(np.abs(np.arange(3.0)[:, None]
                                      - np.arange(3.0)[None, :]),
                               ("a", "b", "c"))
        tree = RootedTree(
            space=sp, color=0, depth=2, level=np.array([0, 1, 2, 2]),
            parent=np.array([-1, 0, 1, 1]),
            members=Family(sp, (range(3), [0, 1], [1], [1, 2])),
            refs=((0, -1), (1, 0), (2, 0), (2, 1)))
        with pytest.raises(TreeError,
                           match="^node 3 is not contained in its parent$"):
            tree.validate()

    def test_tampered_trees_get_the_scalar_verdict(self, small_trees):
        verdicts = []
        for tree in (*small_trees, skipping_tree()):
            for seed in range(40):
                bad = tampered(tree, seed)
                want = scalar_validate(bad)
                if want is None:
                    bad.validate()
                else:
                    with pytest.raises(TreeError) as err:
                        bad.validate()
                    assert str(err.value) == want
                verdicts.append(want)
        # every check refuses some tree, and some tampered tree passes
        faults = ("has invalid parent", "does not descend in level",
                  "is not contained in its parent", "has an empty member")
        for fault in faults:
            assert sum(fault in (v or "") for v in verdicts) >= 3, fault
        assert None in verdicts


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

    def test_level_order_is_required(self):
        # a level-2 node numbered before the level-1 node it hangs under
        sp = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
        tree = RootedTree(
            space=sp, color=0, depth=2, level=np.array([0, 2, 1]),
            parent=np.array([-1, 2, 0]),
            members=Family(sp, ([0, 1], [0], [0, 1])),
            refs=((0, -1), (2, 0), (1, 0)))
        with pytest.raises(TreeError, match="level order"):
            tree.validate()
        with pytest.raises(TreeError, match="level order"):
            tree.all_pairs_dist

    def test_radial_matches_parent_walk_with_skips(self):
        # radial_check's hop counts, read off the ancestor table, against
        # the parent walk, on chains that skip levels
        tree = skipping_tree()
        grid = build_grid(tree.space, 0.5, tree.depth)
        failed = 0
        for seed in range(20):
            table = random_table(grid, (tree, tree), seed)
            # every node of the tree, at every grid level, in both columns
            nodes = np.arange(grid.n_points) % tree.n_nodes
            table[:, seed % 2] = nodes
            emb = ProductEmbedding(grid=grid, trees=(tree, tree), table=table)
            want = outcome(scalar_radial_check, emb)
            assert outcome(radial_check, emb) == want
            failed += isinstance(want, str)
        assert 0 < failed < 20  # both outcomes are exercised


def scalar_parents(seq, color):
    """The parent rule one node at a time: the member at the greatest lower
    level that contains the node, the root if none does.  Returns the
    parent list, or the ambiguity message of the first node that fits
    several members at its level."""
    nodes = [(0, frozenset(range(seq.space.n)))]
    for j in range(1, seq.depth + 1):
        nodes += [(j, frozenset(u.tolist())) for u in seq.level(j).colors[color]]
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
    singles = Family(sp, tuple([i] for i in range(10)))
    return CharSequence(sp, 0.5, tuple(
        ColoredCovering(sp, (Family(sp, tuple(m for m in members)),
                             singles))
        for members in levels))


class TestParentsAgainstScalar:
    def test_built_ladders(self, small__seq):
        cascade = separate(build_base(generate("random_circle", n=60, seed=0),
                                      r=0.25, depth=3, colors=2))
        # the generic_greedy builder needs 6 colors at level 1 here
        sp = generate("interval", n=120)
        greedy = separate(build_base(FiniteMetricSpace(sp.dist, sp.point_ids),
                                     r=0.125, depth=2, colors=6))
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
            Family(sp, (range(0, 7), range(4, 10))),
        ))
        lvl2 = ColoredCovering(sp, (
            Family(sp, tuple([i] for i in range(10))),
        ))
        seq = CharSequence(sp, 0.5, (lvl1, lvl2))
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
            Family(sp, ([0, 1, 2], [2, 3, 4])),
        ))
        seq = CharSequence(sp, 0.5, (lvl,))
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
            want = sum(brute_tree_dist(t, emb.table[i, a], emb.table[k, a])
                       for a, t in enumerate(small_trees))
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
            steps = max(parent_walk_hops(tree, emb.table[idx, a], i)
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

    def test_one_nearest_member_pass_per_family(self, monkeypatch):
        # flagship's ladder: every level holds one family in both colors
        sp = generate("circle", n=192)
        seq = separate(build_base(sp, r=0.125, depth=4, colors=2))
        trees = tuple(build_tree(seq, a) for a in (0, 1))
        grid = build_grid(sp, 0.125, 4)
        expected = per_tree_table(seq, grid, trees)
        calls = []
        dist_rows = Family.dist_rows

        def counting(fam):
            calls.append(id(fam))
            return dist_rows(fam)

        monkeypatch.setattr(Family, "dist_rows", counting)
        table = embed_grid(seq, grid, trees).table
        assert np.array_equal(table, expected)
        families = [len({id(f) for f in cov.colors}) for cov in seq.levels]
        assert families == [1, 1, 1, 1]
        assert len(calls) == sum(families)


def per_tree_table(seq, grid, trees):
    """embed_grid's table with every tree deriving each level's nearest
    members itself, shared family or not."""
    table = np.zeros((grid.n_points, len(trees)), dtype=np.int64)
    for a, tree in enumerate(trees):
        for j in range(1, grid.depth + 1):
            rows = seq.level(j).colors[tree.color].dist_rows()
            lo = grid.index(j, 0)
            table[lo: lo + seq.space.n, a] = \
                tree.nodes_at_level(j)[rows.argmin(axis=0)]
    return table


def reference_tree_pairs(tree):
    """RootedTree.all_pairs_dist as first written: int64 ancestor columns
    and out-of-place arithmetic."""
    anc = tree.ancestors
    lca = np.zeros((tree.n_nodes, tree.n_nodes), dtype=np.int16)
    match = np.empty(lca.shape, dtype=bool)
    for lvl in range(1, tree.depth + 1):
        col = anc[:, lvl]
        np.equal(col[:, None], np.where(col < 0, -2, col)[None, :], out=match)
        np.copyto(lca, lvl, where=match)
    lv = tree.level.astype(np.int16)
    return lv[:, None] + lv[None, :] - 2 * lca


def reference_product_pairs(emb):
    """ProductEmbedding.all_pairs_dist as first written: an np.ix_ gather
    and an int32 copy per tree."""
    n = emb.grid.n_points
    out = np.zeros((n, n), dtype=np.int32)
    for a, t in enumerate(emb.trees):
        col = emb.table[:, a]
        out += t.all_pairs_dist[np.ix_(col, col)].astype(np.int32)
    return out


def traced_peak(kernel):
    """The tracemalloc peak, in bytes, of kernel() and the result it
    returns."""
    tracemalloc.start()
    try:
        kernel()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_table(grid, trees, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, t.n_nodes, grid.n_points)
                     for t in trees], axis=1)


PIPELINE_LADDERS = pytest.mark.parametrize("generator, params, depth", [
    ("circle", {"n": 32}, 3),       # under 128 nodes
    ("circle", {"n": 192}, 4),      # the flagship ladder
    ("circle", {"n": 40}, 12),      # many levels
    ("random_circle", {"n": 160, "seed": 0}, 3),  # every level built
    ("cantor", {"depth": 7}, 4),    # the component-level builder
    ("tree_boundary", {"depth": 7}, 4),
])


def pipeline_ladder(generator, params, depth):
    return separate(build_base(generate(generator, **params), r=0.125,
                               depth=depth, colors=2))


class TestPairKernelsAgainstReference:
    @PIPELINE_LADDERS
    def test_pipeline_ladders(self, generator, params, depth):
        seq = pipeline_ladder(generator, params, depth)
        trees = tuple(build_tree(seq, a) for a in range(2))
        for tree in trees:
            got = tree.all_pairs_dist
            assert got.dtype == np.int16
            assert np.array_equal(got, reference_tree_pairs(tree))
        emb = embed_grid(seq, build_grid(seq.space, 0.125, depth), trees)
        got = emb.all_pairs_dist
        assert got.dtype == np.int32
        assert np.array_equal(got, reference_product_pairs(emb))

    def test_pipeline_releases_the_product_matrix(self):
        # nothing reads it after the QI fit; a fresh read derives it again
        res = run_pipeline(PipelineConfig(
            generator="random_circle", params={"n": 160, "seed": 0}, depth=3))
        emb = res.embedding
        assert "all_pairs_dist" not in emb.__dict__
        assert np.array_equal(emb.all_pairs_dist, reference_product_pairs(emb))

    def test_skipped_levels(self):
        tree = skipping_tree()
        assert np.array_equal(tree.all_pairs_dist, reference_tree_pairs(tree))

    def test_perturbed_tables(self, small__seq, small_trees):
        grid = build_grid(small__seq.space, 0.125, 3)
        emb = embed_grid(small__seq, grid, small_trees)
        rng = np.random.default_rng(12)
        for _ in range(5):
            table = np.stack([rng.integers(0, t.n_nodes, grid.n_points)
                              for t in small_trees], axis=1)
            other = ProductEmbedding(grid=grid, trees=small_trees, table=table)
            assert np.array_equal(other.all_pairs_dist,
                                  reference_product_pairs(other))

    @pytest.mark.parametrize("rows", ["one", "mid_level", "whole"])
    def test_product_row_blocks(self, monkeypatch, small__seq, small_trees,
                                rows):
        # the small ladder is all singletons, so both table columns are the
        # identity; the identity goes to tree 0 and a random column to tree
        # 1, and the skipping tree's grid has no identity column at all
        grid = build_grid(small__seq.space, 0.125, 3)
        n_points = grid.n_points
        assert np.array_equal(embed_grid(small__seq, grid, small_trees).table,
                              np.stack([np.arange(n_points)] * 2, axis=1))
        # 7-row blocks start at rows 0, 7, ..., so most split a level of 32
        entries = {"one": 1, "mid_level": 7 * n_points,
                   "whole": n_points * n_points}[rows]
        monkeypatch.setattr(tree_embed, "BLOCK_ENTRIES", entries)
        table = random_table(grid, small_trees, 5)
        table[:, 0] = np.arange(n_points)
        mixed = ProductEmbedding(grid=grid, trees=small_trees, table=table)
        skipping = skipping_tree()
        skip_grid = build_grid(skipping.space, 0.5, 3)
        skip_emb = ProductEmbedding(
            grid=skip_grid, trees=(skipping, skipping),
            table=random_table(skip_grid, (skipping, skipping), 6))
        for emb in (mixed, skip_emb):
            assert np.array_equal(emb.all_pairs_dist,
                                  reference_product_pairs(emb))

    @pytest.mark.parametrize("rows", ["one", "mid_level", "default"])
    @PIPELINE_LADDERS
    def test_tree_row_blocks(self, monkeypatch, generator, params, depth,
                             rows):
        # 3-row blocks split every level of more than three nodes, the
        # skipping tree's level 3 among them
        trees = [*(build_tree(pipeline_ladder(generator, params, depth), a)
                   for a in range(2)), skipping_tree()]
        for tree in trees:
            if rows != "default":
                monkeypatch.setattr(tree_embed, "BLOCK_ENTRIES",
                                    {"one": 1, "mid_level": 3}[rows]
                                    * tree.n_nodes)
            got = tree.all_pairs_dist
            assert got.dtype == np.int16
            assert np.array_equal(got, reference_tree_pairs(tree))

    def test_tree_kernel_holds_its_result_and_one_row_block(self,
                                                            monkeypatch):
        seq = separate(build_base(generate("circle", n=192), r=0.125,
                                  depth=4, colors=2))
        tree = build_tree(seq, 0)
        n, rows = tree.n_nodes, 16
        monkeypatch.setattr(tree_embed, "BLOCK_ENTRIES", rows * n)
        # int16 result, one gathered int16 row block, and O(n) columns (the
        # ancestor table among them); an (n - 1)^2 bool buffer is over it
        bound = 2 * n * n + 2 * rows * n + 64 * n + (1 << 16)
        assert bound < 2 * n * n + (n - 1) ** 2
        assert traced_peak(lambda: tree.all_pairs_dist) <= bound
        assert np.array_equal(tree.all_pairs_dist, reference_tree_pairs(tree))

    @pytest.mark.parametrize("identity", [True, False])
    def test_product_holds_its_result_and_one_block(self, monkeypatch,
                                                    identity):
        seq = separate(build_base(generate("circle", n=192), r=0.125,
                                  depth=4, colors=2))
        trees = tuple(build_tree(seq, a) for a in range(2))
        for tree in trees:
            tree.all_pairs_dist
        grid = build_grid(seq.space, 0.125, 4)
        table = (embed_grid(seq, grid, trees).table if identity
                 else random_table(grid, trees, 7))
        emb = ProductEmbedding(grid=grid, trees=trees, table=table)
        n_points, rows = grid.n_points, 16
        monkeypatch.setattr(tree_embed, "BLOCK_ENTRIES", rows * n_points)
        # int32 result; a block is the gathered rows, then their columns
        block = 0 if identity else 2 * rows * (trees[0].n_nodes + n_points)
        bound = 4 * n_points * n_points + block + 64 * n_points + (1 << 16)
        assert traced_peak(lambda: emb.all_pairs_dist) <= bound
        assert np.array_equal(emb.all_pairs_dist, reference_product_pairs(emb))
