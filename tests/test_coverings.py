"""Families of subsets: mesh, multiplicity, Lebesgue number, separation,
erosion, and the member-merging operation."""

import tracemalloc

import numpy as np
import pytest

from conetrees import (ColoredCovering, CoveringError, Family, build_base,
                       separate)
from conetrees.char_seq import _measure
from conetrees.coverings import _rows_family
from conetrees.harness import GENERATORS, generate
from setcalc import dist_sets, dist_to, hood, is_r_disjoint, r_multiplicity


def overlap(fam, r):
    """Max over points of how many of the members' open signed-radius r
    neighborhoods, `Family.hoods`, hold it."""
    return int(fam.hoods(r).sum(axis=0).max(initial=0))


def as_lists(fam):
    """The family's members, each as a list of its points in order."""
    return [u.tolist() for u in fam]


def covers(fam):
    return np.unique(fam.indices).size == fam.space.n


def separation(fam):
    """Min distance between distinct members, as the ladder measures it."""
    return fam._separation(fam.dist_rows())


def multiplicity(fam):
    """Most members holding one point, as the covering of fam counts it."""
    return ColoredCovering(fam.space, (fam,)).multiplicity()


def net_radius(fam):
    """fam's net radius as the ladder measures it, beside the whole space."""
    level = ColoredCovering(fam.space, (fam, Family(fam.space, (range(fam.space.n),))))
    return _measure((level,), 0.5, margins=False)["levels"][0]["net_radius"]


def line_space(n=11, spacing=1.0):
    from conetrees import FiniteMetricSpace
    coords = np.arange(n) * spacing
    d = np.abs(coords[:, None] - coords[None, :]).astype(float)
    return FiniteMetricSpace(d, tuple(f"x{i}" for i in range(n)))


@pytest.fixture(scope="module")
def arc_cover():
    """80 points on a circumference-8 circle, four arcs of length 3 with
    pairwise overlap 1: [0,3], [2,5], [4,7], [6,1]."""
    sp = generate("circle", n=80, circumference=8.0)
    pos = np.arange(80) * 0.1

    def arc(lo, hi):
        if lo <= hi:
            idx = np.where((pos >= lo - 1e-12) & (pos <= hi + 1e-12))[0]
        else:
            idx = np.where((pos >= lo - 1e-12) | (pos <= hi + 1e-12))[0]
        return idx

    fam = Family(sp, (arc(0, 3), arc(2, 5), arc(4, 7), arc(6, 1)))
    return sp, fam


class TestFamilyBasics:
    def test_whole_space_family(self):
        sp = line_space(11)
        fam = Family(sp, (range(sp.n),))
        assert fam.mesh == 10.0
        assert covers(fam)
        assert multiplicity(fam) == 1
        # the single member has no complement, so every point is infinitely deep
        assert fam.lebesgue() == 10.0

    def test_singleton_family(self):
        sp = line_space(5)
        fam = Family(sp, tuple([i] for i in range(5)))
        assert fam.mesh == 0.0
        assert covers(fam)
        assert fam.lebesgue() == 0.0
        assert separation(fam) == 1.0

    def test_empty_member_rejected(self):
        sp = line_space(5)
        with pytest.raises(CoveringError, match="empty"):
            Family(sp, ([0], []))

    def test_non_covering(self):
        sp = line_space(5)
        fam = Family(sp, ([0, 1],))
        assert not covers(fam)
        assert fam.lebesgue() == 0.0

    def test_multiplicity_counts_overlaps(self):
        sp = line_space(10)
        fam = Family(sp, (range(6), range(4, 10), range(5, 7)))
        # points 5 lies in all three members
        assert multiplicity(fam) == 3

    def test_r_multiplicity_grows_with_r(self):
        sp = line_space(10)
        fam = Family(sp, (range(5), range(5, 10)))
        assert multiplicity(fam) == overlap(fam, 0.0) == 1
        assert overlap(fam, 0.5) == r_multiplicity(sp, fam, 0.5) == 1
        # open 1.5-neighborhoods overlap across the split
        assert overlap(fam, 1.5) == r_multiplicity(sp, fam, 1.5) == 2


class TestArcCover:
    def test_mesh(self, arc_cover):
        _, fam = arc_cover
        assert fam.mesh == pytest.approx(3.0)

    def test_lebesgue(self, arc_cover):
        # worst points sit at overlap midpoints, depth 0.6
        _, fam = arc_cover
        assert fam.lebesgue() == pytest.approx(0.6)

    def test_multiplicity(self, arc_cover):
        _, fam = arc_cover
        assert multiplicity(fam) == 2
        assert overlap(fam, 0.1) == 2

    def test_shrink_still_covers(self, arc_cover):
        _, fam = arc_cover
        # erosion by 0.4, below the Lebesgue number 0.6
        shrunk = fam.eroded(0.4)
        assert covers(shrunk)
        assert len(shrunk.members) == 4
        # multiplicity of grown-back members does not exceed the original
        assert overlap(shrunk, 0.4) <= multiplicity(fam)

    def test_shrink_member_extents(self, arc_cover):
        sp, fam = arc_cover
        shrunk = fam.eroded(0.4)
        pos = np.arange(80) * 0.1
        first = shrunk.members[0].tolist()
        # [0, 3] erodes to [0.4, 2.6]
        assert pos[first[0]] == pytest.approx(0.4)
        assert pos[first[-1]] == pytest.approx(2.6)

    def test_shrink_derives_depths_once(self, arc_cover, monkeypatch):
        _, fam = arc_cover
        want = as_lists(fam.eroded(0.4))
        reads = []
        depths = Family.depths

        def counting(self):
            reads.append(id(self))
            return depths.fget(self)

        monkeypatch.setattr(Family, "depths", property(counting))
        assert as_lists(fam.eroded(0.4)) == want
        assert reads == [id(fam)]

    def test_disjoint_pairs_become_s_disjoint(self, arc_cover):
        # arcs 0 and 2 are disjoint; after shrinking by s their open
        # s-neighborhoods stay inside the originals, hence stay disjoint
        sp, fam = arc_cover
        s = 0.4
        shrunk = fam.eroded(s)
        for i in (0, 2):
            assert hood(sp, shrunk[i], s) <= set(fam[i].tolist())
        sub = Family(sp, (shrunk.members[0], shrunk.members[2]))
        assert overlap(sub, s) == 1 and is_r_disjoint(sp, sub, s)
        assert separation(sub) >= 2 * s


class TestSeparation:
    def test_min_separation_singletons(self):
        sp = line_space(10)
        fam = Family(sp, ([0], [4], [9]))
        assert separation(fam) == 4.0

    def test_r_disjoint_is_stronger(self):
        sp = line_space(10)
        fam = Family(sp, ([0], [2]))
        # distance 2 >= 1.5, but point 1 lies within 1.5 of both
        assert separation(fam) >= 1.5
        assert overlap(fam, 1.5) == 2 and not is_r_disjoint(sp, fam, 1.5)
        assert overlap(fam, 1.0) == 1 and is_r_disjoint(sp, fam, 1.0)


class TestStarMerge:
    def test_absorbs_nearby_member(self):
        sp = line_space(25)
        cores = Family(sp, ([5],))
        fam = Family(sp, ([7], [20]))
        merged = cores.merged(fam.hoods(3.0), 3.0)
        assert as_lists(merged) == [list(range(3, 10))]

    def test_no_absorption_when_far(self):
        sp = line_space(25)
        cores = Family(sp, ([5],))
        fam = Family(sp, ([20],))
        merged = cores.merged(fam.hoods(2.0), 2.0)
        assert as_lists(merged) == [[4, 5, 6]]

    def test_rejects_nonpositive_radius(self):
        sp = line_space(5)
        fam = Family(sp, ([1],))
        for s in (0.0, -1.0):
            with pytest.raises(CoveringError, match="positive"):
                Family(sp, ([0],)).merged(fam.hoods(1.0), s)


class TestColoredCovering:
    def test_pooled_properties(self):
        sp = line_space(10)
        c0 = Family(sp, (range(6),))
        c1 = Family(sp, (range(4, 10),))
        cc = ColoredCovering(sp, (c0, c1))
        assert cc.mesh == 5.0
        assert cc.multiplicity() == 2
        assert covers(cc.pooled)

    def test_must_cover(self):
        sp = line_space(10)
        c0 = Family(sp, (range(3),))
        with pytest.raises(CoveringError, match="cover"):
            ColoredCovering(sp, (c0,))


# ---------------------------------------------------------------------------
# the two membership kernels against per-member loops


def brute_depths(fam):
    """Per-member loop: distance from each point to each member's complement."""
    n = fam.space.n
    rows = np.zeros((len(fam.members), n))
    full = frozenset(range(n))
    for i, u in enumerate(fam.members):
        comp = full - set(u.tolist())
        if comp:
            cols = np.fromiter(comp, dtype=int, count=len(comp))
            rows[i] = fam.space.dist[:, cols].min(axis=1)
        else:
            rows[i] = np.inf
    return rows


def brute_dist_rows(fam):
    """Per-member loop: distance from each point to each member."""
    rows = np.empty((len(fam.members), fam.space.n))
    for i, u in enumerate(fam.members):
        rows[i] = dist_to(fam.space, u)
    return rows


def brute_star_merge(core, fam, s):
    """Per-member loop: the points of ``core`` with every member of ``fam``
    whose open s-neighborhood meets its own, grown by s, in order."""
    sp = fam.space
    d_core = dist_to(sp, core)
    merged = set(core.tolist())
    for w in fam:
        if float(np.maximum(d_core, dist_to(sp, w)).min()) < s:
            merged |= set(w.tolist())
    return sorted(hood(sp, merged, s))


def pure_dist_rows(fam):
    """Pure-Python oracle: entry [i][x] is the min over y in member i of
    d[x, y], the point x first and the member's point second."""
    d = fam.space.dist.tolist()
    return [[min(d[x][y] for y in u.tolist()) for x in range(fam.space.n)]
            for u in fam]


LADDER_SPACES = {"circle": {"n": 96}, "interval": {"n": 60},
                 "cantor": {"depth": 6}, "tree_boundary": {"depth": 6},
                 "random_circle": {"n": 160, "seed": 0},
                 "visual_circle": {"n": 64}}


def random_space(rng, n, integer):
    """Points in the plane under the l1 metric; on an integer grid the
    distances tie often, so a member's depth is often reached at several
    points outside it."""
    from conetrees import FiniteMetricSpace
    if integer:
        pts = rng.choice(12 * 12, size=n, replace=False)
        x = np.stack([pts // 12, pts % 12], axis=1).astype(float)
    else:
        x = rng.random((n, 2))
    d = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2)
    return FiniteMetricSpace(d, tuple(f"x{i}" for i in range(n)))


def random_family(rng, sp, k, whole=False):
    """k random members: singletons, small and large sets, overlapping, and
    optionally one whole-space member at a random position."""
    members = []
    for _ in range(k):
        size = int(rng.choice([1, 2, max(1, sp.n // 3), max(1, sp.n - 1)]))
        members.append(rng.choice(sp.n, size=size, replace=False))
    if whole:
        members.insert(int(rng.integers(0, k + 1)), range(sp.n))
    return Family(sp, tuple(members))


def oracle_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for trial in range(24):
        sp = random_space(rng, int(rng.integers(2, 30)), integer=trial % 2 == 0)
        cases.append(random_family(rng, sp, int(rng.integers(1, 9)),
                                   whole=trial % 3 == 0))
    one = random_space(rng, 1, integer=False)
    cases.append(Family(one, (range(one.n),)))
    cases.append(Family(one, (range(one.n), range(one.n))))
    sp = line_space(9)
    cases.append(Family(sp, tuple([i] for i in range(9))))
    cases.append(Family(sp, ()))
    return cases


class TestKernelOracles:
    @pytest.mark.parametrize("fam", oracle_cases())
    def test_depths_and_dist_rows(self, fam):
        assert fam.depths.shape == fam.dist_rows().shape == (len(fam), fam.space.n)
        assert np.array_equal(fam.depths, brute_depths(fam))
        assert np.array_equal(fam.dist_rows(), brute_dist_rows(fam))

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_dist_rows_on_generator_ladders(self, kind):
        # every family of the base and the separated ladder: each color of
        # each level and its pool
        base = build_base(generate(kind, **LADDER_SPACES[kind]), r=0.125,
                          depth=3, colors=2)
        for seq in (base, separate(base)):
            for cov in seq.levels:
                for fam in (*cov.colors, cov.pooled):
                    assert fam.dist_rows().tolist() == pure_dist_rows(fam)
                    assert np.array_equal(fam.depths, brute_depths(fam))

    @pytest.mark.parametrize("space", [
        *(generate(kind, **LADDER_SPACES[kind]) for kind in GENERATORS),
        *dict.fromkeys(fam.space for fam in oracle_cases()),
    ])
    def test_min_gap_is_the_upper_triangle_minimum(self, space):
        upper = space.dist[np.triu_indices(space.n, k=1)]
        assert space.min_gap == (upper.min() if space.n > 1 else 0.0)

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_derived_quantities(self, fam):
        sp, members = fam.space, fam.members
        seps = [dist_sets(sp, u, v) for i, u in enumerate(members)
                for v in members[i + 1:]]
        assert separation(fam) == min(seps, default=np.inf)
        counts = np.zeros(sp.n, dtype=int)
        for u in members:
            counts[u] += 1
        if counts.all():  # a covering, whose multiplicity the pipeline counts
            assert multiplicity(fam) == counts.max()
        for r in (0.05, 0.3, 1.0, -0.2, 0.0):
            rows = fam.hoods(r)
            assert rows.shape == (len(fam), sp.n)
            for row, u in zip(rows, members):
                assert set(np.flatnonzero(row).tolist()) == hood(sp, u, r)
            assert overlap(fam, r) == r_multiplicity(sp, members, r)
        union = set().union(*(u.tolist() for u in members))
        net = dist_to(sp, union).max() if members else np.inf
        assert net_radius(fam) == net

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_mesh_is_the_gathered_maximum(self, fam):
        gathered = [float(fam.space.dist[np.ix_(u, u)].max()) for u in fam]
        assert fam.mesh == max(gathered, default=0.0)

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_whole_space_mesh_is_the_diameter(self, kind):
        sp = generate(kind, **LADDER_SPACES[kind])
        whole = np.arange(sp.n)
        gathered = float(sp.dist[np.ix_(whole, whole)].max())
        for members in ((whole,), ([0, 1], whole), (whole, [2])):
            assert Family(sp, members).mesh == gathered

    def test_whole_space_mesh_gathers_nothing(self):
        sp = generate("circle", n=2048)
        fam = Family(sp, (range(sp.n),))
        tracemalloc.start()
        try:
            mesh = fam.mesh
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh == float(sp.dist.max())
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_erosion_and_merge(self, fam):
        sp = fam.space
        rng = np.random.default_rng(len(fam) + sp.n)
        # on integer metrics s = 1 and 2 fall on distances, where < and <=
        # part ways
        for s in (0.01, 0.2, 0.7, 1.0, 2.0):
            want = [sorted(v) for v in (hood(sp, u, -s) for u in fam) if v]
            assert as_lists(fam.eroded(s)) == want
            core = Family(sp, (rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)),
                                          replace=False),))
            merged = core.merged(fam.hoods(s), s)
            assert as_lists(merged) == [brute_star_merge(core[0], fam, s)]

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_batched_merge(self, fam):
        sp = fam.space
        rng = np.random.default_rng(3 * len(fam) + sp.n)
        cores = Family(sp, tuple(
            rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)),
                       replace=False) for _ in range(4)))
        for s in (0.01, 0.2, 1.0, 2.0):
            got = cores.merged(fam.hoods(s), s)
            assert as_lists(got) == [brute_star_merge(core, fam, s)
                                     for core in cores]
        assert Family(sp, ()).merged(fam.hoods(1.0), 1.0).members == ()
        for s in (0.0, -1.0):
            with pytest.raises(CoveringError, match="positive"):
                cores.merged(fam.hoods(1.0), s)

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_singleton_member_min_is_reduceat(self, fam):
        singles = Family(fam.space, tuple([int(x)] for x in fam.indices))
        if not singles:
            return
        rng = np.random.default_rng(singles.space.n)
        for values in (rng.random((singles.space.n, 5)),
                       rng.random((singles.space.n, 3)) < 0.5,
                       singles.space.dist.T):
            want = np.minimum.reduceat(values[singles.indices],
                                       singles.indptr[:-1], axis=0)
            got = singles.member_min(values)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_shrink_matches_member_erosion(self, arc_cover):
        _, fam = arc_cover
        for s in (0.1, 0.35, 0.55):
            want = [sorted(hood(fam.space, u, -s)) for u in fam]
            assert as_lists(fam.eroded(s)) == [u for u in want if u]

    def test_empty_family_arrays(self):
        sp = line_space(4)
        fam = Family(sp, ())
        assert fam.indices.shape == (0,)
        assert fam.depths.shape == fam.dist_rows().shape == (0, 4)
        assert net_radius(fam) == np.inf
        assert not covers(fam)

    def test_csr_layout(self):
        sp = line_space(6)
        fam = Family(sp, ([4, 1], [0], range(sp.n)))
        assert fam.indptr.tolist() == [0, 2, 3, 9]
        # each member's points sorted
        assert fam.indices.tolist() == [1, 4, 0, 0, 1, 2, 3, 4, 5]
        for i, u in enumerate(fam):
            assert np.array_equal(fam.indices[fam.indptr[i]:fam.indptr[i + 1]], u)


# ---------------------------------------------------------------------------
# the Family contract: CSR arrays, checked once on construction


class TestFamilyContract:
    @pytest.mark.parametrize("members,match", [
        ([[0, -1]], r"outside 0\.\.4"),
        ([[5]], r"outside 0\.\.4"),
        ([[1], [2, 7]], r"outside 0\.\.4"),
        ([np.array([2**63], dtype=np.uint64)], r"outside 0\.\.4"),
        ([[1], []], "empty member"),
        ([range(0)], "empty member"),
        ([[0, 1], [2, 3, 2]], "repeats a point"),
        ([np.array([4, 4])], "repeats a point"),
        ([[0.5]], "flat collection of integers"),
        ([[True, False]], "flat collection of integers"),
        ([3], "flat collection of integers"),
        ([{1, 2}], "flat collection of integers"),
        ([[[1, 2]]], "flat collection of integers"),
    ])
    def test_refuses(self, members, match):
        with pytest.raises(CoveringError, match=match):
            Family(line_space(5), members)

    def test_every_input_form_gives_the_same_arrays(self):
        sp = line_space(8)
        want = [[2, 5, 6], [0], [1, 2, 3, 4]]
        base = Family(sp, want)
        for members in (
                [[6, 2, 5], [0], [4, 3, 2, 1]],
                ([2, 5, 6], range(1), range(1, 5)),
                [np.array([5, 6, 2]), np.array([0], np.int32),
                 np.arange(1, 5, dtype=np.uint8)],
                base.members,
                iter(base)):
            fam = Family(sp, members)
            assert fam.indptr.tolist() == [0, 3, 4, 8]
            assert fam.indices.dtype == np.intp
            assert np.array_equal(fam.indptr, base.indptr)
            assert np.array_equal(fam.indices, base.indices)
            assert as_lists(fam) == want

    def test_members_are_read_only_sorted_views(self):
        sp = line_space(6)
        fam = Family(sp, ([4, 1], [0], range(6)))
        assert len(fam) == 3
        assert [len(u) for u in fam.members] == [2, 1, 6]
        assert fam[0].tolist() == [1, 4]
        assert fam[-1].tolist() == list(range(6))
        for u in (*fam.members, fam[1], fam.indices):
            assert not u.flags.writeable
        with pytest.raises(IndexError):
            fam[3]
        assert Family(sp, ()).members == ()
        assert len(Family(sp, ())) == 0

    def test_members_are_np_split_pieces(self):
        # seeded oracle families and row families, the empty ones included
        rng = np.random.default_rng(17)
        fams = [*oracle_cases(), *(
            _rows_family(line_space(9), rng.random((k, 9)) < rng.random())
            for k in range(8))]
        assert any(len(f) == 0 for f in fams)
        for fam in fams:
            want = np.split(fam.indices, fam.indptr[1:-1]) if len(fam) else []
            got = fam.members
            assert isinstance(got, tuple) and len(got) == len(want)
            for u, v in zip(got, want):
                assert u.dtype == v.dtype and np.array_equal(u, v)
                assert not u.flags.writeable
                assert np.shares_memory(u, fam.indices)
            assert all(np.array_equal(u, v) for u, v in zip(fam, want))

    def test_part_is_a_family(self):
        sp = line_space(6)
        fam = Family(sp, ([4, 1], [0], range(6), [3]))
        for lo, hi in ((0, 4), (1, 3), (2, 2), (3, 4), (0, 0), (4, 4)):
            part = fam.part(lo, hi)
            assert isinstance(part, Family) and part.space is sp
            assert as_lists(part) == as_lists(fam)[lo:hi]
            assert part.indptr[0] == 0 and part.indptr[-1] == len(part.indices)

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_family_equals_constructor(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        rows = rng.random((int(rng.integers(0, 9)), n)) < rng.random()
        rows[rng.random(len(rows)) < 0.3] = False  # some rows empty
        sp = line_space(n)
        got = _rows_family(sp, rows)
        want = Family(sp, [np.flatnonzero(row) for row in rows if row.any()])
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert len(got) == int(rows.any(axis=1).sum())

    @pytest.mark.parametrize("kind,params,depth", [
        ("circle", {"n": 192}, 4), ("random_circle", {"n": 160, "seed": 0}, 3)],
        ids=["flagship", "cascade"])
    def test_bench_lebesgue_call_equals_pooled(self, kind, params, depth):
        # the benchmark rebuilds each pooled level from its members
        base = build_base(generate(kind, **params), r=0.125, depth=depth,
                          colors=2)
        built = 0
        for seq in (base, separate(base)):
            for cov in seq.levels:
                pooled = cov.pooled
                again = Family(seq.space, pooled.members)
                assert np.array_equal(again.indices, pooled.indices)
                assert again.lebesgue() == pooled.lebesgue() == cov.lebesgue()
                built += pooled.mesh > 0
        assert built >= (0 if kind == "circle" else 4)
