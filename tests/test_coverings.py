"""Families of subsets: mesh, multiplicity, Lebesgue number, shrinking, and
the member-merging operation."""

import numpy as np
import pytest

from conetrees import (ColoredCovering, CoveringError, Family, build_base,
                       separate)
from conetrees.harness import GENERATORS, generate


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
        return sp.subset(idx)

    fam = Family(sp, (arc(0, 3), arc(2, 5), arc(4, 7), arc(6, 1)))
    return sp, fam


class TestFamilyBasics:
    def test_whole_space_family(self):
        sp = line_space(11)
        fam = Family(sp, (sp.whole(),))
        assert fam.mesh == 10.0
        assert fam.covers()
        assert fam.multiplicity() == 1
        # the single member has no complement, so every point is infinitely deep
        assert fam.lebesgue() == 10.0
        assert fam.capacity() == 1.0

    def test_singleton_family(self):
        sp = line_space(5)
        fam = Family(sp, tuple(sp.subset([i]) for i in range(5)))
        assert fam.mesh == 0.0
        assert fam.covers()
        assert fam.lebesgue() == 0.0
        # mesh zero counts as perfectly fine by convention
        assert fam.capacity() == 1.0
        assert fam.min_separation() == 1.0

    def test_empty_member_rejected(self):
        sp = line_space(5)
        with pytest.raises(CoveringError, match="empty"):
            Family(sp, (sp.subset([0]), sp.subset([])))

    def test_non_covering(self):
        sp = line_space(5)
        fam = Family(sp, (sp.subset([0, 1]),))
        assert not fam.covers()
        assert fam.lebesgue() == 0.0

    def test_multiplicity_counts_overlaps(self):
        sp = line_space(10)
        fam = Family(sp, (sp.subset(range(6)), sp.subset(range(4, 10)),
                          sp.subset(range(5, 7))))
        # points 5 lies in all three members
        assert fam.multiplicity() == 3

    def test_r_multiplicity_grows_with_r(self):
        sp = line_space(10)
        fam = Family(sp, (sp.subset(range(5)), sp.subset(range(5, 10))))
        assert fam.multiplicity() == 1
        assert fam.r_multiplicity(0.5) == 1
        # open 1.5-neighborhoods overlap across the split
        assert fam.r_multiplicity(1.5) == 2


class TestArcCover:
    def test_mesh(self, arc_cover):
        _, fam = arc_cover
        assert fam.mesh == pytest.approx(3.0)

    def test_lebesgue(self, arc_cover):
        # worst points sit at overlap midpoints, depth 0.6
        _, fam = arc_cover
        assert fam.lebesgue() == pytest.approx(0.6)

    def test_capacity(self, arc_cover):
        _, fam = arc_cover
        assert fam.capacity() == pytest.approx(0.2)

    def test_multiplicity(self, arc_cover):
        _, fam = arc_cover
        assert fam.multiplicity() == 2
        assert fam.r_multiplicity(0.1) == 2

    def test_shrink_still_covers(self, arc_cover):
        _, fam = arc_cover
        shrunk = fam.shrink(0.4)
        assert shrunk.covers()
        assert len(shrunk.members) == 4
        # multiplicity of grown-back members does not exceed the original
        assert shrunk.r_multiplicity(0.4) <= fam.multiplicity()

    def test_shrink_member_extents(self, arc_cover):
        sp, fam = arc_cover
        shrunk = fam.shrink(0.4)
        pos = np.arange(80) * 0.1
        first = sorted(shrunk.members[0].indices)
        # [0, 3] erodes to [0.4, 2.6]
        assert pos[first[0]] == pytest.approx(0.4)
        assert pos[first[-1]] == pytest.approx(2.6)

    def test_shrink_above_lebesgue_rejected(self, arc_cover):
        _, fam = arc_cover
        with pytest.raises(CoveringError, match="Lebesgue"):
            fam.shrink(0.7)

    def test_shrink_derives_depths_once(self, arc_cover, monkeypatch):
        # one table serves both the Lebesgue bound and the erosion
        _, fam = arc_cover
        want = fam.shrink(0.4).members
        reads = []
        depths = Family.depths

        def counting(self):
            reads.append(id(self))
            return depths.fget(self)

        monkeypatch.setattr(Family, "depths", property(counting))
        assert fam.shrink(0.4).members == want
        assert reads == [id(fam)]
        with pytest.raises(CoveringError, match="Lebesgue"):
            Family(fam.space, ()).shrink(0.4)

    def test_disjoint_pairs_become_s_disjoint(self, arc_cover):
        # arcs 0 and 2 are disjoint; after shrinking by s their open
        # s-neighborhoods stay inside the originals, hence stay disjoint
        sp, fam = arc_cover
        s = 0.4
        shrunk = fam.shrink(s)
        for i in (0, 2):
            grown_back = shrunk.members[i].neighborhood(s)
            assert grown_back.indices <= fam.members[i].indices
        sub = Family(sp, (shrunk.members[0], shrunk.members[2]))
        assert sub.is_r_disjoint(s)
        assert sub.min_separation() >= 2 * s


class TestSeparation:
    def test_min_separation_singletons(self):
        sp = line_space(10)
        fam = Family(sp, (sp.subset([0]), sp.subset([4]), sp.subset([9])))
        assert fam.min_separation() == 4.0
        assert fam.is_separated(4.0)
        assert not fam.is_separated(4.1)

    def test_r_disjoint_is_stronger(self):
        sp = line_space(10)
        fam = Family(sp, (sp.subset([0]), sp.subset([2])))
        # distance 2 >= 1.5, but point 1 lies within 1.5 of both
        assert fam.is_separated(1.5)
        assert not fam.is_r_disjoint(1.5)
        assert fam.is_r_disjoint(1.0)


class TestStarMerge:
    def test_absorbs_nearby_member(self):
        sp = line_space(25)
        cores = Family(sp, (sp.subset([5]),))
        fam = Family(sp, (sp.subset([7]), sp.subset([20])))
        merged = cores.merged(fam.hoods(3.0), 3.0)
        assert [set(u.indices) for u in merged] == [set(range(3, 10))]

    def test_no_absorption_when_far(self):
        sp = line_space(25)
        cores = Family(sp, (sp.subset([5]),))
        fam = Family(sp, (sp.subset([20]),))
        merged = cores.merged(fam.hoods(2.0), 2.0)
        assert [set(u.indices) for u in merged] == [{4, 5, 6}]

    def test_rejects_nonpositive_radius(self):
        sp = line_space(5)
        fam = Family(sp, (sp.subset([1]),))
        for s in (0.0, -1.0):
            with pytest.raises(CoveringError, match="positive"):
                Family(sp, (sp.subset([0]),)).merged(fam.hoods(1.0), s)


class TestColoredCovering:
    def test_pooled_properties(self):
        sp = line_space(10)
        c0 = Family(sp, (sp.subset(range(6)),))
        c1 = Family(sp, (sp.subset(range(4, 10)),))
        cc = ColoredCovering(sp, (c0, c1))
        assert cc.mesh == 5.0
        assert cc.multiplicity() == 2
        assert cc.pooled.covers()

    def test_must_cover(self):
        sp = line_space(10)
        c0 = Family(sp, (sp.subset(range(3)),))
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
        comp = full - u.indices
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
        rows[i] = u.dist_to_points()
    return rows


def brute_star_merge(core, fam, s):
    """Per-member loop: ``core`` with every member of ``fam`` whose open
    s-neighborhood meets its own, grown by s."""
    d_core = core.dist_to_points()
    merged = set(core.indices)
    for w in fam:
        if float(np.maximum(d_core, w.dist_to_points()).min()) < s:
            merged |= w.indices
    return core.space.subset(merged).neighborhood(s)


def pure_dist_rows(fam):
    """Pure-Python oracle: entry [i][x] is the min over y in member i of
    d[x, y], the point x first and the member's point second."""
    d = fam.space.dist.tolist()
    return [[min(d[x][y] for y in u.indices) for x in range(fam.space.n)]
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
        members.append(sp.subset(rng.choice(sp.n, size=size, replace=False)))
    if whole:
        members.insert(int(rng.integers(0, k + 1)), sp.whole())
    return Family(sp, tuple(members))


def oracle_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for trial in range(24):
        sp = random_space(rng, int(rng.integers(2, 30)), integer=trial % 2 == 0)
        cases.append(random_family(rng, sp, int(rng.integers(1, 9)),
                                   whole=trial % 3 == 0))
    one = random_space(rng, 1, integer=False)
    cases.append(Family(one, (one.whole(),)))
    cases.append(Family(one, (one.whole(), one.whole())))
    sp = line_space(9)
    cases.append(Family(sp, tuple(sp.subset([i]) for i in range(9))))
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
        seps = [u.dist_sets(v) for i, u in enumerate(members)
                for v in members[i + 1:]]
        assert fam.min_separation() == min(seps, default=np.inf)
        counts = np.zeros(sp.n, dtype=int)
        for u in members:
            counts[list(u.indices)] += 1
        assert fam.multiplicity() == counts.max()
        assert fam.union_size() == np.count_nonzero(counts)
        for r in (0.05, 0.3, 1.0, -0.2):
            hoods = np.zeros(sp.n, dtype=int)
            for u in members:
                hoods[list(u.neighborhood(r).indices)] += 1
            assert fam.r_multiplicity(r) == hoods.max()
            assert fam.is_r_disjoint(r) == (r <= 0 or hoods.max() <= 1)
        union = sp.subset(set().union(*(u.indices for u in members)))
        net = union.dist_to_points().max() if members else np.inf
        assert fam.net_radius() == net

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_erosion_and_merge(self, fam):
        sp = fam.space
        rng = np.random.default_rng(len(fam) + sp.n)
        # on integer metrics s = 1 and 2 fall on distances, where < and <=
        # part ways
        for s in (0.01, 0.2, 0.7, 1.0, 2.0):
            want = tuple(v for v in (u.neighborhood(-s) for u in fam)
                         if not v.is_empty)
            assert fam.eroded(s).members == want
            core = sp.subset(rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)),
                                        replace=False))
            merged = Family(sp, (core,)).merged(fam.hoods(s), s)
            assert merged.members == (brute_star_merge(core, fam, s),)

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_batched_merge(self, fam):
        sp = fam.space
        rng = np.random.default_rng(3 * len(fam) + sp.n)
        cores = Family(sp, tuple(
            sp.subset(rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)),
                                 replace=False)) for _ in range(4)))
        for s in (0.01, 0.2, 1.0, 2.0):
            got = cores.merged(fam.hoods(s), s)
            assert got.members == tuple(brute_star_merge(core, fam, s)
                                        for core in cores)
        assert Family(sp, ()).merged(fam.hoods(1.0), 1.0).members == ()
        for s in (0.0, -1.0):
            with pytest.raises(CoveringError, match="positive"):
                cores.merged(fam.hoods(1.0), s)

    @pytest.mark.parametrize("fam", oracle_cases())
    def test_singleton_member_min_is_reduceat(self, fam):
        singles = Family(fam.space, tuple(fam.space.subset([int(x)])
                                          for x in fam.indices))
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
            want = [u.neighborhood(-s) for u in fam]
            assert list(fam.shrink(s).members) == [u for u in want if not u.is_empty]

    def test_empty_family_arrays(self):
        sp = line_space(4)
        fam = Family(sp, ())
        assert fam.indices.shape == (0,)
        assert fam.depths.shape == fam.dist_rows().shape == (0, 4)
        assert fam.net_radius() == np.inf
        assert not fam.covers()

    def test_csr_layout(self):
        sp = line_space(6)
        fam = Family(sp, (sp.subset([4, 1]), sp.subset([0]), sp.whole()))
        assert fam.indptr.tolist() == [0, 2, 3, 9]
        for i, u in enumerate(fam):
            assert set(fam.indices[fam.indptr[i]:fam.indptr[i + 1]]) == u.indices
