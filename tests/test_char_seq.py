"""Scale ladders: level builders, the merge step, the separation cascade,
margin measurement, and verification."""

import dataclasses
import math
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from conetrees import (
    CharSequence,
    ColoredCovering,
    Family,
    FiniteMetricSpace,
    LadderConstructionError,
    PipelineConfig,
    SeparationPreconditionError,
    StageError,
    build_base,
    build_level,
    char_seq,
    harness,
    margin_trace,
    run_pipeline,
    separate,
    standing_assumptions,
    verify_base,
    verify_char_seq,
)
from conetrees.char_seq import _measure, _pair_margins, _window_level
from conetrees.harness import generate
from oracles import (
    ast_shrink,
    component_level,
    threshold_components,
    threshold_families,
)
from setcalc import dist_sets, hood


def without_kind(sp):
    """The same points and distances with no meta, so no stock kind: the
    level builder falls back to generic_greedy."""
    return FiniteMetricSpace(sp.dist, sp.point_ids)


def line_space(n=41, spacing=1.0):
    coords = np.arange(n) * spacing
    d = np.abs(coords[:, None] - coords[None, :]).astype(float)
    return FiniteMetricSpace(d, tuple(f"x{i}" for i in range(n)))


class TestMarginTrace:
    def test_literal_values(self):
        tr = margin_trace(0.1, 0.6, 3)
        assert tr[3] == pytest.approx(0.3)
        assert tr[2] == pytest.approx(0.3 - 2 * 0.1)
        assert tr[1] == pytest.approx(0.3 - 2 * (0.1 + 0.01))

    def test_lower_bound_under_assumptions(self):
        # whenever 2r/(1-r) <= delta/4 every traced margin stays >= delta/4
        for r in (0.01, 0.03, 0.05):
            for delta in (0.4, 0.6, 2 / 3):
                if 2 * r / (1 - r) > delta / 4:
                    continue
                tr = margin_trace(r, delta, 6)
                assert min(tr.values()) >= delta / 4 - 1e-12

    def test_can_go_negative_without_assumptions(self):
        tr = margin_trace(0.4, 0.2, 4)
        assert min(tr.values()) < 0


class TestStandingAssumptions:
    def test_flagship_violations(self):
        v = standing_assumptions(0.125, 0.19635, 0.19635)
        assert len(v) == 2

    def test_satisfied_for_small_r(self):
        assert standing_assumptions(0.01, 0.6, 0.1) == []


class TestAstShrink:
    def test_erodes_and_absorbs(self):
        sp = line_space(41)
        u = range(10, 31)
        fam = Family(sp, (u,))
        ghat = Family(sp, tuple([i] for i in range(12, 29, 2)))
        out = ast_shrink(fam, ghat, s=1.0, delta=0.5)
        assert len(out.members) == 1
        assert out.members[0].tolist() == list(range(14, 27))

    def test_output_inside_input(self):
        sp = line_space(41)
        u = range(5, 30)
        fam = Family(sp, (u,))
        ghat = Family(sp, tuple([i] for i in range(0, 41, 3)))
        out = ast_shrink(fam, ghat, s=1.0, delta=0.5)
        for v in out.members:
            assert set(v.tolist()) <= set(u)

    def test_dichotomy(self):
        sp = line_space(41)
        fam = Family(sp, (range(10, 31),))
        ghat = Family(sp, tuple([i] for i in range(0, 41, 2)))
        s, delta = 1.0, 0.5
        out = ast_shrink(fam, ghat, s, delta)
        star = out.members[0]
        star = set(star.tolist())
        for w in ghat:
            ball = hood(sp, w, delta * s)
            assert ball <= star or not ball & star

    def test_eroded_away_member_dropped(self):
        sp = line_space(41)
        fam = Family(sp, ([5], range(10, 31)))
        ghat = Family(sp, ([20],))
        out = ast_shrink(fam, ghat, s=1.0, delta=0.5)
        assert len(out.members) == 1

    def test_whole_space_member_survives(self):
        sp = FiniteMetricSpace(np.zeros((1, 1)), ("o",))
        fam = Family(sp, (range(sp.n),))
        ghat = Family(sp, (range(sp.n),))
        out = ast_shrink(fam, ghat, s=1.0, delta=0.5)
        assert out.members[0].tolist() == [0]

    def test_rejects_bad_delta(self):
        sp = line_space(5)
        fam = Family(sp, (range(sp.n),))
        with pytest.raises(SeparationPreconditionError, match="delta"):
            ast_shrink(fam, fam, s=1.0, delta=0.8)

    def test_rejects_coarse_fine_family(self):
        sp = line_space(41)
        fam = Family(sp, (range(sp.n),))
        ghat = Family(sp, (range(10),))
        with pytest.raises(SeparationPreconditionError, match="mesh"):
            ast_shrink(fam, ghat, s=1.0, delta=0.5)

    def test_rejects_crowded_fine_family(self):
        sp = line_space(41)
        fam = Family(sp, (range(sp.n),))
        ghat = Family(sp, ([0], [2]))
        with pytest.raises(SeparationPreconditionError, match="disjoint"):
            ast_shrink(fam, ghat, s=4.0, delta=0.5)

    # the outputs of the cases above, as pinned before ghat's open
    # neighborhoods were derived once for the check and the merge
    PINNED = [
        ([range(10, 31)], [[i] for i in range(12, 29, 2)],
         [list(range(14, 27))]),
        ([range(5, 30)], [[i] for i in range(0, 41, 3)],
         [list(range(9, 26))]),
        ([range(10, 31)], [[i] for i in range(0, 41, 2)],
         [list(range(14, 27))]),
        ([[5], range(10, 31)], [[20]], [list(range(14, 27))]),
    ]

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_reads_ghat_rows_once(self, monkeypatch, case):
        sp = line_space(41)
        members, fine, want = self.PINNED[case]
        fam, ghat = Family(sp, members), Family(sp, fine)
        reads = []
        dist_rows = Family.dist_rows

        def counted(self):
            reads.append(self)
            return dist_rows(self)

        monkeypatch.setattr(Family, "dist_rows", counted)
        out = ast_shrink(fam, ghat, s=1.0, delta=0.5)
        assert [u.tolist() for u in out] == want
        assert sum(r is ghat for r in reads) == 1

    def test_refusal_reads_ghat_rows_once(self, monkeypatch):
        sp = line_space(41)
        ghat = Family(sp, ([0], [2]))
        reads = []
        dist_rows = Family.dist_rows

        def counted(self):
            reads.append(self)
            return dist_rows(self)

        monkeypatch.setattr(Family, "dist_rows", counted)
        with pytest.raises(SeparationPreconditionError,
                           match=r"^fine family is not 2-disjoint$"):
            ast_shrink(Family(sp, (range(sp.n),)), ghat, s=4.0, delta=0.5)
        assert reads == [ghat]


class TestBuildLevel:
    def test_whole_space_regime(self):
        sp = generate("circle", n=16)
        cov = build_level(sp, scale=10.0, m=2)
        assert all(len(c.members) == 1 for c in cov.colors)
        assert cov.colors[0].members[0].tolist() == list(range(16))

    def test_singleton_regime(self):
        sp = generate("circle", n=16)
        cov = build_level(sp, scale=0.1, m=2)
        assert cov.mesh == 0.0
        assert all(len(c.members) == 16 for c in cov.colors)

    def test_window_regime(self):
        sp = generate("circle", n=16)
        cov = build_level(sp, scale=3.0, m=2)
        assert 0.0 < cov.mesh <= 3.0
        assert np.unique(cov.pooled.indices).size == sp.n  # covers
        assert cov.lebesgue() > 0.0

    def test_mesh_never_exceeds_scale(self):
        for kind, params in [("circle", {"n": 50}), ("interval", {"n": 50}),
                             ("cantor", {"depth": 4})]:
            sp = generate(kind, **params)
            for scale in (0.6, 0.3, 0.08):
                cov = build_level(sp, scale=scale * sp.diameter, m=2)
                assert cov.mesh <= scale * sp.diameter * (1 + 1e-9)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_scale_that_is_not_positive_and_finite(self, scale):
        # NaN fails every comparison, so only a range test refuses it
        sp = generate("circle", n=64)
        with pytest.raises(LadderConstructionError) as exc:
            build_level(sp, scale, 2)
        assert str(exc.value) == f"scale must be positive and finite, got {scale}"

    def test_greedy_depth_guarantee(self):
        sp = without_kind(generate("random_circle", n=120, seed=5))
        scale = 0.5
        cov = build_level(sp, scale=scale, m=2, allow_more_colors=True)
        assert cov.lebesgue() >= 0.24 * scale

    def test_greedy_color_demand_is_reported(self):
        sp = without_kind(generate("interval", n=200))
        with pytest.raises(LadderConstructionError, match="colors"):
            build_level(sp, scale=0.125, m=2)

    def test_builder_follows_kind(self):
        for kind, params, builder in [
                ("circle", {"n": 64}, "circle_arcs"),
                ("random_circle", {"n": 64}, "circle_arcs"),
                ("visual_circle", {"n": 64}, "circle_arcs"),
                ("interval", {"n": 64}, "interval_blocks"),
                ("cantor", {"depth": 5}, "cantor_clopen"),
                ("tree_boundary", {"depth": 6}, "tree_boundary_cylinders")]:
            base = build_base(generate(kind, **params), r=0.25, depth=2,
                              colors=2)
            assert base.provenance["strategy"] == builder

    def test_cantor_ladder_reaches_the_component_builder(self, monkeypatch):
        # the configuration of the CI step that exercises _component_level
        strategy, component_level = char_seq._KINDS["cantor"]
        calls = []

        def counted(*args):
            calls.append(args)
            return component_level(*args)

        monkeypatch.setitem(char_seq._KINDS, "cantor", (strategy, counted))
        sp = generate("cantor", depth=7)
        base = build_base(sp, r=0.125, depth=4, colors=2)
        assert calls
        built = [cov for cov in base.levels
                 if {len(u) for fam in cov.colors for u in fam.members}
                 not in ({1}, {sp.n})]
        assert built


def assert_linkage_matches_oracle(kind, params, stride=1):
    """`linkage_sweep` of a stock space.  CI runs stride 1 on the cantor
    depths that tier-1 samples."""
    linkage_sweep(generate(kind, **params), stride)


def linkage_sweep(sp, stride=1):
    """`_component_level` at every stride-th of the space's distinct pairwise
    distances and the midpoints between neighbouring ones, ascending, holds
    the oracle's members in every color."""
    dist = np.unique(sp.dist[np.triu_indices(sp.n, k=1)])
    scales = np.sort(np.concatenate([dist, (dist[1:] + dist[:-1]) / 2]))
    table = threshold_families(sp)
    for scale in scales[::stride].tolist():
        want = component_level(sp, scale, table.__getitem__)
        for fam in char_seq._component_level(sp, scale, 3).colors:
            assert np.array_equal(fam.indptr, want.indptr), scale
            assert np.array_equal(fam.indices, want.indices), scale


def shuffled(kind, params, seed):
    """The stock space with its points in a seeded random order, so that a
    component's first point in Prim order need not be its least."""
    sp = generate(kind, **params)
    p = np.random.default_rng(seed).permutation(sp.n)
    meta = dict(sp.meta)
    if "coords" in meta:
        meta["coords"] = [meta["coords"][i] for i in p]
    return FiniteMetricSpace(sp.dist[np.ix_(p, p)],
                             tuple(sp.point_ids[i] for i in p), meta)


class TestComponentLevelOracle:
    @pytest.mark.parametrize("kind, params, stride", [
        *(("cantor", {"depth": d}, 1) for d in range(1, 7)),
        ("cantor", {"depth": 7}, 21),
        ("cantor", {"depth": 8}, 63),
        ("cantor", {"depth": 9}, 211),
        *(("tree_boundary", {"depth": d}, 1) for d in range(1, 9)),
        ("tree_boundary", {"depth": 4, "branching": 3}, 1),
    ])
    def test_every_distance_and_midpoint(self, kind, params, stride):
        assert_linkage_matches_oracle(kind, params, stride)

    @pytest.mark.parametrize("kind, params", [
        ("cantor", {"depth": 5}), ("tree_boundary", {"depth": 4}),
        ("tree_boundary", {"depth": 3, "branching": 3})])
    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_points(self, kind, params, seed):
        linkage_sweep(shuffled(kind, params, seed))

    @pytest.mark.parametrize("kind, params", [
        ("cantor", {"depth": 4}), ("tree_boundary", {"depth": 3, "branching": 3})])
    def test_oracle_table_is_a_cache_of_the_search(self, kind, params):
        # every entry, and the oracle through it, as fresh searches give them
        sp = generate(kind, **params)
        table = threshold_families(sp)
        pairs = [(fam, Family(sp, threshold_components(sp, t)))
                 for t, fam in table.items()]
        dist = sorted(table)
        pairs += [(component_level(sp, s, table.__getitem__),
                   component_level(sp, s))
                  for s in dist + [(a + b) / 2 for a, b in zip(dist, dist[1:])]]
        for got, want in pairs:
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)


def loop_window_level(space, values, pitch, width, count, m, wrap):
    """One exact mask per window i = 0..count-1, empty windows skipped."""
    eps = 1e-12 * max(width, 1.0)
    colors = [[] for _ in range(m)]
    for i in range(count):
        start = i * pitch
        if wrap is None:
            mask = (values >= start - eps) & (values <= start + width + eps)
        else:
            mask = np.mod(values - start, wrap) <= width + eps
        if mask.any():
            colors[i % m].append(np.flatnonzero(mask))
    return ColoredCovering(space, tuple(Family(space, tuple(c)) for c in colors))


def member_lists(cov):
    return [[u.tolist() for u in fam] for fam in cov.colors]


class TestWindowLevelOracle:
    def test_stock_builders(self, monkeypatch):
        seen = []

        def checked(space, values, pitch, width, count, m, wrap):
            got = _window_level(space, values, pitch, width, count, m, wrap=wrap)
            want = loop_window_level(space, values, pitch, width, count, m, wrap)
            assert member_lists(got) == member_lists(want)
            seen.append((space.meta["kind"], m, wrap is None))
            return got

        monkeypatch.setattr(char_seq, "_window_level", checked)
        for kind, params in [("circle", {"n": 97}),
                             ("random_circle", {"n": 160, "seed": 0}),
                             ("random_circle", {"n": 120, "seed": 3}),
                             ("visual_circle", {"n": 128}),
                             ("interval", {"n": 101})]:
            sp = generate(kind, **params)
            for m in (2, 3):
                for frac in (0.9, 0.5, 0.3, 0.125, 0.06, 0.125 ** 2, 0.125 ** 3):
                    build_level(sp, frac * sp.diameter, m)
        assert {kind for kind, _, _ in seen} == {
            "circle", "random_circle", "visual_circle", "interval"}
        assert {(m, plain) for _, m, plain in seen} == {
            (2, True), (3, True), (2, False), (3, False)}

    def test_random_windows(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            sp = line_space(n)
            m = int(rng.integers(2, 4))
            count = int(rng.integers(m, 30))
            wrap = None if trial % 2 else float(rng.uniform(0.5, 10.0))
            length = wrap if wrap is not None else float(rng.uniform(0.5, 10.0))
            pitch = length / count
            # at least one pitch wide, so the windows cover [0, length]
            width = (m + 1) / 2.0 * pitch * float(rng.uniform(0.7, 1.5))
            # half the values sit exactly on window edges, where the
            # predicate's eps decides
            edges = rng.integers(0, count, size=n) * pitch + (
                rng.integers(0, 2, size=n) * width)
            values = np.where(rng.random(n) < 0.5, edges,
                              rng.uniform(0.0, length, size=n))
            if wrap is not None:
                values = np.mod(values, wrap)
            args = (sp, values, pitch, width, count, m)
            want = loop_window_level(*args, wrap)
            assert member_lists(_window_level(*args, wrap=wrap)) == member_lists(want)


class TestBuildBase:
    def test_flagship_constants(self):
        sp = generate("circle", n=512)
        base = build_base(sp, r=0.125, depth=4, colors=2)
        gap = 2 * math.pi / 512
        assert base.delta == pytest.approx(2 * gap / 0.125)
        assert base.lam == pytest.approx(2 * gap / 0.125)
        verify_base(base)

    def test_delta_target_gate(self):
        sp = generate("circle", n=64)
        with pytest.raises(LadderConstructionError, match="below target"):
            build_base(sp, r=0.125, depth=2, colors=2, delta_target=0.9)

    def test_depth_one(self):
        sp = generate("circle", n=32)
        base = build_base(sp, r=0.25, depth=1, colors=2)
        assert base.depth == 1
        verify_base(base)


class TestSeparate:
    def test_identity_cascade_on_sparse_circle(self):
        sp = generate("circle", n=512)
        base = build_base(sp, r=0.125, depth=4, colors=2)
        seq = separate(base)
        assert all(rec["identity"] for rec in seq.provenance["cascade"])
        assert seq.provenance["dropped_members"] == 0
        assert seq.delta == pytest.approx(base.delta)
        assert seq.gamma == pytest.approx(4 * (2 * math.pi / 512) / 0.125)
        verify_char_seq(seq)

    def test_real_cascade_on_greedy_ladder(self):
        sp = without_kind(generate("interval", n=400))
        base = build_base(sp, r=0.125, depth=2, colors=5)
        assert base.provenance["strategy"] == "generic_greedy"
        seq = separate(base)
        worked = [rec for rec in seq.provenance["cascade"]
                  if not rec["identity"]]
        assert worked, "cascade should have had a non-trivial stage"
        assert all(rec["ghat_disjoint"] for rec in worked)
        for rec in worked:
            assert rec["moat"] <= 4 * (0.125 ** rec["stage"] / 2) + 1e-15
        assert seq.provenance["dropped_members"] == 0
        assert seq.gamma > 0.1
        verify_char_seq(seq)

    def test_depth_one_passthrough(self):
        sp = generate("circle", n=64)
        base = build_base(sp, r=0.125, depth=1, colors=2)
        seq = separate(base)
        assert seq.provenance["cascade"] == []
        for a in range(2):
            got = [m.tolist() for m in seq.level(1).colors[a].members]
            want = [m.tolist() for m in base.level(1).colors[a].members]
            assert got == want
        assert seq.gamma > 0.0

    def test_enforce_assumptions_raises_on_flagship(self):
        sp = generate("circle", n=512)
        base = build_base(sp, r=0.125, depth=2, colors=2)
        with pytest.raises(SeparationPreconditionError, match="standing"):
            separate(base, enforce_assumptions=True)

    def test_warnings_recorded_by_default(self):
        sp = generate("circle", n=128)
        base = build_base(sp, r=0.125, depth=2, colors=2)
        seq = separate(base)
        assert len(seq.provenance["assumption_warnings"]) >= 1


class TestSeparateWork:
    def test_fine_rows_once_per_stage_and_color(self, monkeypatch):
        # the cascade workload: every level built, 2 stages x 2 colors; each
        # (stage, color) derives its fine family's rows once, for the
        # disjointness check and all merges, and its cores' rows once, as
        # one batch
        base = build_base(generate("random_circle", n=160, seed=0), r=0.125,
                          depth=3, colors=2)
        verify_base(base)  # measured before the cascade, as run
        fine = {id(f) for k in (2, 3) for f in base.level(k).colors}
        calls = []
        dist_rows = Family.dist_rows

        def counting(self):
            calls.append(self)
            return dist_rows(self)

        monkeypatch.setattr(Family, "dist_rows", counting)
        seq = separate(base)
        assert not any(rec["identity"] for rec in seq.provenance["cascade"])
        fine_reads = [id(f) for f in calls if id(f) in fine]
        assert len(fine_reads) == 4
        assert len(set(fine_reads)) == 4
        batches = [f for f in calls if id(f) not in fine]
        assert len(batches) == 4
        assert len({id(f) for f in batches}) == 4


def cascade_ladder():
    """The cascade workload's base ladder, every level built."""
    return build_base(generate("random_circle", n=160, seed=0), r=0.125,
                      depth=3, colors=2)


def long_ray_ladder():
    """The long_ray workload's base ladder: 12 levels over 80 points."""
    return build_base(generate("circle", n=80), r=0.125, depth=12, colors=2)


def families(seq):
    """Every Family of a ladder: each color of each level and its pool."""
    for cov in seq.levels:
        yield from cov.colors
        yield cov.pooled


def colorwise_inner_radius(cov):
    """A level's inner radius color by color: the min over nonempty colors
    of the least, over members, of the largest depth of a point inside."""
    return min((float(f.depths.max(axis=1).min()) for f in cov.colors
                if len(f)), default=np.inf)


class TestMeasureHoldsNoTable:
    @pytest.mark.parametrize("ladder", [cascade_ladder, long_ray_ladder])
    def test_no_family_holds_a_table(self, ladder):
        base = ladder()
        seq = separate(base)  # measures the base ladder
        assert seq.measurement["gamma"] is not None
        for fam in chain(families(base), families(seq)):
            held = {k for k, v in vars(fam).items() if isinstance(v, np.ndarray)}
            assert held <= {"indptr", "indices"}, held

    @pytest.mark.parametrize("ladder", [cascade_ladder, long_ray_ladder])
    def test_depths_derived_once_per_family_and_level(self, ladder,
                                                      monkeypatch):
        # one read per distinct color family in the pass, which reads the
        # Lebesgue number off it and passes it to every `_pair_margins` of
        # that coarse family; no pooled table is derived
        seq = separate(ladder())
        reads = []
        depths = Family.depths

        def counting(self):
            reads.append(id(self))
            return depths.fget(self)

        monkeypatch.setattr(Family, "depths", property(counting))
        seq.measurement
        assert len(reads) == sum(len({id(f) for f in cov.colors})
                                 for cov in seq.levels)

    def test_inner_radius_equals_colorwise_formula(self):
        sp = generate("random_circle", n=60, seed=0)
        for base in (cascade_ladder(), long_ray_ladder(),
                     build_base(sp, r=0.25, depth=3, colors=2)):
            for seq in (base, separate(base)):
                levels = seq.measurement["levels"]
                assert [st["inner_radius"] for st in levels] == \
                    [colorwise_inner_radius(cov) for cov in seq.levels]

    def test_inner_radius_skips_an_empty_color(self):
        sp = line_space(21, spacing=0.5)
        cov = ColoredCovering(sp, (
            Family(sp, (range(11), range(11, 21))),
            Family(sp, ()),
        ))
        empty = ColoredCovering(sp, (Family(sp, (range(sp.n),)), Family(sp, ())))
        seq = CharSequence(sp, 0.5, (cov, empty))
        levels = seq.measurement["levels"]
        assert [st["inner_radius"] for st in levels] == [5.0, np.inf]
        assert [st["inner_radius"] for st in levels] == \
            [colorwise_inner_radius(c) for c in seq.levels]


def flagship_ladder():
    """The flagship workload's base ladder: circle n=192, depth 4."""
    return build_base(generate("circle", n=192), r=0.125, depth=4, colors=2)


def triu_separation(fam):
    """Min distance between distinct members, read off the upper triangle
    of the (k, k) member distances."""
    sep = fam.member_min(fam.dist_rows().T)
    return float(sep[np.triu_indices(len(fam), k=1)].min(initial=np.inf))


def odd_ladder():
    """Two levels on a line: one with an empty color, one with a member
    that is the whole space beside a proper one."""
    sp = line_space(21, spacing=0.5)
    empty = ColoredCovering(sp, (
        Family(sp, (range(11), range(9, 21))),
        Family(sp, ()),
    ))
    whole = ColoredCovering(sp, (
        Family(sp, (range(sp.n),)),
        Family(sp, (range(4), range(8, 14))),
    ))
    return CharSequence(sp, 0.5, (empty, whole))


class TestCoveringConstantsOracle:
    """A covering's constants come from its color families; the pooled
    family and the upper-triangle separation are the oracles."""

    @pytest.mark.parametrize("ladder", [flagship_ladder, cascade_ladder,
                                        long_ray_ladder, odd_ladder])
    def test_constants_equal_pooled_and_triangle(self, ladder):
        base = ladder()
        seqs = (base,) if ladder is odd_ladder else (base, separate(base))
        for seq in seqs:
            for cov, st in zip(seq.levels, seq.measurement["levels"]):
                pooled = cov.pooled
                assert cov.mesh == st["mesh"] == pooled.mesh
                assert cov.multiplicity() == st["multiplicity"] \
                    == np.bincount(pooled.indices).max()
                assert cov.lebesgue() == st["lebesgue"] == pooled.lebesgue()
                for fam in cov.colors:
                    # the measure reads the whole table, diagonal at +inf
                    gaps = fam.gaps(fam.dist_rows())
                    assert np.array_equal(gaps, gaps.T)
                    np.fill_diagonal(gaps, np.inf)
                    assert gaps.min(initial=np.inf) == triu_separation(fam)
                assert st["separation"] == min(triu_separation(f)
                                               for f in cov.colors)

    def test_odd_levels_are_exercised(self):
        empty, whole = odd_ladder().levels
        assert not empty.colors[1] and empty.multiplicity() == 2
        assert whole.lebesgue() == whole.pooled.lebesgue() > 0


class TestOneGapTablePerFamily:
    @pytest.mark.parametrize("ladder", [flagship_ladder, cascade_ladder])
    def test_one_own_table_per_distinct_family_and_level(self, ladder,
                                                         monkeypatch):
        # every member-to-member table the pass reduces, keyed by the family
        # whose members give its rows and the family whose `dist_rows()`
        # gives its columns: no table is derived twice, and a family's own,
        # which gives both its separation and its same-level avoidance
        # margins, comes once per distinct family and level
        seq = separate(ladder())
        owners, tables = {}, Counter()  # id(rows) -> (rows, its family)
        dist_rows, member_min = Family.dist_rows, Family.member_min

        def noted(self):
            rows = dist_rows(self)
            owners[id(rows)] = rows, self
            return rows

        def counted(self, values):
            rows, owner = owners.get(id(values.base), (None, None))
            if rows is not None and rows is values.base:
                tables[id(self), id(owner)] += 1
            return member_min(self, values)

        monkeypatch.setattr(Family, "dist_rows", noted)
        monkeypatch.setattr(Family, "member_min", counted)
        seq.measurement
        own = sum(n for (fam, of), n in tables.items() if fam == of)
        assert own == sum(len({id(f) for f in cov.colors}) for cov in seq.levels)
        assert max(tables.values()) == 1
        assert len(tables) > own  # the cross-level tables are counted too

    def test_the_pass_holds_four_tables_at_most(self):
        # levels 2 to 4 are singletons: each (n, n) table, dist_rows, depths,
        # a family's gaps and a pair's margins, is 2 MiB, and the own gaps
        # are dropped before the cross-level tables are derived
        seq = separate(build_base(generate("circle", n=512), r=0.125, depth=4,
                                  colors=2))
        assert all(len(f) == 512 for cov in seq.levels[1:] for f in cov.colors)
        tracemalloc.start()
        try:
            _measure(seq.levels, seq.r, margins=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 512 * 512 * 8


class TestSeparationMargins:
    def test_two_block_line(self):
        sp = line_space(21, spacing=0.5)
        blocks = ColoredCovering(sp, (
            Family(sp, (range(11), range(11, 21))),
            Family(sp, (range(sp.n),)),
        ))
        singles = ColoredCovering(sp, (
            Family(sp, tuple([i] for i in range(21))),
            Family(sp, tuple([i] for i in range(21))),
        ))
        out = _measure((blocks, singles), 0.5, margins=True)
        gamma, records = out["gamma"], out["gamma_records"]
        # binding pair: the two level-1 blocks at distance 0.5, over r^1
        assert gamma == pytest.approx(1.0)
        assert all(rec["pair_margin"] >= 0.5 for rec in records
                   if rec["fine"] == rec["coarse"] == 1)

    def test_shared_families_computed_once(self, monkeypatch):
        # level 1 is built, one family per color; level 2 is all singletons,
        # one family in both colors: 5 distinct (fine, coarse) family pairs
        # among 3 level pairs x 2 colors; without the sharing, 6 calls
        seq = separate(build_base(generate("circle", n=320), r=0.125, depth=2,
                                  colors=2))
        calls = []

        def counting(fine, gaps, depths):
            calls.append(fine)
            return _pair_margins(fine, gaps, depths)

        monkeypatch.setattr(char_seq, "_pair_margins", counting)
        records = _measure(seq.levels, seq.r, margins=True)["gamma_records"]
        assert len(calls) == 5
        assert len(records) == 6

    def test_overlapping_same_color_has_zero_margin(self):
        sp = line_space(21, spacing=0.5)
        cov = ColoredCovering(sp, (
            Family(sp, (range(12), range(9, 21))),
        ))
        gamma = _measure((cov,), 0.5, margins=True)["gamma"]
        assert gamma == 0.0


def brute_pair_margins(fine, coarse, same_level):
    """Double loop over member pairs: containment margin d(F, complement of
    C) and avoidance margin d(F, C)."""
    sp = fine.space
    m1 = np.empty((len(fine), len(coarse)))
    m2 = np.empty_like(m1)
    for i, f in enumerate(fine):
        for k, c in enumerate(coarse):
            c = set(c.tolist())
            m1[i, k] = dist_sets(sp, f, set(range(sp.n)) - c)
            m2[i, k] = dist_sets(sp, f, c)
            r = max(m1[i, k], m2[i, k])
            if 0 < r < np.inf:
                # at the margin the open r-neighborhood sits inside or misses
                grown = hood(sp, f, r)
                assert grown <= c or not grown & c
    margins = np.maximum(m1, m2)
    if same_level:
        for i in range(min(len(fine), len(coarse))):
            margins[i, i] = np.inf
    return float(margins.min()), float(m1.max(axis=0).min())


def random_family(rng, sp, k):
    members = [rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)),
                          replace=False) for _ in range(k)]
    if rng.random() < 0.3:
        members.append(range(sp.n))
    return Family(sp, tuple(members))


def level_gaps(fine, coarse):
    """The gaps `_measure` passes to `_pair_margins`: fine's members to
    coarse's, diagonal at +inf when the fine family is the coarse one."""
    gaps = fine.gaps(coarse.dist_rows())
    if fine is coarse:
        np.fill_diagonal(gaps, np.inf)
    return gaps


class TestPairMarginsOracle:
    def test_random_families(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            x = rng.integers(0, 10, size=(n, 2)).astype(float)
            x[:, 0] += np.arange(n) * 10  # distinct points, tied distances
            d = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2)
            sp = FiniteMetricSpace(d, tuple(f"x{i}" for i in range(n)))
            fine = random_family(rng, sp, int(rng.integers(1, 6)))
            coarse = random_family(rng, sp, int(rng.integers(1, 6)))
            for f, same in ((fine, False), (coarse, True)):
                assert (_pair_margins(f, level_gaps(f, coarse), coarse.depths)
                        == brute_pair_margins(f, coarse, same))

    def test_cascade_ladder(self):
        sp = generate("random_circle", n=60, seed=0)
        seq = separate(build_base(sp, r=0.25, depth=3, colors=2))
        built = 0
        for jf in range(1, 4):
            for jc in range(1, jf + 1):
                for a in range(2):
                    fine, coarse = seq.level(jf).colors[a], seq.level(jc).colors[a]
                    built += any(1 < len(u) < sp.n for u in coarse)
                    assert (fine is coarse) == (jf == jc)
                    assert (_pair_margins(fine, level_gaps(fine, coarse),
                                          coarse.depths)
                            == brute_pair_margins(fine, coarse, jf == jc))
        assert built  # some coarse family has members that are really built


def with_fat_member(seq):
    """seq with half the circle added to level 2's first color, a member
    far wider than r**2."""
    sp = seq.space
    fat = Family(sp, seq.level(2).colors[0].members + (range(sp.n // 2),))
    bad_level = ColoredCovering(sp, (fat,) + seq.level(2).colors[1:])
    return dataclasses.replace(seq, levels=(seq.levels[0], bad_level))


class TestVerification:
    def test_planted_mesh_violation_detected(self):
        sp = generate("circle", n=64)
        base = build_base(sp, r=0.125, depth=2, colors=2)
        tampered = with_fat_member(separate(base))
        with pytest.raises(LadderConstructionError, match="level 2"):
            verify_char_seq(tampered)

    def test_planted_mesh_violation_fails_the_separate_stage(self,
                                                             monkeypatch):
        run = harness.separate
        monkeypatch.setattr(harness, "separate",
                            lambda *args: with_fat_member(run(*args)))
        with pytest.raises(StageError, match=r"\[separate\] level 2:") as exc:
            run_pipeline(PipelineConfig(generator="circle", params={"n": 64},
                                        r=0.125, depth=2, colors=2))
        assert exc.value.stage == "separate"
