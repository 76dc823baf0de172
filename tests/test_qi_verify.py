"""Hyperbolicity scans and two-sided distance fitting."""

import math
import tracemalloc

import numpy as np
import pytest

from conetrees import harness, qi_verify
from conetrees import (
    PipelineConfig,
    build_base,
    build_tree,
    delta_hyperbolicity,
    fit_qi,
    run_pipeline,
    separate,
    visual_metric_circle,
)
from conetrees.harness import generate


def brute_delta(d, base=0):
    n = d.shape[0]

    def gp(x, y):
        return 0.5 * (d[base, x] + d[base, y] - d[x, y])

    worst = 0.0
    for x in range(n):
        for y in range(n):
            for w in range(n):
                worst = max(worst, min(gp(x, y), gp(y, w)) - gp(x, w))
    return worst


def line_metric(coords):
    coords = np.asarray(coords, dtype=float)
    return np.abs(coords[:, None] - coords[None, :])


class TestDeltaHyperbolicity:
    def test_line_is_zero(self):
        d = line_metric(np.linspace(0, 5, 12))
        assert delta_hyperbolicity(d) == pytest.approx(0.0, abs=1e-12)

    def test_four_cycle(self):
        # cycle graph on 4 vertices: opposite pairs at distance 2
        d = np.array([[0, 1, 2, 1],
                      [1, 0, 1, 2],
                      [2, 1, 0, 1],
                      [1, 2, 1, 0]])
        assert delta_hyperbolicity(d) == 1.0
        assert delta_hyperbolicity(d) == pytest.approx(
            brute_delta(d.astype(float)))

    def test_narrow_integers_do_not_wrap(self):
        d = 10000 * np.array([[0, 1, 2, 1],
                              [1, 0, 1, 2],
                              [2, 1, 0, 1],
                              [1, 2, 1, 0]], dtype=np.int16)
        assert delta_hyperbolicity(d) == 10000.0

    @pytest.mark.parametrize("m, want", [
        ([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], 1.0),
        (np.abs(np.subtract.outer([0, 1, 3, 7], [0, 1, 3, 7])), 0.0),
    ], ids=["four_cycle", "line_tree"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_wide_integers_do_not_wrap(self, m, want, dtype):
        # the largest scale int32 holds, whose sums overflow int32, and in
        # int64 also 10**9, beyond int32 for the line
        m = np.array(m)
        scales = [np.iinfo(np.int32).max // m.max()]
        if dtype == np.int64:
            scales.append(10 ** 9)
        for scale in scales:
            d = (scale * m).astype(dtype)
            got = delta_hyperbolicity(d)
            assert got == delta_hyperbolicity(d.astype(float))
            assert got == want * scale

    def test_int64_overflow_is_refused(self):
        d = np.array([[0, 2 ** 61], [2 ** 61, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            delta_hyperbolicity(d)
        d = np.array([[0, 2 ** 63], [2 ** 63, 0]], dtype=np.uint64)
        with pytest.raises(ValueError, match="overflow"):
            delta_hyperbolicity(d)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 1, size=(12, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        assert delta_hyperbolicity(d) == pytest.approx(brute_delta(d))

    def test_tree_metric_exactly_zero(self):
        sp = generate("circle", n=64)
        seq = separate(build_base(sp, r=0.125, depth=2, colors=2))
        tree = build_tree(seq, 0)
        assert delta_hyperbolicity(tree.all_pairs_dist) == 0.0

    def test_hyperbolic_plane_sample_is_thin(self):
        # random points in a Poincare disk; base-point delta stays small
        rng = np.random.default_rng(23)
        m = 120
        rad = np.sqrt(rng.uniform(0, 1, m)) * 0.95
        ang = rng.uniform(0, 2 * math.pi, m)
        w = rad * np.exp(1j * ang)
        num = np.abs(w[:, None] - w[None, :])
        den = np.abs(1 - np.conj(w[:, None]) * w[None, :])
        d = 2 * np.arctanh(np.clip(num / den, 0, 1 - 1e-15))
        np.fill_diagonal(d, 0.0)
        delta = delta_hyperbolicity(d)
        assert 0.0 <= delta <= 1.5

    def test_integer_l1_metrics_match_brute_force(self):
        rng = np.random.default_rng(29)
        sides = {4: [], 100: []}  # span -> deltas
        for trial in range(24):
            n = int(rng.integers(12, 21))
            span = (4, 100)[trial % 2]  # few distinct products, then many
            pts = rng.integers(0, span, size=(n, 2))
            d = np.abs(pts[:, None] - pts[None, :]).sum(-1)
            base = int(rng.integers(0, n))
            want = brute_delta(d.astype(float), base=base)
            got = delta_hyperbolicity(d, base=base)
            assert got == want
            sides[span].append(got)
        for deltas in sides.values():
            assert max(deltas) > 0

    def test_non_metrics_match_brute_force(self):
        # a tampered certificate input need not satisfy the triangle
        # inequality; the scan must still agree with the brute-force loop
        rng = np.random.default_rng(37)
        cases = []
        for _ in range(20):
            n = int(rng.integers(4, 12))
            d = np.triu(rng.integers(0, 10, size=(n, n)), 1)
            cases.append((d + d.T, int(rng.integers(0, n))))
        # points 1 and 3 both sit at distance 0 from point 2 but 4 apart:
        # their product climbs to the largest value through point 2
        cases.append((np.array([[0, 5, 5, 5],
                                [5, 0, 0, 4],
                                [5, 0, 0, 0],
                                [5, 4, 0, 0]]), 0))
        for d, base in cases:
            want = brute_delta(d.astype(float), base=base)
            assert delta_hyperbolicity(d, base=base) == want

    def test_raised_tree_distance_fails_through_threshold(self):
        # the zero test's threshold relations reject the raised pair, and
        # the scan measures it
        sp = generate("circle", n=64)
        seq = separate(build_base(sp, r=0.125, depth=2, colors=2))
        d = build_tree(seq, 0).all_pairs_dist.copy()
        u, v = d.shape[0] - 1, d.shape[0] - 2
        d[u, v] += 2
        d[v, u] += 2
        a = d[0][:, None] + d[0][None, :] - d
        assert not qi_verify._thresholds_transitive(a, np.unique(a))
        want = brute_delta(d.astype(float))
        assert want > 0
        assert scan_delta(d) == want
        assert delta_hyperbolicity(d) == want

    def test_base_point_choice(self):
        d = line_metric([0.0, 1.0, 2.0, 4.0])
        for base in range(4):
            assert delta_hyperbolicity(d, base=base) == pytest.approx(0.0)


def tree_metric(n, rng):
    """Path metric of a random tree on n nodes with edge weights 1..3."""
    parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    weight = rng.integers(1, 4, n)
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        d[i, :i] = d[parent[i], :i] + weight[i]
        d[:i, i] = d[i, :i]
    return d


def scan_delta(d, base=0):
    """delta from _scan_excess, called directly on the doubled products a,
    past the zero test."""
    d = np.asarray(d)
    a = d[base][:, None] + d[base][None, :] - d
    return max(0.0, qi_verify._scan_excess(a) / 2.0)


def no_kernel(*args):
    raise AssertionError("the scan ran")


class TestZeroTest:
    """The exact zero test ahead of the scan: it returns 0.0 exactly
    where the scan and the brute-force loop find no defect."""

    def test_random_cases_match_brute_force_and_kernels(self):
        rng = np.random.default_rng(41)
        outcomes = {True: 0, False: 0}  # delta == 0 -> cases
        for seed in range(36):
            n = int(rng.integers(5, 11))
            tree = tree_metric(n, rng)
            keep = np.sort(rng.choice(n, int(rng.integers(3, n + 1)),
                                      replace=False))
            raised = tree.copy()
            u, v = rng.choice(n, 2, replace=False)
            raised[u, v] += int(rng.integers(1, 4))
            raised[v, u] = raised[u, v]
            pts = rng.integers(0, 3, size=(n, 2))
            grid = np.abs(pts[:, None] - pts[None, :]).sum(-1)
            asym = tree.copy()
            asym[u, v] += int(rng.integers(1, 3))
            for d in (tree, tree[np.ix_(keep, keep)], raised, grid, asym):
                for m in (d, d.astype(float)):
                    base = int(rng.integers(0, len(m)))
                    got = delta_hyperbolicity(m, base=base)
                    want = brute_delta(m.astype(float), base=base)
                    assert got == want
                    assert scan_delta(m, base=base) == want
                    outcomes[got == 0.0] += 1
        assert sum(outcomes.values()) >= 300
        assert min(outcomes.values()) >= 100

    def test_symmetric_verdicts_are_exact(self):
        # on symmetric input the test itself decides delta == 0, with no
        # false negatives to hand on to the scan
        rng = np.random.default_rng(43)
        verdicts = set()
        for trial in range(120):
            n = int(rng.integers(2, 12))
            if trial % 2:
                d = tree_metric(n, rng)
            else:
                pts = rng.integers(0, 3, size=(n, 2))
                d = np.abs(pts[:, None] - pts[None, :]).sum(-1)
            a = d[0][:, None] + d[0][None, :] - d
            zero = brute_delta(d.astype(float)) == 0.0
            assert qi_verify._thresholds_transitive(a, np.unique(a)) == zero
            verdicts.add(zero)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("a, want", [
        # rows 0 and 2 of [a >= 3] are empty while column 0 is not: the
        # relation is transitive but asymmetric, which the test hands on
        ([[0, 0, 0], [3, 3, 0], [0, 0, 0]], 0.0),
        # the same, with 2 -> 1 -> 0 and no 2 -> 0
        ([[0, 0, 0], [3, 3, 0], [0, 3, 3]], 1.5),
    ], ids=["transitive", "intransitive"])
    def test_empty_row_with_entries_in_its_column(self, a, want):
        # with row 0 of d all zero, base 0 gives a = -d
        d = -np.array(a)
        a = np.array(a)
        assert not qi_verify._thresholds_transitive(a, np.unique(a))
        assert delta_hyperbolicity(d) == want
        assert brute_delta(d.astype(float)) == want
        assert scan_delta(d) == want

    @pytest.mark.parametrize("dtype", [np.int64, float])
    def test_diagonal_below_row_maximum(self, dtype):
        # d[2, 2] = 2 lowers a[2, 2] below a[2, 1]: [a >= v] then relates 2
        # to 1 and 1 to 2 but not 2 to itself
        d = np.array([[0, 2, 2, 1],
                      [2, 0, 1, 1],
                      [2, 1, 2, 1],
                      [1, 1, 1, 0]], dtype=dtype)
        a = d[0][:, None] + d[0][None, :] - d
        assert a[2, 2] < a[2].max()
        want = brute_delta(d.astype(float))
        assert want > 0
        assert delta_hyperbolicity(d) == want
        assert scan_delta(d) == want

    def test_nan_input_is_refused(self):
        # every comparison with NaN is false, so a number would hide it; one
        # NaN entry, or a symmetric pair, in a cycle, an l1 grid and a plane
        c4 = np.array([[0, 1, 2, 1],
                       [1, 0, 1, 2],
                       [2, 1, 0, 1],
                       [1, 2, 1, 0]], dtype=float)
        pts = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 2],
                        [0, 2]])
        l1 = np.abs(pts[:, None] - pts[None, :]).sum(-1).astype(float)
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, size=(12, 2))
        euclid = np.sqrt(((p[:, None] - p[None, :]) ** 2).sum(-1))
        for d, pairs in ((c4, [(1, 3), (3, 1)]),
                         (l1, [(5, 6), (6, 5)]),
                         (l1, [(2, 4)]),
                         (l1, [(0, 3), (3, 0)]),
                         (euclid, [(4, 7), (7, 4)])):
            d = d.copy()
            for x, w in pairs:
                d[x, w] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                delta_hyperbolicity(d)

    def test_pipeline_trees_never_reach_the_kernels(self, monkeypatch,
                                                    flagship_result):
        cascade = separate(build_base(
            generate("random_circle", n=160, seed=0), r=0.125, depth=3,
            colors=2))
        trees = flagship_result.trees + tuple(
            build_tree(cascade, a) for a in range(2))
        monkeypatch.setattr(qi_verify, "_scan_excess", no_kernel)
        for tree in trees:
            assert delta_hyperbolicity(tree.all_pairs_dist) == 0.0


def full_sort_values(a):
    """delta_hyperbolicity's distinct values as first written: one sorted
    copy of the whole matrix."""
    flat = np.sort(a, axis=None)
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


BLOCK_ROWS = {"one": lambda n: 1, "split": lambda n: 3 * n,
              "whole": lambda n: n * n}


class TestDistinctValueBlocks:
    """The distinct doubled products, from sorted row blocks of at most
    BLOCK_ENTRIES entries, against one sorted copy of the whole matrix."""

    @pytest.mark.parametrize("rows", list(BLOCK_ROWS))
    @pytest.mark.parametrize("dtype", [np.int16, np.int64, float])
    def test_values_match_the_full_sort(self, monkeypatch, rows, dtype):
        rng = np.random.default_rng(8)
        # 3-row blocks split the 20 rows unevenly; few distinct integers
        # repeat across blocks, floats are nearly all distinct
        mats = [rng.integers(-40, 40, (20, 20)).astype(dtype),
                tree_metric(20, rng).astype(dtype),
                rng.integers(0, 3, (1, 1)).astype(dtype)]
        if dtype is float:
            mats.append(rng.normal(size=(20, 20)))
        wants = [(full_sort_values(m), delta_hyperbolicity(m)) for m in mats]
        monkeypatch.setattr(qi_verify, "BLOCK_ENTRIES",
                            BLOCK_ROWS[rows](20))
        for m, (values, delta) in zip(mats, wants):
            got = qi_verify._distinct_sorted(m)
            assert got.dtype == values.dtype
            assert np.array_equal(got, values)
            assert delta_hyperbolicity(m) == delta

    @pytest.mark.parametrize("rows", list(BLOCK_ROWS))
    def test_nan_is_refused_in_any_block(self, monkeypatch, rows):
        rng = np.random.default_rng(9)
        d = tree_metric(20, rng).astype(float)
        monkeypatch.setattr(qi_verify, "BLOCK_ENTRIES", BLOCK_ROWS[rows](20))
        for x, w in ((0, 19), (7, 8), (19, 0)):
            bad = d.copy()
            bad[x, w] = bad[w, x] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                delta_hyperbolicity(bad)

    def test_traced_peak_holds_no_sorted_copy(self, monkeypatch):
        rng = np.random.default_rng(10)
        n, rows = 400, 8
        d = tree_metric(n, rng).astype(np.int16)
        monkeypatch.setattr(qi_verify, "BLOCK_ENTRIES", rows * n)
        tracemalloc.start()
        try:
            assert delta_hyperbolicity(d) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int32 doubled products, the zero test's two bool tables, and one
        # sorted int32 block with its mask
        assert peak <= 6 * n * n + 5 * rows * n + 64 * n + (1 << 16)


class TestFitQI:
    def test_identity_fit(self):
        ds = np.linspace(0.5, 10, 200)
        rep = fit_qi([(ds, ds)])
        assert rep.lam == 1.0
        assert rep.sigma == 0.0
        assert rep.violations == 0

    def test_double_scale_fit(self):
        ds = np.linspace(0.5, 10, 200)
        rep = fit_qi([(ds, 2 * ds)])
        assert rep.lam == 2.0
        assert rep.sigma == pytest.approx(0.0, abs=1e-12)

    def test_additive_offset_absorbed(self):
        ds = np.linspace(0.5, 10.0, 200)
        dt = ds + 0.3
        rep = fit_qi([(ds, dt)])
        assert rep.violations == 0
        assert rep.sigma <= 0.3 + 1e-12

    def test_pair_count_and_details(self):
        ds = np.array([1.0, 2.0, 3.0])
        rep = fit_qi([(ds, np.array([2.0, 4.0, 6.0]))])
        assert rep.n_pairs == 3
        assert rep.details["lambda_grid"][0] == 1.0
        assert rep.details["lambda_grid"][1] == 50.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="align"):
            fit_qi([(np.ones(3), np.ones(4))])

    def test_report_repr(self):
        rep = fit_qi([(np.ones(5), np.ones(5))])
        assert "[PASS]" in repr(rep)

    def test_misaligned_later_block_rejected(self):
        with pytest.raises(ValueError, match="align"):
            fit_qi([(np.ones(3), np.ones(3)), (np.ones(2), np.ones(1))])

    @pytest.mark.parametrize("blocks", [[], [(np.ones(0), np.ones(0))] * 3],
                             ids=["no_blocks", "empty_blocks"])
    def test_empty_pair_set_rejected(self, blocks):
        with pytest.raises(ValueError, match="empty"):
            fit_qi(blocks)

    # refused with no warning first, which the filter turns into an error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("blocks", [
        [([1.0, np.nan, 3.0], [1, 2, 3])],
        [([1.0, 2.0, 3.0], [1.0, np.nan, 3.0])],
        [([1.0, np.inf, 3.0], [1, 2, 3])],
        [([1.0, 2.0, 3.0], [1, 2, 3]), ([1.0, np.nan], [1, 2])],
    ], ids=["nan_ds", "nan_dt", "inf_ds", "nan_in_second_block"])
    def test_non_finite_distances_refused(self, blocks):
        with pytest.raises(ValueError, match="NaN or inf"):
            fit_qi([(np.array(ds), np.array(dt)) for ds, dt in blocks])

    def test_one_shot_iterator_refused(self):
        # a second pass, to count violations, would find it exhausted
        ds = np.linspace(0.5, 10, 20)
        for blocks in (iter([(ds, ds)]), ((ds, ds) for _ in range(2))):
            with pytest.raises(TypeError, match="re-iterable"):
                fit_qi(blocks)


def _reference_sigma_curve(by_min, by_max, lambdas):
    sig = np.zeros(len(lambdas))
    for v, lo in by_min.items():
        sig = np.maximum(sig, v - lambdas * lo)
    for v, hi in by_max.items():
        sig = np.maximum(sig, hi / lambdas - v)
    return np.maximum(sig, 0.0)


def reference_fit_qi(ds, dt, sigma_curve=_reference_sigma_curve):
    """fit_qi as it was before it read only per-value extremes: a float sort
    to group the pairs, then every pair re-checked at the winner."""
    grid = qi_verify.LAMBDA_GRID
    ds = np.asarray(ds, dtype=float).ravel()
    dt = np.asarray(dt).ravel()
    values, inverse = np.unique(np.asarray(dt, dtype=float),
                                return_inverse=True)
    lo = np.full(len(values), np.inf)
    hi = np.full(len(values), -np.inf)
    np.minimum.at(lo, inverse, ds)
    np.maximum.at(hi, inverse, ds)
    by_min = {float(v): float(x) for v, x in zip(values, lo)}
    by_max = {float(v): float(x) for v, x in zip(values, hi)}
    curve = sigma_curve(by_min, by_max, grid)
    best = int(curve.argmin())
    lam = float(grid[best])
    sigma = float(curve[best])
    dtf = dt.astype(float)
    tol = 1e-9 * (1.0 + sigma + lam)
    bad = (dtf > lam * ds + sigma + tol) | (dtf < ds / lam - sigma - tol)
    return qi_verify.QIReport(
        lam=lam, sigma=sigma, n_pairs=int(ds.size),
        violations=int(np.count_nonzero(bad)),
        details={"lambda_grid": [float(grid[0]), float(grid[-1]), len(grid)],
                 "dt_values": len(values),
                 "sigma_upper": float(np.max(dtf - lam * ds)),
                 "sigma_lower": float(np.max(ds / lam - dtf))},
    )


class TestFitQIOracle:
    """fit_qi from per-value extremes against the per-pair reference: the
    same QIReport, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_float_dt(self, seed):
        rng = np.random.default_rng(seed)
        ds = rng.uniform(0.01, 5.0, 300)
        dt = ds * rng.uniform(0.3, 4.0, 300) + rng.normal(0.0, 0.5, 300)
        rep = fit_qi([(ds, dt)])
        assert rep.details["dt_values"] == 300
        assert rep == reference_fit_qi(ds, dt)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, float])
    def test_integer_dt_with_ties(self, dtype):
        rng = np.random.default_rng(11)
        dt = rng.integers(0, 9, 2000)
        ds = 0.5 * dt + rng.uniform(0.0, 1.5, 2000)
        ds[:40] = ds[40:80]  # ties in ds as well
        dt = dt.astype(dtype)
        assert fit_qi([(ds, dt)]) == reference_fit_qi(ds, dt)

    @pytest.mark.parametrize("dt", [np.array([-7, 3, 3, 12, -7]),
                                    np.array([0, 10**12, 5, 10**12, 0]),
                                    np.array([2.5, 0.5, 2.5, 1e9, 0.5])],
                             ids=["negative", "wide_range", "float"])
    def test_sparse_and_negative_values(self, dt):
        ds = np.array([1.0, 2.0, 0.5, 4.0, 3.0])
        assert fit_qi([(ds, dt)]) == reference_fit_qi(ds, dt)

    @pytest.mark.parametrize("ds, dt", [(0.3, 2), (2.0, 0.5), (1.0, 0)])
    def test_single_pair(self, ds, dt):
        ds, dt = np.array([ds]), np.array([dt])
        rep = fit_qi([(ds, dt)])
        assert rep.n_pairs == 1 and rep.details["dt_values"] == 1
        assert rep == reference_fit_qi(ds, dt)

    @pytest.mark.parametrize("dtype", [np.int32, float])
    @pytest.mark.parametrize("offsets", [(-1.0, 0.0), (0.0, 1.0),
                                         (-1.0, 0.0, 0.0, 1.0)],
                             ids=["over", "under", "both"])
    def test_violations_counted_per_pair(self, monkeypatch, dtype, offsets):
        # The fit covers every extreme, so it never violates on its own; an
        # all-zero curve (lam = 1, sigma = 0) makes each pair with dt != ds
        # a violation: dt above the band where ds < dt, below it where
        # ds > dt.
        rng = np.random.default_rng(3)
        dt = rng.integers(0, 6, 500).astype(dtype)
        ds = dt + rng.choice(offsets, 500)
        zero = lambda *args: np.zeros(len(qi_verify.LAMBDA_GRID))
        monkeypatch.setattr(qi_verify, "_sigma_curve", zero)
        rep = fit_qi([(ds, dt)])
        assert (rep.lam, rep.sigma) == (1.0, 0.0)
        assert rep.violations == np.count_nonzero(dt != ds) > 0
        assert rep == reference_fit_qi(ds, dt, sigma_curve=zero)
        blocks = [(ds[a:b], dt[a:b]) for a, b in ((0, 120), (120, 121),
                                                  (121, 500))]
        assert fit_qi(blocks) == rep

    @pytest.mark.parametrize("seed", range(200))
    def test_random_splits(self, seed):
        # the pairs in a random order, cut into k blocks, some of them empty
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 400))
        ds = rng.uniform(0.01, 5.0, size)
        if seed % 2:
            dt = (ds * rng.uniform(0.3, 4.0, size)).round().astype(
                rng.choice([np.int16, np.int32, np.int64]))
            if seed % 5 == 1:
                dt[rng.integers(size)] = -30000  # a wide, negative range
        else:
            dt = ds * rng.uniform(0.3, 4.0, size) + rng.normal(0.0, 0.5, size)
        order = rng.permutation(size)
        k = int(rng.integers(1, 8))
        cuts = np.sort(rng.integers(0, size + 1, k - 1))
        blocks = [(ds[part], dt[part]) for part in np.split(order, cuts)]
        if seed % 3 == 0:
            blocks.insert(int(rng.integers(k + 1)), (ds[:0], dt[:0]))
        whole = fit_qi([(ds, dt)])
        assert fit_qi(blocks) == whole == reference_fit_qi(ds, dt)

    def test_pipeline_pairs(self, flagship_result):
        res = flagship_result
        upper = np.triu(np.ones((res.grid.n_points,) * 2, dtype=bool), k=1)
        ds = res.grid.dist_matrix[upper]
        dt = res.embedding.all_pairs_dist[upper]
        assert res.qi == reference_fit_qi(ds, dt)


def _class_blocks(seed, n_blocks=4):
    """Random (values, classes) blocks over one set of class values, with
    integer dt in a narrow range, and the same pairs as plain arrays."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.01, 5.0, int(rng.integers(1, 30)))
    blocks = []
    for _ in range(n_blocks):
        shape = tuple(rng.integers(0, 40, size=int(rng.integers(1, 3))))
        classes = rng.integers(0, values.size, shape)
        dt = ((values[classes] * rng.uniform(0.5, 3.0, shape)).round()
              + int(rng.integers(-3, 4))).astype(np.int32)
        blocks.append(((values, classes), dt))
    ds = np.concatenate([values[c].ravel() for (_, c), _ in blocks])
    dt = np.concatenate([dt.ravel() for _, dt in blocks])
    return blocks, ds, dt


class TestClassBlocks:
    """fit_qi over blocks that give ds as (values, classes), meaning
    values[classes], against the same pairs given one distance each."""

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("kind, params", [
        ("circle", {"n": 10}), ("interval", {"n": 9}),
        ("cantor", {"depth": 3}), ("tree_boundary", {"depth": 3}),
        ("random_circle", {"n": 11}), ("visual_circle", {"n": 12}),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_level_pairs_fit_as_the_upper_triangle(self, kind, params, depth):
        res = run_pipeline(PipelineConfig(generator=kind, params=params,
                                          depth=depth, tree_delta_check=False))
        grid, product = res.grid, res.embedding.all_pairs_dist
        upper = np.triu_indices(grid.n_points, k=1)
        whole = fit_qi([(grid.dist_matrix[upper], product[upper])])
        assert res.qi == whole
        assert fit_qi(harness._LevelPairs(grid, product)) == whole

    @pytest.mark.parametrize("seed", range(40))
    def test_either_reduction_is_the_per_pair_fit(self, monkeypatch, seed):
        # the presence table and values[classes], each forced, and the size
        # rule's own choice all give the per-pair reference's report
        blocks, ds, dt = _class_blocks(seed)
        want = reference_fit_qi(ds, dt)
        chosen, by_presence = [], qi_verify._by_presence

        def rule(width, n_classes, size):
            chosen.append(by_presence(width, n_classes, size))
            return chosen[-1]

        for forced in (lambda *args: True, lambda *args: False, rule):
            monkeypatch.setattr(qi_verify, "_by_presence", forced)
            assert fit_qi(blocks) == want
        if seed == 0:
            assert True in chosen and False in chosen

    @pytest.mark.parametrize("presence", [True, False])
    def test_violations_counted_over_values_of_classes(self, monkeypatch,
                                                       presence):
        # an all-zero curve (lam = 1, sigma = 0) makes each pair with
        # dt != ds a violation, counted over values[classes]
        blocks, ds, dt = _class_blocks(3)
        zero = lambda *args: np.zeros(len(qi_verify.LAMBDA_GRID))
        monkeypatch.setattr(qi_verify, "_sigma_curve", zero)
        monkeypatch.setattr(qi_verify, "_by_presence", lambda *args: presence)
        rep = fit_qi(blocks)
        assert rep.violations == np.count_nonzero(dt != ds) > 0
        assert rep == reference_fit_qi(ds, dt, sigma_curve=zero)

    @pytest.mark.parametrize("presence", [True, False])
    def test_circle_pipeline_either_reduction(self, monkeypatch, presence,
                                              flagship_result):
        res = flagship_result
        monkeypatch.setattr(qi_verify, "_by_presence", lambda *args: presence)
        blocks = harness._LevelPairs(res.grid, res.embedding.all_pairs_dist)
        assert fit_qi(blocks) == res.qi

    # refused with no warning first, which the filter turns into an error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("presence", [True, False])
    def test_non_finite_class_value_refused(self, monkeypatch, bad, presence):
        monkeypatch.setattr(qi_verify, "_by_presence", lambda *args: presence)
        values = np.array([1.0, bad, 3.0])
        blocks = [((values, np.array([[0, 2], [2, 0]])), np.array([[1, 3], [3, 1]])),
                  ((values, np.array([0, 1, 1])), np.array([2, 2, 3]))]
        with pytest.raises(ValueError, match="NaN or inf"):
            fit_qi(blocks)

    def test_unused_non_finite_class_value_is_no_distance(self):
        values = np.array([1.0, np.nan, 3.0])
        classes, dt = np.array([0, 2, 2]), np.array([1, 3, 3])
        assert fit_qi([((values, classes), dt)]) == fit_qi(
            [(values[classes], dt)])

    def test_misaligned_classes_rejected(self):
        values = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="align"):
            fit_qi([((values, np.zeros((2, 3), dtype=int)), np.ones(6))])


class TestVisualCircle:
    def test_distances_are_half_chords(self):
        sp = visual_metric_circle(4)
        assert sp.dist[0, 1] == pytest.approx(math.sin(math.pi / 4))
        assert sp.dist[0, 2] == pytest.approx(1.0)
        assert sp.diameter == pytest.approx(1.0)

    def test_is_valid_metric(self):
        sp = visual_metric_circle(97)
        assert sp.n == 97
        assert sp.meta["kind"] == "visual_circle"

    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match="at least 2"):
            visual_metric_circle(1)
