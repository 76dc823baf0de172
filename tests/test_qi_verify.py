"""Gromov products, hyperbolicity scans, and two-sided distance fitting."""

import math

import numpy as np
import pytest

from conetrees import qi_verify
from conetrees import (
    build_base,
    build_tree,
    delta_hyperbolicity,
    fit_qi,
    gromov_product,
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


class TestGromovProduct:
    def test_through_base_is_zero(self):
        d = line_metric([0.0, -3.0, 4.0])
        assert gromov_product(d, 1, 2, base=0) == pytest.approx(0.0)

    def test_collinear_same_side(self):
        d = line_metric([0.0, 2.0, 5.0])
        assert gromov_product(d, 1, 2, base=0) == pytest.approx(2.0)

    def test_symmetric_in_arguments(self):
        d = line_metric([0.0, 1.0, 7.0, 3.5])
        assert gromov_product(d, 2, 3, base=1) == gromov_product(d, 3, 2, base=1)


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

    def test_narrow_integers_do_not_wrap(self, monkeypatch):
        d = 10000 * np.array([[0, 1, 2, 1],
                              [1, 0, 1, 2],
                              [2, 1, 0, 1],
                              [1, 2, 1, 0]], dtype=np.int16)
        assert delta_hyperbolicity(d) == 10000.0
        monkeypatch.setattr(qi_verify, "THRESHOLD_MAX_VALUES", 0)
        assert delta_hyperbolicity(d) == 10000.0

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

    def test_integer_l1_metrics_match_brute_force_on_both_paths(
            self, monkeypatch):
        rng = np.random.default_rng(29)
        sides = {True: [], False: []}  # threshold path selected -> deltas
        for trial in range(24):
            n = int(rng.integers(12, 21))
            span = (4, 100)[trial % 2]  # few distinct products, then many
            pts = rng.integers(0, span, size=(n, 2))
            d = np.abs(pts[:, None] - pts[None, :]).sum(-1)
            base = int(rng.integers(0, n))
            a = d[base][:, None] + d[base][None, :] - d
            want = brute_delta(d.astype(float), base=base)
            got = delta_hyperbolicity(d, base=base)
            assert got == want
            sides[len(np.unique(a)) <= qi_verify.THRESHOLD_MAX_VALUES].append(got)
            # scan only, then threshold only, in products of 5 rows
            for forced, block in ((0, 128), (n * n, 5)):
                monkeypatch.setattr(qi_verify, "THRESHOLD_MAX_VALUES", forced)
                monkeypatch.setattr(qi_verify, "ROW_BLOCK", block)
                assert delta_hyperbolicity(d, base=base) == want
            monkeypatch.undo()
        for deltas in sides.values():
            assert len(deltas) >= 5
            assert max(deltas) > 0

    def test_both_paths_match_brute_force_on_non_metrics(self, monkeypatch):
        # a tampered certificate input need not satisfy the triangle
        # inequality; the threshold path must still agree with the scan
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
            n = len(d)
            want = brute_delta(d.astype(float), base=base)
            for forced, block in ((0, 128), (n * n, 3)):
                monkeypatch.setattr(qi_verify, "THRESHOLD_MAX_VALUES", forced)
                monkeypatch.setattr(qi_verify, "ROW_BLOCK", block)
                assert delta_hyperbolicity(d, base=base) == want

    def test_threshold_matches_scan_bit_for_bit_on_floats(self, monkeypatch):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0, 1, size=(40, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        scan = delta_hyperbolicity(d, base=3)
        monkeypatch.setattr(qi_verify, "THRESHOLD_MAX_VALUES", d.size)
        assert delta_hyperbolicity(d, base=3) == scan
        assert scan > 0

    def test_raised_tree_distance_fails_through_threshold(self, monkeypatch):
        sp = generate("circle", n=64)
        seq = separate(build_base(sp, r=0.125, depth=2, colors=2))
        d = build_tree(seq, 0).all_pairs_dist.copy()
        u, v = d.shape[0] - 1, d.shape[0] - 2
        d[u, v] += 2
        d[v, u] += 2
        a = d[0][:, None] + d[0][None, :] - d
        assert len(np.unique(a)) <= qi_verify.THRESHOLD_MAX_VALUES
        monkeypatch.setattr(qi_verify, "THRESHOLD_MAX_VALUES", 0)
        want = delta_hyperbolicity(d)
        monkeypatch.undo()

        def no_scan(a):
            raise AssertionError("scan path taken")

        monkeypatch.setattr(qi_verify, "_scan_excess", no_scan)
        assert delta_hyperbolicity(d) == want > 0

    def test_base_point_choice(self):
        d = line_metric([0.0, 1.0, 2.0, 4.0])
        for base in range(4):
            assert delta_hyperbolicity(d, base=base) == pytest.approx(0.0)


class TestFitQI:
    def test_identity_fit(self):
        ds = np.linspace(0.5, 10, 200)
        rep = fit_qi(ds, ds)
        assert rep.lam == 1.0
        assert rep.sigma == 0.0
        assert rep.violations == 0

    def test_double_scale_fit(self):
        ds = np.linspace(0.5, 10, 200)
        rep = fit_qi(ds, 2 * ds)
        assert rep.lam == 2.0
        assert rep.sigma == pytest.approx(0.0, abs=1e-12)

    def test_additive_offset_absorbed(self):
        ds = np.linspace(0.5, 10.0, 200)
        dt = ds + 0.3
        rep = fit_qi(ds, dt)
        assert rep.violations == 0
        assert rep.sigma <= 0.3 + 1e-12

    def test_pair_count_and_details(self):
        ds = np.array([1.0, 2.0, 3.0])
        rep = fit_qi(ds, np.array([2.0, 4.0, 6.0]))
        assert rep.n_pairs == 3
        assert rep.details["lambda_grid"][0] == 1.0
        assert rep.details["lambda_grid"][1] == 50.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="align"):
            fit_qi(np.ones(3), np.ones(4))

    def test_report_repr(self):
        rep = fit_qi(np.ones(5), np.ones(5))
        assert "[PASS]" in repr(rep)


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
