"""Metric space construction, validation, and signed neighborhoods."""

import numpy as np
import pytest

import conetrees.io as bundle_io
from conetrees import (
    Family,
    FiniteMetricSpace,
    LadderConstructionError,
    MetricError,
    build_grid,
    build_level,
    metric_core,
)
from conetrees.harness import GENERATORS, generate
from setcalc import closed_hood, diameter, dist_sets, dist_to, hood


def line_space(n=11, spacing=1.0):
    coords = np.arange(n) * spacing
    d = np.abs(coords[:, None] - coords[None, :]).astype(float)
    return FiniteMetricSpace(d, tuple(f"x{i}" for i in range(n)))


def brute_open_ball(space, indices, r):
    d = space.dist
    out = set()
    for z in range(space.n):
        if any(d[z, i] < r for i in indices):
            out.add(z)
    return out


def brute_erosion(space, indices, m):
    d = space.dist
    comp = [z for z in range(space.n) if z not in indices]
    out = set()
    for z in indices:
        if not comp or min(d[z, c] for c in comp) > m:
            out.add(z)
    return out


class TestValidation:
    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricError, match="symmetric"):
            FiniteMetricSpace(d, ("a", "b"))

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(MetricError, match="diagonal"):
            FiniteMetricSpace(d, ("a", "b"))

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(MetricError, match="negative"):
            FiniteMetricSpace(d, ("a", "b"))

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0],
                      [1.0, 0.0, 1.0],
                      [5.0, 1.0, 0.0]])
        with pytest.raises(MetricError, match="triangle"):
            FiniteMetricSpace(d, ("a", "b", "c"))

    def test_rejects_zero_offdiagonal(self):
        d = np.zeros((3, 3))
        d[0, 2] = d[2, 0] = 1.0
        d[1, 2] = d[2, 1] = 1.0
        with pytest.raises(MetricError, match="zero distance"):
            FiniteMetricSpace(d, ("a", "b", "c"))

    def test_zero_distance_message_equals_off_diagonal_formula(self):
        # the first zero off the diagonal in row-major order, -0.0 included,
        # as the check found it when it added +inf to the diagonal
        rng = np.random.default_rng(7)
        zeros = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            d = rng.integers(0, 3, size=(n, n)) / 2 + 1.0
            d[rng.random((n, n)) < 0.1] = 0.0
            d = np.triu(d, k=1)
            d = d + d.T
            d[(d == 0) & (rng.random((n, n)) < 0.5)] = -0.0
            off = d + np.diag(np.full(n, np.inf))
            ids = tuple(f"x{i}" for i in range(n))
            if not np.any(off == 0):
                FiniteMetricSpace(d, ids)
                continue
            zeros += 1
            i, k = np.argwhere(off == 0)[0]
            with pytest.raises(MetricError) as err:
                FiniteMetricSpace(d, ids)
            assert str(err.value) == \
                f"zero distance between distinct points {i} and {k}"
        assert 100 <= zeros <= 250

    @pytest.mark.parametrize("rel_tol", [np.inf, np.nan, -1e-9],
                             ids=["inf", "nan", "negative"])
    def test_rejects_bad_rel_tol(self, rel_tol):
        # an inf or NaN slack would pass this triangle violation
        d = np.array([[0.0, 1.0, 5.0],
                      [1.0, 0.0, 1.0],
                      [5.0, 1.0, 0.0]])
        with pytest.raises(MetricError, match="rel_tol must be finite and "
                                              "nonnegative"):
            FiniteMetricSpace(d, ("a", "b", "c"), rel_tol=rel_tol)

    def test_accepts_default_and_zero_rel_tol(self):
        d = np.array([[0.0, 1.0, 2.0],
                      [1.0, 0.0, 1.0],
                      [2.0, 1.0, 0.0]])
        assert FiniteMetricSpace(d, ("a", "b", "c")).rel_tol == 1e-9
        assert FiniteMetricSpace(d, ("a", "b", "c"), rel_tol=0.0).rel_tol == 0.0

    def test_rejects_id_mismatch(self):
        with pytest.raises(MetricError, match="point ids"):
            FiniteMetricSpace(np.zeros((1, 1)), ("a", "b"))

    def test_accepts_single_point(self):
        sp = FiniteMetricSpace(np.zeros((1, 1)), ("a",))
        assert sp.diameter == 0.0
        assert sp.min_gap == 0.0


GENERATOR_PARAMS = {"circle": {"n": 96}, "interval": {"n": 60},
                    "cantor": {"depth": 6}, "tree_boundary": {"depth": 6},
                    "random_circle": {"n": 120, "seed": 3},
                    "visual_circle": {"n": 64}}


@pytest.mark.parametrize("kind", GENERATORS)
def test_generator_matrix_exactly_symmetric(tmp_path, kind):
    # every stock space, and its space file read back, equals its transpose
    sp = generate(kind, **GENERATOR_PARAMS[kind])
    assert np.array_equal(sp.dist, sp.dist.T)
    path = tmp_path / "space.json"
    bundle_io.write_space(path, sp)
    back = bundle_io.read_space(path).dist
    assert np.array_equal(back, sp.dist)
    assert np.array_equal(back, back.T)


def loop_min_path(d):
    """The O(n^3) min-plus loop: best[i, k] = min_j (d[i, j] + d[j, k])."""
    n = d.shape[0]
    best = np.full((n, n), np.inf)
    for j in range(n):
        np.minimum(best, d[:, j, None] + d[None, j, :], out=best)
    return best


def loop_triangle_message(d, rel_tol=1e-9):
    """The triangle error the loop gives for d, or None if d passes."""
    best = loop_min_path(d)
    bad = d > best + rel_tol * np.maximum(d, 1.0)
    if not bad.any():
        return None
    i, k = np.argwhere(bad)[0]
    return (f"triangle inequality fails at ({i},{k}): "
            f"d={d[i, k]:.6g} > min path {best[i, k]:.6g}")


def seeded_circulant(seed):
    """A symmetric circulant matrix, row i = g rolled right by i, with n in
    1..60 and values in [1, 2]: quarter-integers for even seed // 60, floats
    for odd.  Three in four raise one symmetric pair of g by 0 (a tie),
    1e-10 (inside the slack), 1, 2 or 3, which often breaks the triangle
    inequality."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 60
    if seed // 60 % 2:
        g = rng.uniform(1.0, 2.0, n)
    else:
        g = rng.integers(4, 9, n) / 4.0
    if n > 2 and rng.random() < 0.75:
        t = int(rng.integers(1, n))
        g[t] = g[n - t] = g[t] + rng.choice([0.0, 1e-10, 1.0, 2.0, 3.0])
    g = np.minimum(g, g[-np.arange(n) % n])
    g[0] = 0.0
    return np.array([np.roll(g, i) for i in range(n)])


SEEDS = range(120)


def _refuse_loop(d):
    raise AssertionError("the O(n^3) loop ran on a matrix with a "
                         "certificate")


@pytest.fixture
def loop_calls(monkeypatch):
    """The size of each matrix the loop runs on."""
    calls = []

    def counted(d):
        calls.append(d.shape[0])
        return loop_min_path(d)

    monkeypatch.setattr(metric_core, "_min_path_loop", counted)
    return calls


def formula_circle_dist(n, circumference):
    """The circle's matrix as an n x n table of step counts: the arc between
    points i and k is circumference / n times min(|i - k|, n - |i - k|)."""
    k = np.arange(n)
    steps = np.abs(k[:, None] - k[None, :])
    return (circumference / n) * np.minimum(steps, n - steps)


class TestCirculant:
    def test_rows_rolled_right(self):
        v = np.arange(5.0)
        c = metric_core.circulant(v)
        assert np.array_equal(c, [np.roll(v, i) for i in range(5)])
        assert not c.flags.writeable

    def test_circle_equals_step_formula(self):
        for n in [*range(3, 70), 255, 256, 1024]:
            for c in (2 * np.pi, 1.0, 7.3):
                d = generate("circle", n=n, circumference=c).dist
                assert np.array_equal(d, formula_circle_dist(n, c)), (n, c)
                assert d.flags.writeable and d.flags.c_contiguous


class TestCirculantMinPath:
    """`_circulant_min_path` against the loop, which stays the oracle, on
    matrices that `_is_circulant` routes to it."""

    def test_best_equals_loop(self):
        violating = 0
        for seed in SEEDS:
            d = seeded_circulant(seed)
            best = loop_min_path(d)
            assert metric_core._is_circulant(d), seed
            assert np.array_equal(metric_core._circulant_min_path(d), best), seed
            violating += loop_triangle_message(d) is not None
        assert 40 <= violating <= 80

    def test_verdict_and_message_equal_loop(self):
        for seed in SEEDS:
            d = seeded_circulant(seed)
            ids = tuple(f"x{i}" for i in range(d.shape[0]))
            expected = loop_triangle_message(d)
            if expected is None:
                FiniteMetricSpace(d, ids)
                continue
            with pytest.raises(MetricError) as err:
                FiniteMetricSpace(d, ids)
            assert str(err.value) == expected, seed

    def test_circle(self):
        d = generate("circle", n=192).dist
        assert metric_core._is_circulant(d)
        assert np.array_equal(metric_core._circulant_min_path(d), loop_min_path(d))

    def test_circle_read_back_from_space_file(self, tmp_path, monkeypatch):
        path = tmp_path / "space.json"
        bundle_io.write_space(path, generate("circle", n=96))
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        d = bundle_io.read_space(path).dist
        assert metric_core._is_circulant(d)
        assert np.array_equal(metric_core._circulant_min_path(d), loop_min_path(d))

    @pytest.mark.parametrize("kind", ["circle", "random_circle"])
    def test_circulance_is_decided_once(self, monkeypatch, kind):
        # once to pick the path, and never again inside it
        calls = []
        is_circulant = metric_core._is_circulant

        def counted(d):
            calls.append(d.shape[0])
            return is_circulant(d)

        monkeypatch.setattr(metric_core, "_is_circulant", counted)
        space = generate(kind, n=64)
        assert calls == [64]
        # the cone grid reads the verdict off the space's class map
        assert (space.classes is not None) == (kind == "circle")
        grid = build_grid(space, r=0.125, depth=2)
        assert grid.dist_matrix.shape == (129, 129)
        assert calls == [64]

    def test_circle_never_runs_the_loop(self, monkeypatch):
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        assert generate("circle", n=1024).n == 1024

    def test_chord_spaces_never_run_the_loop(self, loop_calls):
        for seed in range(5):
            assert generate("random_circle", n=160, seed=seed).n == 160
        for n in (2, 3, 64, 161):
            assert generate("visual_circle", n=n).n == n
        assert loop_calls == []

    def test_raised_random_circle_pair_runs_the_loop_and_is_refused(
            self, loop_calls):
        # neighbors two apart: the chord through the point between them is
        # longer by far less than 1e-3
        sp = generate("random_circle", n=160)
        d = sp.dist.copy()
        d[3, 5] += 1e-3
        d[5, 3] += 1e-3
        with pytest.raises(MetricError) as err:
            FiniteMetricSpace(d, sp.point_ids, sp.meta)
        assert loop_calls == [160]
        assert str(err.value) == loop_triangle_message(d)
        assert str(err.value).startswith("triangle inequality fails at "
                                         "(3,5): ")

    def test_raised_circle_pair_runs_the_loop_and_is_refused(self,
                                                              loop_calls):
        d = generate("circle", n=48).dist.copy()
        d[3, 10] += 1e-3
        d[10, 3] += 1e-3
        with pytest.raises(MetricError) as err:
            FiniteMetricSpace(d, tuple(f"p{i}" for i in range(48)))
        assert loop_calls == [48]
        assert str(err.value) == loop_triangle_message(d)
        assert str(err.value) == ("triangle inequality fails at (3,10): "
                                  "d=0.917298 > min path 0.916298")


def chord_dist(angles, radius):
    """The chord matrix of the angles, as random_circle computes it."""
    a = np.asarray(angles)
    diff = np.abs(a[:, None] - a[None, :])
    diff = np.minimum(diff, 2.0 * np.pi - diff)
    return (2.0 * radius) * np.sin(diff / 2.0)


# the certificate each stock generator takes; circle is circulant instead
CERTIFICATE = {"interval": "line", "cantor": "line",
               "tree_boundary": "ultrametric", "random_circle": "chord",
               "visual_circle": "chord"}

# stock spaces the loop can still check
ORACLE_SPACES = (
    [("interval", {"n": n}) for n in (2, 3, 17, 60, 200)]
    + [("interval", {"n": 50, "length": 1e6})]
    + [("cantor", {"depth": k}) for k in range(1, 8)]
    + [("tree_boundary", {"depth": k}) for k in range(1, 8)]
    + [("tree_boundary", {"depth": 4, "branching": 3})]
    + [("random_circle", {"n": n, "seed": s}) for n in (3, 40, 200)
       for s in range(3)]
    + [("visual_circle", {"n": n}) for n in (2, 3, 64, 200)])


def vouching(sp):
    """Names of the certificates that vouch for the space's matrix."""
    return [c.__name__.removeprefix("_").removesuffix("_certificate")
            for c in metric_core._CERTIFICATES
            if c(sp.dist, sp.meta, sp.rel_tol)]


def _lied(kind, params, **changes):
    """The stock space's matrix with its meta changed: key=value sets,
    key=callable maps the old value."""
    sp = generate(kind, **params)
    meta = dict(sp.meta)
    for key, change in changes.items():
        meta[key] = change(meta[key]) if callable(change) else change
    return sp.dist, meta, sp.rel_tol


def _entry(i, value):
    def change(values):
        values = list(values)
        values[i] = value
        return values
    return change


def _chord_space(angles, radius, rel_tol):
    """A chord matrix, and meta that tells its angles and radius truly."""
    return chord_dist(angles, radius), {"metric": "chord", "radius": radius,
                                        "angles": list(angles)}, rel_tol


def _clustered_chord():
    # within 1e-7 of one angle, a chord is a straight segment to rounding,
    # and 2 * 0.3 rounds, so the loop at rel_tol 0 refuses a triangle
    a = np.sort(1.0 + np.random.default_rng(5).uniform(0.0, 1e-7, 40))
    return _chord_space(a.tolist(), 0.3, 0.0)


def _random_matrix(seed, high):
    # entries in [1, high]: a metric when high <= 2, often not above
    rng = np.random.default_rng(seed)
    d = np.triu(rng.uniform(1.0, high, (50, 50)), k=1)
    return d + d.T, {}, 1e-9


CHORD = ("random_circle", {"n": 120, "seed": 3})
LINE = ("cantor", {"depth": 6})

# a matrix and meta for which every certificate declines
DECLINED = {
    "chord_other_seed": lambda: _lied(
        *CHORD, angles=_lied("random_circle", {"n": 120, "seed": 4})[1]
        ["angles"]),
    "chord_nan": lambda: _lied(*CHORD, angles=_entry(5, float("nan"))),
    "chord_string": lambda: _lied(*CHORD, angles=_entry(5, "0.5")),
    "chord_ragged": lambda: _lied(*CHORD, angles=_entry(5, [0.5, 0.6])),
    "chord_short": lambda: _lied(*CHORD, angles=lambda a: a[:-1]),
    "chord_past_2pi": lambda: _chord_space(
        [t + 2.0 * np.pi for t in _lied(*CHORD)[1]["angles"]], 1.0, 1e-9),
    "chord_radius_2": lambda: _lied(*CHORD, radius=2.0),
    "chord_radius_int": lambda: _lied(*CHORD, radius=1),
    "chord_radius_string": lambda: _lied(*CHORD, radius="1"),
    # 2**-40 times a subnormal radius rounds to 0, and the loop refuses
    "chord_radius_subnormal": lambda: _chord_space(
        _lied(*CHORD)[1]["angles"], 2.0 ** -1050, 0.0),
    "chord_no_metric": lambda: _lied(*CHORD, metric="arc"),
    "chord_rel_tol_0": lambda: (*_lied(*CHORD)[:2], 0.0),
    "chord_rel_tol_0_refused": _clustered_chord,
    "line_shuffled": lambda: _lied(
        *LINE, coords=lambda x: np.random.default_rng(0).permutation(x)
        .tolist()),
    "line_nan": lambda: _lied(*LINE, coords=_entry(7, float("nan"))),
    "line_string": lambda: _lied(*LINE, coords=_entry(7, "x")),
    "line_none": lambda: _lied(*LINE, coords=_entry(7, None)),
    "line_ragged": lambda: _lied(*LINE, coords=_entry(7, [0.5])),
    "line_long": lambda: _lied(*LINE, coords=lambda x: x + [2.0]),
    "line_rel_tol_0_refused": lambda: (*_lied("interval", {"n": 60})[:2], 0.0),
    "meta_not_a_dict": lambda: (_lied(*LINE)[0], None, 1e-9),
    "random_metric": lambda: _random_matrix(0, 2.0),
    "random_non_metric": lambda: _random_matrix(1, 3.0),
}


class TestCertificates:
    """The chord, line and ultrametric certificates against the loop, which
    stays the oracle."""

    @pytest.mark.parametrize("kind,params", ORACLE_SPACES,
                             ids=[f"{k}-{p}" for k, p in ORACLE_SPACES])
    def test_certified_stock_space_passes_the_loop(self, kind, params,
                                                   monkeypatch):
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        sp = generate(kind, **params)
        assert CERTIFICATE[kind] in vouching(sp)
        assert loop_triangle_message(sp.dist, sp.rel_tol) is None

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_space_file_takes_its_certificate(self, tmp_path, monkeypatch,
                                              kind):
        # meta travels in the file, so the matrix read back is vouched for
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        sp = generate(kind, **GENERATOR_PARAMS[kind])
        path = tmp_path / "space.json"
        bundle_io.write_space(path, sp)
        back = bundle_io.read_space(path)
        assert np.array_equal(back.dist, sp.dist)
        assert back.meta == sp.meta

    @pytest.mark.parametrize("case", DECLINED)
    def test_declined_matrix_gets_the_loops_verdict(self, loop_calls, case):
        d, meta, rel_tol = DECLINED[case]()
        if isinstance(meta, dict):
            assert not any(vouch(d, meta, rel_tol)
                           for vouch in metric_core._CERTIFICATES)
        ids = tuple(f"x{i}" for i in range(len(d)))
        expected = loop_triangle_message(d, rel_tol)
        if expected is None:
            FiniteMetricSpace(d, ids, meta, rel_tol)
        else:
            with pytest.raises(MetricError) as err:
                FiniteMetricSpace(d, ids, meta, rel_tol)
            assert str(err.value) == expected
        assert loop_calls == [len(d)]

    def test_declined_cases_reach_both_verdicts(self):
        refused = []
        for case, make in DECLINED.items():
            d, _, rel_tol = make()
            if loop_triangle_message(d, rel_tol):
                refused.append(case)
        assert sorted(refused) == ["chord_radius_subnormal",
                                   "chord_rel_tol_0_refused",
                                   "line_rel_tol_0_refused",
                                   "random_non_metric"]

    @pytest.mark.parametrize("kind", CERTIFICATE)
    @pytest.mark.parametrize("step", [np.inf, -np.inf], ids=["up", "down"])
    def test_one_ulp_off_runs_the_loop(self, loop_calls, kind, step):
        sp = generate(kind, **GENERATOR_PARAMS[kind])
        d = sp.dist.copy()
        i, k = 1, sp.n // 2
        d[i, k] = d[k, i] = np.nextafter(d[i, k], step)
        assert loop_triangle_message(d) is None
        FiniteMetricSpace(d, sp.point_ids, sp.meta)
        assert loop_calls == [sp.n]

    def test_cantor_depth_12_is_certified(self, monkeypatch):
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        assert generate("cantor", depth=12).n == 4096

    def test_cantor_depth_13_is_refused(self):
        with pytest.raises(ValueError, match=r"cantor depth must be in "
                                             r"1\.\.12, got 13"):
            generate("cantor", depth=13)


def subdominant_ultrametric(d):
    """The largest ultrametric below d: the least, over paths, of the path's
    longest step, by one minimax pass per intermediate point."""
    u = d.copy()
    for j in range(len(d)):
        np.minimum(u, np.maximum(u[:, j, None], u[None, j, :]), out=u)
    return u


def random_ultrametric(seed, n=30):
    """Distances of n points to one another through a random merge tree,
    with ties: each merge joins two clusters at a height drawn from 1..5
    above the taller of them."""
    rng = np.random.default_rng(seed)
    clusters, height = [[i] for i in range(n)], [0.0] * n
    d = np.zeros((n, n))
    while len(clusters) > 1:
        a, b = sorted(rng.choice(len(clusters), 2, replace=False), reverse=True)
        h = max(height[a], height[b]) + float(rng.integers(1, 6))
        d[np.ix_(clusters[a], clusters[b])] = h
        d[np.ix_(clusters[b], clusters[a])] = h
        clusters.append(clusters.pop(a) + clusters.pop(b))
        height.append(h)
        del height[a], height[b]
    return d


class TestSpanningTree:
    def test_ties_go_to_the_lowest_index(self):
        # every distance 1: each point joins in index order, through point 0
        order, parent, length = metric_core.spanning_tree(1.0 - np.eye(4))
        assert order.tolist() == [0, 1, 2, 3]
        assert parent.tolist() == [0, 0, 0, 0]
        assert length.tolist() == [0.0, 1.0, 1.0, 1.0]

    def test_is_a_minimum_spanning_tree(self):
        d = _random_matrix(2, 2.0)[0]
        order, parent, length = metric_core.spanning_tree(d)
        assert sorted(order.tolist()) == list(range(50))
        # each parent joins before its child, through that child's distance
        position = np.argsort(order)
        assert (position[parent[1:]] < position[1:]).all()
        assert np.array_equal(length[1:], d[parent[1:], np.arange(1, 50)])
        # the longest step of the tree path is the minimax distance
        tree = np.full_like(d, np.inf)
        tree[parent[1:], np.arange(1, 50)] = length[1:]
        tree = np.minimum(tree, tree.T)
        np.fill_diagonal(tree, 0.0)
        assert np.array_equal(subdominant_ultrametric(tree),
                              subdominant_ultrametric(d))

    def test_empty_matrix(self):
        assert all(len(a) == 0 for a in metric_core.spanning_tree(
            np.zeros((0, 0))))
        assert metric_core._ultrametric_certificate(np.zeros((0, 0)), {}, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_ultrametric_certificate_is_d_equals_its_subdominant(self, seed):
        d = random_ultrametric(seed)
        assert metric_core._ultrametric_certificate(d, {}, 0.0)
        # one entry lowered breaks it, one raised past every path too
        i, k = 3, 17
        for step in (-0.5, 10.0):
            e = d.copy()
            e[i, k] = e[k, i] = d[i, k] + step
            assert metric_core._ultrametric_certificate(e, {}, 0.0) == \
                np.array_equal(e, subdominant_ultrametric(e))
            assert not metric_core._ultrametric_certificate(e, {}, 0.0)
        # a metric that is no ultrametric
        m = _random_matrix(seed, 2.0)[0]
        assert not metric_core._ultrametric_certificate(m, {}, 0.0)


class TestSpaceProperties:
    def test_line_diameter(self):
        assert line_space(11).diameter == 10.0

    def test_line_min_gap(self):
        assert line_space(11).min_gap == 1.0

    def test_circle_diameter(self):
        # 8 points on a circumference-8 circle: antipodal arc length 4
        sp = generate("circle", n=8, circumference=8.0)
        assert sp.diameter == pytest.approx(4.0)
        assert sp.min_gap == pytest.approx(1.0)

    def test_empty_space(self):
        # constructs, and the ladder refuses it rather than the constructor
        sp = FiniteMetricSpace(np.zeros((0, 0)), ())
        assert sp.n == 0
        assert sp.diameter == sp.min_gap == 0.0
        with pytest.raises(LadderConstructionError, match="empty space"):
            build_level(sp, 1.0, 2)


class TestNeighborhoods:
    """The set calculus of `setcalc`, the tests' oracle, against brute
    force, and `Family`'s `dist_rows()`, `depths` and `eroded` against
    both."""

    def test_open_ball_strict(self):
        sp = line_space(11)
        # open radius 1.5 reaches exactly one step either way
        assert hood(sp, {3}, 1.5) == {2, 3, 4}
        # boundary is excluded: radius 1.0 reaches nothing new
        assert hood(sp, {3}, 1.0) == {3}

    def test_zero_radius_is_identity(self):
        sp = line_space(11)
        assert hood(sp, {1, 5}, 0.0) == {1, 5}
        assert closed_hood(sp, {1, 5}, 0.0) == {1, 5}

    def test_erosion(self):
        sp = line_space(11)
        # complement starts at 6; keep points strictly deeper than 2
        assert hood(sp, range(6), -2.0) == {0, 1, 2, 3}

    def test_erosion_of_whole_space_is_identity(self):
        sp = line_space(11)
        assert hood(sp, range(11), -100.0) == frozenset(range(11))
        assert Family(sp, [range(11)]).eroded(100.0).members[0].tolist() == \
            list(range(11))

    def test_closed_ball_includes_boundary(self):
        sp = line_space(11)
        assert closed_hood(sp, {3}, 1.0) == {2, 3, 4}

    def test_empty_subset(self):
        sp = line_space(5)
        assert hood(sp, (), 3.0) == frozenset()
        assert np.all(np.isinf(dist_to(sp, ())))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        sp = generate("random_circle", n=40, seed=3)
        for _ in range(50):
            k = rng.integers(1, 10)
            idx = frozenset(rng.choice(40, size=k, replace=False).tolist())
            r = float(rng.uniform(0, 1.2))
            assert hood(sp, idx, r) == brute_open_ball(sp, idx, r)
            assert hood(sp, idx, -r) == brute_erosion(sp, idx, r)
            if r > 0:
                fam = Family(sp, [sorted(idx)])
                assert set(np.flatnonzero(fam.dist_rows()[0] < r)) == \
                    brute_open_ball(sp, idx, r)
                assert set(np.flatnonzero(fam.depths[0] > r)) == \
                    brute_erosion(sp, idx, r)

    def test_inclusion_lemma(self):
        # growing an eroded set by no more than the erosion radius stays inside
        rng = np.random.default_rng(11)
        sp = line_space(30, spacing=0.5)
        for _ in range(50):
            k = rng.integers(1, 20)
            idx = frozenset(rng.choice(30, size=k, replace=False).tolist())
            m = float(rng.uniform(0.1, 4.0))
            t = float(rng.uniform(0.0, m))
            grown = hood(sp, hood(sp, idx, -m), t)
            assert grown <= idx


class TestDistances:
    def test_dist_sets(self):
        sp = line_space(11)
        assert dist_sets(sp, {0, 1}, {5, 9}) == 4.0

    def test_dist_sets_overlapping_is_zero(self):
        sp = line_space(11)
        assert dist_sets(sp, {0, 1, 2}, {2, 3}) == 0.0

    def test_dist_sets_empty_is_inf(self):
        sp = line_space(11)
        assert np.isinf(dist_sets(sp, {0}, ()))

    def test_subset_diameter(self):
        sp = line_space(11)
        assert diameter(sp, {2, 5, 7}) == 5.0
        assert diameter(sp, {4}) == 0.0
        assert Family(sp, [[2, 5, 7]]).mesh == 5.0
        assert Family(sp, [[4]]).mesh == 0.0
