"""Metric space construction, validation, and signed neighborhoods."""

import numpy as np
import pytest

import conetrees.io as bundle_io
from conetrees import (
    FiniteMetricSpace,
    LadderConstructionError,
    MetricError,
    Subset,
    build_level,
    metric_core,
)
from conetrees.harness import GENERATORS, generate


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
    raise AssertionError("the O(n^3) loop ran on a circulant matrix")


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
    """`_min_path` against the loop, which stays the oracle."""

    def test_best_equals_loop(self):
        violating = 0
        for seed in SEEDS:
            d = seeded_circulant(seed)
            best = loop_min_path(d)
            assert np.array_equal(metric_core._min_path(d), best), seed
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
        assert np.array_equal(metric_core._min_path(d), loop_min_path(d))

    def test_circle_read_back_from_space_file(self, tmp_path, monkeypatch):
        path = tmp_path / "space.json"
        bundle_io.write_space(path, generate("circle", n=96))
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        d = bundle_io.read_space(path).dist
        assert np.array_equal(metric_core._min_path(d), loop_min_path(d))

    def test_circle_never_runs_the_loop(self, monkeypatch):
        monkeypatch.setattr(metric_core, "_min_path_loop", _refuse_loop)
        assert generate("circle", n=1024).n == 1024

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        """The size of each matrix the loop runs on."""
        calls = []

        def counted(d):
            calls.append(d.shape[0])
            return loop_min_path(d)

        monkeypatch.setattr(metric_core, "_min_path_loop", counted)
        return calls

    def test_random_circle_runs_the_loop(self, loop_calls):
        generate("random_circle", n=40)
        assert loop_calls == [40]

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

    def test_subset_view(self):
        sp = line_space(11)
        sub = sp.subset([0, 2, 4])
        assert len(sub) == 3
        assert 2 in sub and 3 not in sub
        assert sub.diameter() == 4.0


class TestNeighborhoods:
    def test_open_ball_strict(self):
        sp = line_space(11)
        u = Subset(sp, frozenset({3}))
        # open radius 1.5 reaches exactly one step either way
        assert set(u.neighborhood(1.5).indices) == {2, 3, 4}
        # boundary is excluded: radius 1.0 reaches nothing new
        assert set(u.neighborhood(1.0).indices) == {3}

    def test_zero_radius_is_identity(self):
        sp = line_space(11)
        u = Subset(sp, frozenset({1, 5}))
        assert u.neighborhood(0.0).indices == u.indices
        assert u.closed_neighborhood(0.0).indices == u.indices

    def test_erosion(self):
        sp = line_space(11)
        u = Subset(sp, frozenset(range(6)))
        # complement starts at 6; keep points strictly deeper than 2
        assert set(u.neighborhood(-2.0).indices) == {0, 1, 2, 3}

    def test_erosion_of_whole_space_is_identity(self):
        sp = line_space(11)
        w = sp.whole()
        assert w.neighborhood(-100.0).indices == w.indices

    def test_closed_ball_includes_boundary(self):
        sp = line_space(11)
        u = Subset(sp, frozenset({3}))
        assert set(u.closed_neighborhood(1.0).indices) == {2, 3, 4}

    def test_empty_subset(self):
        sp = line_space(5)
        e = Subset(sp, frozenset())
        assert e.is_empty
        assert e.neighborhood(3.0).is_empty
        assert e.dist_to_points() is not None
        assert np.all(np.isinf(e.dist_to_points()))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        sp = generate("random_circle", n=40, seed=3)
        for _ in range(50):
            k = rng.integers(1, 10)
            idx = frozenset(rng.choice(40, size=k, replace=False).tolist())
            u = Subset(sp, idx)
            r = float(rng.uniform(0, 1.2))
            assert set(u.neighborhood(r).indices) == brute_open_ball(sp, idx, r)
            assert set(u.neighborhood(-r).indices) == brute_erosion(sp, idx, r)

    def test_inclusion_lemma(self):
        # growing an eroded set by no more than the erosion radius stays inside
        rng = np.random.default_rng(11)
        sp = line_space(30, spacing=0.5)
        for _ in range(50):
            k = rng.integers(1, 20)
            idx = frozenset(rng.choice(30, size=k, replace=False).tolist())
            u = Subset(sp, idx)
            m = float(rng.uniform(0.1, 4.0))
            t = float(rng.uniform(0.0, m))
            grown = u.neighborhood(-m).neighborhood(t)
            assert grown.indices <= u.indices


class TestLambdaNet:
    def test_grid_net(self):
        coords = np.linspace(0, 10, 21)
        d = np.abs(coords[:, None] - coords[None, :])
        sp = FiniteMetricSpace(d, tuple(f"g{i}" for i in range(21)))
        x = Subset(sp, frozenset({0, 10, 20}))  # coords 0, 5, 10
        assert x.is_lambda_net(2.5)
        assert not x.is_lambda_net(2.4)

    def test_whole_space_is_zero_net(self):
        sp = line_space(5)
        assert sp.whole().is_lambda_net(0.0)


class TestDistances:
    def test_dist_sets(self):
        sp = line_space(11)
        a = Subset(sp, frozenset({0, 1}))
        b = Subset(sp, frozenset({5, 9}))
        assert a.dist_sets(b) == 4.0

    def test_dist_sets_overlapping_is_zero(self):
        sp = line_space(11)
        a = Subset(sp, frozenset({0, 1, 2}))
        b = Subset(sp, frozenset({2, 3}))
        assert a.dist_sets(b) == 0.0

    def test_dist_sets_empty_is_inf(self):
        sp = line_space(11)
        a = Subset(sp, frozenset({0}))
        e = Subset(sp, frozenset())
        assert np.isinf(a.dist_sets(e))

    def test_subset_diameter(self):
        sp = line_space(11)
        assert Subset(sp, frozenset({2, 5, 7})).diameter() == 5.0
        assert Subset(sp, frozenset({4})).diameter() == 0.0
