"""The cone distance oracle, sphere distances, and the radial grid."""

import math

import numpy as np
import pytest

from conetrees import ConeError, build_grid
from conetrees.harness import generate
from conetrees.hyp_cone import RADIUS_CAP
from oracles import cone_metric


def hyperboloid_oracle(t1, t2, alpha):
    """Lorentzian inner product of two points placed in the hyperboloid
    model at radii t1, t2 with angle alpha between them."""
    q = math.cosh(t1) * math.cosh(t2) - math.sinh(t1) * math.sinh(t2) * math.cos(alpha)
    return math.acosh(max(q, 1.0))


def cone_dist(space, z1, t1, z2, t2):
    """One entry of `cone_metric`: the distance of (z1, t1) and (z2, t2)."""
    return float(cone_metric(space, [z1, z2], [t1, t2])[0, 1])


def grid_metric(grid):
    """`cone_metric` over the grid's points, in grid point order."""
    return cone_metric(grid.space, grid.point_z, grid.point_level * grid.R)


def stacked_level_rows(grid):
    """Every level's rows, stacked in grid point order."""
    return np.vstack([grid.level_rows(j) for j in range(grid.depth + 1)])


@pytest.fixture(scope="module")
def quarter_circle():
    # 4 points, arc distances pi/2; diameter pi so the angle map is identity
    return generate("circle", n=4)


class TestConeMetricOracle:
    def test_apex_distance_is_radius(self, quarter_circle):
        assert cone_dist(quarter_circle, 0, 0.0, 2, 3.5) == pytest.approx(3.5)

    def test_same_point_radial(self, quarter_circle):
        d = cone_dist(quarter_circle, 1, 0.7, 1, 2.2)
        assert d == pytest.approx(1.5, abs=1e-15)

    def test_right_angle_closed_form(self, quarter_circle):
        # angle pi/2 at equal radii 1: cosh d = 1 + sinh(1)^2 = cosh(1)^2
        d = cone_dist(quarter_circle, 0, 1.0, 1, 1.0)
        assert d == pytest.approx(math.acosh(math.cosh(1.0) ** 2), rel=1e-12)

    def test_symmetry(self, quarter_circle):
        m = cone_metric(quarter_circle, [0, 3], [1.3, 0.4])
        assert m[0, 1] == m[1, 0]

    def test_monotone_in_angle(self):
        sp = generate("circle", n=16)
        dists = [cone_dist(sp, 0, 2.0, z, 2.0) for z in range(9)]
        assert all(a < b for a, b in zip(dists, dists[1:]))

    def test_single_point_space_is_ray(self):
        from conetrees import FiniteMetricSpace
        sp = FiniteMetricSpace(np.zeros((1, 1)), ("o",))
        assert cone_dist(sp, 0, 1.0, 0, 4.0) == 3.0

    def test_matches_hyperboloid_oracle(self):
        sp = generate("circle", n=64)
        mu = math.pi / sp.diameter
        rng = np.random.default_rng(3)
        for _ in range(300):
            z1, z2 = rng.integers(0, 64, size=2)
            t1, t2 = rng.uniform(0, 12, size=2)
            got = cone_dist(sp, int(z1), t1, int(z2), t2)
            if z1 == z2:
                assert got == pytest.approx(abs(t1 - t2), abs=1e-12)
            else:
                want = hyperboloid_oracle(t1, t2, mu * sp.dist[z1, z2])
                assert got == pytest.approx(want, rel=1e-9)

    def test_triangle_inequality(self):
        sp = generate("circle", n=12)
        rng = np.random.default_rng(9)
        m = cone_metric(sp, rng.integers(0, 12, 40), rng.uniform(0, 6, 40))
        slack = 1e-9 * (1 + m.max())
        for i in range(40):
            for j in range(40):
                assert np.all(m[i, j] <= m[i] + m[:, j] + slack)


class TestSphereDistance:
    """Two points at a common radius t and angle tau are at distance d with
    sinh(d/2) = sinh(t) * sin(tau/2)."""

    def test_half_turn_identity(self, quarter_circle):
        # points 0 and 2 of the quarter circle sit at angle pi
        r = math.log(8.0)
        want = 2.0 * math.asinh(63.0 / 16.0)
        assert cone_dist(quarter_circle, 0, r, 2, r) == pytest.approx(want, rel=1e-12)

    def test_zero_angle(self, quarter_circle):
        assert cone_dist(quarter_circle, 1, 2.0, 1, 2.0) == 0.0

    def test_defining_identity(self):
        sp = generate("random_circle", n=200, seed=4)
        mu = math.pi / sp.diameter
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = float(rng.uniform(0.1, 25.0))
            z1, z2 = (int(v) for v in rng.integers(0, sp.n, size=2))
            d = cone_dist(sp, z1, t, z2, t)
            assert math.sinh(d / 2) == pytest.approx(
                math.sinh(t) * math.sin(mu * sp.dist[z1, z2] / 2), rel=1e-9)


class TestConeGrid:
    def test_structure(self):
        sp = generate("circle", n=8)
        grid = build_grid(sp, r=0.25, depth=3)
        assert grid.n_points == 1 + 3 * 8
        assert grid.R == pytest.approx(math.log(4.0))
        # the apex is base point 0 at radius 0
        assert grid.point_z[0] == 0 and grid.point_level[0] == 0
        # level j sits at radius j * R
        idx = grid.index(2, 5)
        assert grid.point_level[idx] * grid.R == 2 * grid.R
        assert grid.point_level[idx] == 2
        assert grid.point_z[idx] == 5

    def test_dist_matrix_is_metric(self):
        sp = generate("circle", n=8)
        grid = build_grid(sp, r=0.25, depth=3)
        m = grid.dist_matrix
        assert m.shape == (25, 25)
        assert np.allclose(m, m.T)
        assert np.all(np.diagonal(m) == 0)
        assert m[0, grid.index(3, 0)] == pytest.approx(3 * grid.R)

    @pytest.mark.parametrize("kind, params, depth", [
        ("circle", {"n": 96}, 4),
        ("random_circle", {"n": 160}, 3),
        ("interval", {"n": 60}, 3),
        ("visual_circle", {"n": 64}, 5),
        ("circle", {"n": 40}, 1),
        ("circle", {"n": 30}, 12),
    ], ids=["circle", "random_circle", "interval", "visual_circle", "depth1",
            "depth12"])
    def test_dist_matrix_equals_cone_metric(self, kind, params, depth):
        grid = build_grid(generate(kind, **params), r=0.125, depth=depth)
        oracle = grid_metric(grid)
        assert np.array_equal(stacked_level_rows(grid), oracle)
        assert np.array_equal(grid.dist_matrix, oracle)

    def test_refuses_base_asymmetric_within_rel_tol(self):
        # a matrix must equal its transpose exactly, however small the
        # difference against rel_tol
        from conetrees import FiniteMetricSpace, MetricError
        base = generate("random_circle", n=50, seed=3)
        d = base.dist.copy()
        rng = np.random.default_rng(5)
        upper = np.triu_indices(50, k=1)
        d[upper] *= 1 + 1e-11 * rng.uniform(size=len(upper[0]))
        assert not np.array_equal(d, d.T)
        assert np.abs(d - d.T).max() < base.rel_tol * base.diameter
        with pytest.raises(MetricError, match="not symmetric"):
            FiniteMetricSpace(d, base.point_ids, meta=dict(base.meta))

    def test_level_rows_shapes_and_range(self):
        grid = build_grid(generate("circle", n=8), r=0.25, depth=3)
        assert grid.level_rows(0).shape == (1, 25)
        assert grid.level_rows(3).shape == (8, 25)
        for j in (-1, 4):
            with pytest.raises(ConeError, match="outside"):
                grid.level_rows(j)

    @pytest.mark.parametrize("kind, params, depth", [
        ("circle", {"n": 9}, 3), ("random_circle", {"n": 7}, 1),
        ("cantor", {"depth": 2}, 4),
    ])
    def test_level_rows_block_is_a_slice_of_cone_metric(self, kind, params,
                                                        depth):
        # rows [lo, hi) of level j over columns [start, n_points), bit for
        # bit, for every range, the empty ones included
        grid = build_grid(generate(kind, **params), r=0.125, depth=depth)
        oracle = grid_metric(grid)
        for j in range(depth + 1):
            first, size = grid.index(j, 0), (grid.space.n if j else 1)
            for lo in range(size + 1):
                for hi in range(lo, size + 1):
                    for start in range(grid.n_points + 1):
                        assert np.array_equal(
                            grid.level_rows(j, lo, hi, start),
                            oracle[first + lo: first + hi, start:])

    def test_level_rows_row_and_column_range(self):
        grid = build_grid(generate("circle", n=8), r=0.25, depth=3)
        assert grid.level_rows(2, 3, 5, 10).shape == (2, 15)
        assert grid.level_rows(0, 0, 1, 25).shape == (1, 0)
        assert grid.level_rows(1, 4, 4).shape == (0, 25)
        for lo, hi in ((-1, 3), (0, 9), (5, 4)):
            with pytest.raises(ConeError, match="rows"):
                grid.level_rows(1, lo, hi)
        with pytest.raises(ConeError, match="rows"):
            grid.level_rows(0, 0, 2)
        for start in (-1, 26):
            with pytest.raises(ConeError, match="first column"):
                grid.level_rows(1, 0, 8, start)

    def test_angle_map_tops_out_at_pi(self):
        sp = generate("circle", n=8)
        grid = build_grid(sp, r=0.25, depth=2)
        assert grid.mu * sp.dist[0, 4] == pytest.approx(math.pi)

    def test_depth_cap(self):
        sp = generate("circle", n=8)
        bad_depth = int(RADIUS_CAP / math.log(8.0)) + 1
        with pytest.raises(ConeError, match="cap"):
            build_grid(sp, r=0.125, depth=bad_depth)

    def test_rejects_degenerate_space(self):
        from conetrees import FiniteMetricSpace
        sp = FiniteMetricSpace(np.zeros((1, 1)), ("o",))
        with pytest.raises(ConeError, match="diameter"):
            build_grid(sp, r=0.5, depth=2)
