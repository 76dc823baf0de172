"""Metric space construction, validation, and signed neighborhoods."""

import numpy as np
import pytest

from conetrees import FiniteMetricSpace, MetricError, Subset
from conetrees.harness import generate


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

    def test_rejects_id_mismatch(self):
        with pytest.raises(MetricError, match="point ids"):
            FiniteMetricSpace(np.zeros((1, 1)), ("a", "b"))

    def test_accepts_single_point(self):
        sp = FiniteMetricSpace(np.zeros((1, 1)), ("a",))
        assert sp.diameter == 0.0
        assert sp.min_gap == 0.0


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

    def test_subset_view(self):
        sp = line_space(11)
        sub = sp.subset([0, 2, 4])
        assert len(sub) == 3
        assert 2 in sub and 3 not in sub
        assert sub.diameter() == 4.0


class TestNeighborOrder:
    def test_rows_sorted_with_self_first(self):
        sp = generate("circle", n=12)
        order = sp.neighbor_order
        assert order.dtype == np.int32
        assert np.array_equal(order[:, 0], np.arange(12))
        for x in range(12):
            assert np.all(np.diff(sp.dist[x, order[x]]) >= 0)
            assert sorted(order[x]) == list(range(12))

    def test_ties_by_index(self):
        # on a circle each point has two neighbors at every distance
        sp = generate("circle", n=8)
        assert sp.neighbor_order[3].tolist() == [3, 2, 4, 1, 5, 0, 6, 7]


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
