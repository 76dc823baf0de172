"""Acceptance gate: ten numbered criteria, one test and one [PASS]/[FAIL]
line each.  Criteria 1-3 are randomized property suites over a pool of small
spaces; 4-8 interrogate the flagship pipeline run (circle, n=512, r=1/8,
depth 4, 2 colors); 9 repeats 4-8 on the visual-circle run; 10 is a
byte-level determinism check of the written bundle.

The helpers `_check_*` hold the criterion bodies for 4-8 so that criterion 9
can apply them to a different run without modification.
"""

import math
import time

import numpy as np
import pytest

from conetrees import (
    ConePoint,
    Family,
    PipelineConfig,
    ast_shrink,
    cone_dist,
    delta_hyperbolicity,
    generate,
    radial_check,
    run_pipeline,
    sphere_dist,
    sphere_ratio_check,
    verify_char_seq,
    visual_metric_circle,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pool():
    """Spaces of <= 200 points with varied shapes for the randomized suites."""
    return [
        generate("circle", n=200),
        generate("circle", n=97),
        generate("interval", n=150),
        generate("interval", n=64),
        generate("random_circle", n=120, seed=1),
        generate("random_circle", n=200, seed=7),
        generate("cantor", depth=7),
        generate("tree_boundary", depth=7),
    ]


# ---------------------------------------------------------------------------
# criterion 1: neighborhood calculus


def test_c01_neighborhood_calculus(pool):
    rng = np.random.default_rng(101)
    bad = 0
    start = time.perf_counter()
    for _ in range(1000):
        sp = pool[int(rng.integers(len(pool)))]
        size = int(rng.integers(1, sp.n + 1))
        u = sp.subset(rng.choice(sp.n, size=size, replace=False))
        everything = frozenset(range(sp.n))
        diam = sp.diameter
        s = float(rng.uniform(0.01, 0.6)) * diam
        t = s + float(rng.uniform(0.01, 0.6)) * diam  # 0 < s < t

        # growing by t - s lands inside the s-erosion of the t-growth
        ok_inclusion = (
            u.neighborhood(t - s).indices
            <= u.neighborhood(t).neighborhood(-s).indices
        )

        # monotone in the signed radius
        r1 = float(rng.uniform(-1.0, 1.0)) * diam
        r2 = r1 + float(rng.uniform(0.0, 0.5)) * diam
        ok_monotone = u.neighborhood(r1).indices <= u.neighborhood(r2).indices

        # erosion is the complement of the closed growth of the complement
        comp = everything - u.indices
        if comp:
            dual = everything - sp.subset(comp).closed_neighborhood(s).indices
            ok_duality = u.neighborhood(-s).indices == dual
        else:
            ok_duality = u.neighborhood(-s).indices == u.indices

        ok_identity = u.neighborhood(0.0).indices == u.indices
        bad += not (ok_inclusion and ok_monotone and ok_duality and ok_identity)
    elapsed = time.perf_counter() - start
    report(
        "C1 neighborhood calculus",
        bad == 0 and elapsed < 10.0,
        f"violations={bad}/1000, runtime={elapsed:.2f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: shrinking a covering


def _random_covering(sp, rng) -> Family:
    """Voronoi cells of a few random centers, optionally thickened."""
    k = int(rng.integers(2, 7))
    centers = rng.choice(sp.n, size=k, replace=False)
    owner = np.argmin(sp.dist[centers], axis=0)
    grow = float(rng.uniform(0.0, 0.25)) * sp.diameter
    members = []
    for c in range(k):
        cell = np.flatnonzero(owner == c)
        if cell.size == 0:
            continue
        u = sp.subset(cell)
        if grow > 0:
            u = u.closed_neighborhood(grow)
        members.append(u)
    return Family(sp, tuple(members))


def test_c02_covering_shrink(pool):
    rng = np.random.default_rng(202)
    done = bad = 0
    while done < 500:
        sp = pool[int(rng.integers(len(pool)))]
        fam = _random_covering(sp, rng)
        leb = fam.lebesgue()
        if leb <= 0:
            continue
        s = leb * float(rng.uniform(0.05, 0.95))
        shrunk = fam.shrink(s)
        if not shrunk.covers():
            bad += 1
        if shrunk.r_multiplicity(s) > fam.multiplicity():
            bad += 1
        done += 1
    report("C2 covering shrink", bad == 0, f"violations={bad}/500 coverings")


# ---------------------------------------------------------------------------
# criterion 3: merge-step dichotomy and nesting


def test_c03_merge_dichotomy_and_nesting(pool):
    rng = np.random.default_rng(303)
    done = bad = nonvacuous = 0
    while done < 1000:
        sp = pool[int(rng.integers(len(pool)))]
        diam = sp.diameter
        s = diam * float(rng.uniform(0.02, 0.12))
        delta = float(rng.uniform(0.15, 2 / 3))
        # fine family: a net of singletons, or of small closed balls, spaced
        # far enough apart that the open delta*s neighborhoods are disjoint
        rho = 0.0 if rng.random() < 0.7 else s * float(rng.uniform(0.1, 0.8))
        pitch = 2.0 * (delta * s + rho) * 1.0001
        kept: list[int] = []
        for z in rng.permutation(sp.n):
            if all(sp.dist[z, w] >= pitch for w in kept):
                kept.append(int(z))
        ghat_members = []
        for z in kept:
            u = sp.subset([z])
            if rho > 0:
                u = u.closed_neighborhood(rho)
            ghat_members.append(u)
        ghat = Family(sp, tuple(ghat_members))
        if ghat.mesh > 2 * s or not ghat.is_r_disjoint(delta * s):
            continue  # inadmissible draw

        # coarse member: union of a few closed balls wide enough to survive
        # the 4s erosion on densely sampled spaces
        radius = s * float(rng.uniform(4.5, 9.0))
        picks = rng.choice(sp.n, size=int(rng.integers(1, 4)), replace=False)
        u1_idx = frozenset()
        for z in picks:
            u1_idx |= sp.subset([int(z)]).closed_neighborhood(radius).indices
        u1 = sp.subset(u1_idx)

        star1 = ast_shrink(Family(sp, (u1,)), ghat, s, delta)
        for w in star1:
            nonvacuous += 1
            if not w.indices <= u1.indices:
                bad += 1
        for fine in ghat:
            grown = fine.neighborhood(delta * s)
            for w in star1:
                overlap = grown.indices & w.indices
                if overlap and not grown.indices <= w.indices:
                    bad += 1

        # nesting: any U2 containing the t-growth of U1, with t > 4s
        t = s * float(rng.uniform(4.3, 8.0))
        u2 = u1.neighborhood(t)
        if rng.random() < 0.3:
            extra = sp.subset([int(rng.integers(sp.n))]).closed_neighborhood(radius)
            u2 = sp.subset(u2.indices | extra.indices)
        star2 = ast_shrink(Family(sp, (u2,)), ghat, s, delta)
        if len(star1) == 1:
            inner = star1[0].neighborhood(t - 4 * s)
            if len(star2) != 1 or not inner.indices <= star2[0].indices:
                bad += 1
        done += 1
    report(
        "C3 merge dichotomy and nesting",
        bad == 0 and nonvacuous >= 500,
        f"violations={bad}/1000 instances ({nonvacuous} non-vacuous)",
    )


# ---------------------------------------------------------------------------
# criteria 4-8, written as helpers so criterion 9 can reuse them


def _uncapped_inner_radius(level) -> float:
    """min over points of the deepest containing member, without the mesh
    cap, for levels whose members are singletons (mesh 0)."""
    sp = level.space
    everything = frozenset(range(sp.n))
    best = np.zeros(sp.n)
    for u in level.pooled:
        if not u.indices:
            continue
        idx = np.fromiter(u.indices, dtype=int, count=len(u.indices))
        comp = everything - u.indices
        if comp:
            cols = np.fromiter(comp, dtype=int, count=len(comp))
            depth = sp.dist[np.ix_(idx, cols)].min(axis=1)
        else:
            depth = np.full(idx.size, np.inf)
        np.maximum.at(best, idx, depth)
    return float(best.min())


def _check_ladder_constants(res) -> str:
    seq = res.charseq
    verify_char_seq(seq)
    delta, lam, gamma = seq.delta, seq.lam, seq.gamma
    assert gamma >= delta / 4 - 1e-12, (gamma, delta)
    for j in range(1, seq.depth + 1):
        level = seq.level(j)
        scale = seq.scale(j)
        if level.mesh > 0:
            assert level.lebesgue() >= delta * scale / 2 - 1e-12, j
        else:
            # singleton level: the mesh-capped Lebesgue number degenerates,
            # so measure the inscribed depth directly
            assert _uncapped_inner_radius(level) >= delta * scale / 2 - 1e-12, j
        for fam in level.colors:
            assert fam.net_radius() <= (lam + 1) * scale + 1e-12, j
    assert res.runtime < 120.0, res.runtime
    return (
        f"delta={delta:.6g}, lam={lam:.6g}, gamma={gamma:.6g}, "
        f"runtime={res.runtime:.1f}s (budget 120s)"
    )


def _check_trees(res) -> str:
    assert len(res.trees) == res.charseq.n_colors
    deltas = []
    for tree in res.trees:
        tree.validate()
        n = tree.n_nodes
        assert tree.parent[0] == -1
        assert np.all(tree.parent[1:] >= 0)  # exactly one parent per node
        for u in range(1, n):
            p = int(tree.parent[u])
            assert tree.level[p] < tree.level[u]  # levels descend: acyclic
            assert tree.members[u] <= tree.members[p]  # containment
            hops, cur = 0, u
            while cur != 0:  # every node reaches the root: connected
                cur = int(tree.parent[cur])
                hops += 1
                assert hops <= n
        deltas.append(delta_hyperbolicity(tree.all_pairs_dist))
    assert all(d == 0.0 for d in deltas), deltas  # exact, not approximate
    if res.tree_deltas is not None:
        assert all(d == 0.0 for d in res.tree_deltas), res.tree_deltas
    return f"trees={len(res.trees)}, hyperbolicity defects={deltas} (exact zeros)"


def _check_cone_metric(res) -> str:
    sp = res.space
    mu = math.pi / sp.diameter
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10_000):
        z1 = int(rng.integers(sp.n))
        z2 = int(rng.integers(sp.n - 1))
        if z2 >= z1:
            z2 += 1
        p = ConePoint(z1, float(rng.uniform(0.0, 20.0)))
        q = ConePoint(z2, float(rng.uniform(0.0, 20.0)))
        got = cone_dist(sp, p, q)
        # textbook two-sheet form, computed naively
        arg = math.cosh(p.t) * math.cosh(q.t) - math.sinh(p.t) * math.sinh(
            q.t
        ) * math.cos(mu * float(sp.dist[z1, z2]))
        want = math.acosh(max(1.0, arg))
        worst = max(worst, abs(got - want) / max(want, 1e-30))
    assert worst <= 1e-9, worst

    rng2 = np.random.default_rng(660)
    sphere_worst = 0.0
    for _ in range(2000):
        t = float(rng2.uniform(0.0, 20.0))
        tau = float(rng2.uniform(0.0, math.pi))
        lhs = math.sinh(sphere_dist(t, tau) / 2.0)
        rhs = math.sinh(t) * math.sin(tau / 2.0)
        sphere_worst = max(sphere_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert sphere_worst <= 1e-9, sphere_worst

    sph = sphere_ratio_check(res.grid)
    c = sph["bound"]
    assert c == pytest.approx(2 * math.pi / (1 - res.config.r**2))
    assert sph["passed"]
    assert sph["min_ratio"] >= 1 / c - 1e-12
    assert sph["max_ratio"] <= c + 1e-12
    return (
        f"oracle rel err {worst:.2e} (tol 1e-9), sphere identity rel err "
        f"{sphere_worst:.2e}, ratios [{sph['min_ratio']:.6g}, "
        f"{sph['max_ratio']:.6g}] within [1/C, C], C={c:.6g}"
    )


def _check_radial(res) -> str:
    n, depth = res.space.n, res.charseq.depth
    expected = n * depth * (depth + 1) // 2
    fresh = radial_check(res.embedding)  # raises on any violation
    for rad in (res.radial, fresh):
        assert rad["failures"] == 0
        assert rad["checks"] == expected
    return f"checks={fresh['checks']}, failures=0, max climb {fresh['max_steps']}"


def _check_qi(res, deep) -> str:
    qi = res.qi
    assert math.isfinite(qi.lam) and math.isfinite(qi.sigma)
    assert qi.violations == 0
    assert qi.n_pairs == res.grid.n_points * (res.grid.n_points - 1) // 2
    assert deep.charseq.depth > res.charseq.depth
    assert deep.qi.violations == 0
    assert qi.sigma > 0
    drift = abs(deep.qi.sigma - qi.sigma)
    assert drift <= 0.2 * qi.sigma, (qi.sigma, deep.qi.sigma)
    return (
        f"(lam, sigma)=({qi.lam:g}, {qi.sigma:.6g}) over {qi.n_pairs} pairs, "
        f"0 violations; depth-{deep.charseq.depth} refit drifts sigma by "
        f"{drift:.2e} (budget 20%)"
    )


def test_c04_flagship_ladder(flagship_result):
    report("C4 flagship ladder constants", True, _check_ladder_constants(flagship_result))


def test_c05_tree_validity(flagship_result):
    report("C5 tree validity", True, _check_trees(flagship_result))


def test_c06_cone_metric(flagship_result):
    report("C6 cone metric", True, _check_cone_metric(flagship_result))


def test_c07_radial_climb(flagship_result):
    report("C7 radial climb", True, _check_radial(flagship_result))


def test_c08_qi_stability(flagship_result, deep_result):
    report("C8 quasi-isometry stability", True, _check_qi(flagship_result, deep_result))


# ---------------------------------------------------------------------------
# criterion 9: the boundary-circle demo passes 4-8 unchanged


def test_c09_visual_circle_demo(visual_result, visual_deep_result):
    res = visual_result
    assert res.config.generator == "visual_circle"
    assert np.array_equal(res.space.dist, visual_metric_circle(512).dist)
    assert len(res.trees) == 2
    details = [
        _check_ladder_constants(res),
        _check_trees(res),
        _check_cone_metric(res),
        _check_radial(res),
        _check_qi(res, visual_deep_result),
    ]
    report("C9 visual circle demo", True, " | ".join(details))


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns


def test_c10_determinism(flagship_result, flagship_outdir, tmp_path_factory):
    rerun_dir = tmp_path_factory.mktemp("rerun") / "bundle"
    cfg = PipelineConfig(
        generator="circle",
        params={"n": 512},
        r=0.125,
        depth=4,
        colors=2,
        outdir=str(rerun_dir),
    )
    run_pipeline(cfg)
    names = sorted(p.name for p in flagship_outdir.iterdir())
    assert names == sorted(p.name for p in rerun_dir.iterdir())
    diffs = [
        nm
        for nm in names
        if (flagship_outdir / nm).read_bytes() != (rerun_dir / nm).read_bytes()
    ]
    report(
        "C10 determinism",
        not diffs,
        f"{len(names)} bundle files byte-identical across reruns",
    )
