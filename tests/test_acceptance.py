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
    Family,
    PipelineConfig,
    delta_hyperbolicity,
    generate,
    radial_check,
    run_pipeline,
    sphere_ratio_check,
    verify_char_seq,
    visual_metric_circle,
)
from oracles import ast_shrink, cone_metric
from setcalc import closed_hood, dist_to, hood, r_multiplicity


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


def _hood(sp, idx, r) -> frozenset:
    """The open signed-radius r neighborhood of the nonempty index set, as
    the pipeline computes it: `Family.hoods` of a one-member family."""
    row = Family(sp, [sorted(idx)]).hoods(r)[0]
    return frozenset(np.flatnonzero(row).tolist())


def test_c01_neighborhood_calculus(pool):
    rng = np.random.default_rng(101)
    bad = 0
    start = time.perf_counter()
    for _ in range(1000):
        sp = pool[int(rng.integers(len(pool)))]
        size = int(rng.integers(1, sp.n + 1))
        u = frozenset(rng.choice(sp.n, size=size, replace=False).tolist())
        everything = frozenset(range(sp.n))
        diam = sp.diameter
        s = float(rng.uniform(0.01, 0.6)) * diam
        t = s + float(rng.uniform(0.01, 0.6)) * diam  # 0 < s < t

        # growing by t - s lands inside the s-erosion of the t-growth
        ok_inclusion = _hood(sp, u, t - s) <= _hood(sp, _hood(sp, u, t), -s)

        # monotone in the signed radius
        r1 = float(rng.uniform(-1.0, 1.0)) * diam
        r2 = r1 + float(rng.uniform(0.0, 0.5)) * diam
        ok_monotone = _hood(sp, u, r1) <= _hood(sp, u, r2)

        # erosion is the complement of the closed growth of the complement,
        # which the oracle computes
        comp = everything - u
        if comp:
            dual = everything - closed_hood(sp, comp, s)
            ok_duality = _hood(sp, u, -s) == dual
        else:
            ok_duality = _hood(sp, u, -s) == u

        ok_identity = _hood(sp, u, 0.0) == u
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
        members.append(sorted(closed_hood(sp, cell, grow)) if grow > 0
                       else cell)
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
        # the erosion the cascade runs, by 0 < s < the Lebesgue number
        shrunk = fam.eroded(s)
        if not np.bincount(shrunk.indices, minlength=sp.n).all():  # covers
            bad += 1
        if r_multiplicity(sp, shrunk, s) > r_multiplicity(sp, fam, 0.0):
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
        ghat = Family(sp, [sorted(closed_hood(sp, [z], rho)) for z in kept])
        # open delta*s neighborhoods pairwise disjoint, as ast_shrink checks
        if ghat.mesh > 2 * s or ghat.hoods(delta * s).sum(axis=0).max() > 1:
            continue  # inadmissible draw

        # coarse member: union of a few closed balls wide enough to survive
        # the 4s erosion on densely sampled spaces
        radius = s * float(rng.uniform(4.5, 9.0))
        picks = rng.choice(sp.n, size=int(rng.integers(1, 4)), replace=False)
        u1 = frozenset()
        for z in picks:
            u1 |= closed_hood(sp, [int(z)], radius)

        star1 = ast_shrink(Family(sp, [sorted(u1)]), ghat, s, delta)
        for w in star1:
            nonvacuous += 1
            if not set(w.tolist()) <= u1:
                bad += 1
        for fine in ghat:
            grown = hood(sp, fine, delta * s)
            for w in star1:
                w = set(w.tolist())
                if grown & w and not grown <= w:
                    bad += 1

        # nesting: any U2 containing the t-growth of U1, with t > 4s
        t = s * float(rng.uniform(4.3, 8.0))
        u2 = hood(sp, u1, t)
        if rng.random() < 0.3:
            u2 |= closed_hood(sp, [int(rng.integers(sp.n))], radius)
        star2 = ast_shrink(Family(sp, [sorted(u2)]), ghat, s, delta)
        if len(star1) == 1:
            inner = hood(sp, star1[0], t - 4 * s)
            if len(star2) != 1 or not inner <= set(star2[0].tolist()):
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
    best = np.zeros(sp.n)
    for idx in (u for fam in level.colors for u in fam):
        cols = np.setdiff1d(np.arange(sp.n), idx)
        if cols.size:
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
        scale = seq.r ** j
        if level.mesh > 0:
            assert level.lebesgue() >= delta * scale / 2 - 1e-12, j
        else:
            # singleton level: the mesh-capped Lebesgue number degenerates,
            # so measure the inscribed depth directly
            assert _uncapped_inner_radius(level) >= delta * scale / 2 - 1e-12, j
        for fam in level.colors:
            net = float(dist_to(level.space, fam.indices).max())
            assert net <= (lam + 1) * scale + 1e-12, j
    assert res.runtime < 120.0, res.runtime
    return (
        f"delta={delta:.6g}, lam={lam:.6g}, gamma={gamma:.6g}, "
        f"runtime={res.runtime:.1f}s (budget 120s)"
    )


def _check_trees(res) -> str:
    assert len(res.trees) == res.charseq.n_colors
    deltas = []
    for tree in res.trees:
        n = tree.n_nodes
        assert tree.parent[0] == -1
        assert np.all(tree.parent[1:] >= 0)  # exactly one parent per node
        for u in range(1, n):
            p = int(tree.parent[u])
            assert tree.level[p] < tree.level[u]  # levels descend: acyclic
            # containment
            assert set(tree.members[u].tolist()) <= set(tree.members[p].tolist())
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


def _textbook_cone_dist(t1, t2, alpha) -> float:
    """The textbook two-sheet form, computed naively."""
    arg = math.cosh(t1) * math.cosh(t2) - math.sinh(t1) * math.sinh(t2) * math.cos(alpha)
    return math.acosh(max(1.0, arg))


def _check_cone_metric(res) -> str:
    sp, grid = res.space, res.grid
    mu = math.pi / sp.diameter
    level, z = grid.point_level, grid.point_z
    dist = grid.dist_matrix  # the run's kernel, one level pair at a time

    def grid_dist(i, k):
        return float(dist[i, k])

    # grid pairs on distinct base points against the textbook form
    rng = np.random.default_rng(616)
    grid_worst = 0.0
    for _ in range(10_000):
        i = int(rng.integers(grid.n_points))
        k = int(rng.integers(grid.n_points))
        while z[k] == z[i]:
            k = int(rng.integers(grid.n_points))
        want = _textbook_cone_dist(level[i] * grid.R, level[k] * grid.R,
                                   mu * float(sp.dist[z[i], z[k]]))
        grid_worst = max(grid_worst, abs(grid_dist(i, k) - want) / max(want, 1e-30))
    assert grid_worst <= 1e-9, grid_worst

    # same-level grid pairs against sinh(d/2) = sinh(jR) * sin(tau/2)
    rng2 = np.random.default_rng(661)
    sphere_worst = 0.0
    for _ in range(2000):
        j = int(rng2.integers(1, grid.depth + 1))
        z1, z2 = (int(v) for v in rng2.integers(sp.n, size=2))
        lhs = math.sinh(grid_dist(grid.index(j, z1), grid.index(j, z2)) / 2.0)
        rhs = math.sinh(j * grid.R) * math.sin(mu * float(sp.dist[z1, z2]) / 2.0)
        sphere_worst = max(sphere_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert sphere_worst <= 1e-9, sphere_worst

    # the cone distance oracle at random radii against the textbook form
    rng3 = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10_000):
        z1 = int(rng3.integers(sp.n))
        z2 = int(rng3.integers(sp.n - 1))
        if z2 >= z1:
            z2 += 1
        t1, t2 = float(rng3.uniform(0.0, 20.0)), float(rng3.uniform(0.0, 20.0))
        got = float(cone_metric(sp, [z1, z2], [t1, t2])[0, 1])
        want = _textbook_cone_dist(t1, t2, mu * float(sp.dist[z1, z2]))
        worst = max(worst, abs(got - want) / max(want, 1e-30))
    assert worst <= 1e-9, worst

    sph = sphere_ratio_check(res.grid)
    c = sph["bound"]
    assert c == pytest.approx(2 * math.pi / (1 - res.config.r**2))
    assert sph["passed"]
    assert sph["min_ratio"] >= 1 / c - 1e-12
    assert sph["max_ratio"] <= c + 1e-12
    return (
        f"grid rel err {grid_worst:.2e} and oracle rel err {worst:.2e} "
        f"(tol 1e-9), grid sphere identity rel err {sphere_worst:.2e}, "
        f"ratios [{sph['min_ratio']:.6g}, {sph['max_ratio']:.6g}] within "
        f"[1/C, C], C={c:.6g}"
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
