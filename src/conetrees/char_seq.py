"""Scale ladders of colored coverings and their separated refinements.

A base sequence assigns to each level j = 1..depth a colored covering with
mesh at most r**j, per-color disjointness, inner balls, and per-color nets,
all at scale r**j.  The separation cascade then rewrites coarser levels so
that every member either swallows or avoids each finer member, which is the
property the tree construction needs.  All quality constants (delta, lam,
gamma) are measured on the finished object, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coverings import ColoredCovering, CoveringError, Family, star_merge
from .metric_core import FiniteMetricSpace, Subset


class LadderConstructionError(ValueError):
    """Raised when a ladder level cannot be built or fails its own contract."""


class SeparationPreconditionError(ValueError):
    """Raised when the merge cascade's hypotheses are violated and enforced."""


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str = ""

    def __repr__(self):
        tag = "[PASS]" if self.passed else "[FAIL]"
        return f"{tag} {self.name}: value={self.value:.6g} bound={self.bound:.6g} {self.detail}"


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __repr__(self):
        head = "passed" if self.passed else f"{len(self.failures)} failures"
        return f"PropertyReport({len(self.checks)} checks, {head})"

    def summary(self) -> str:
        return "\n".join(repr(c) for c in self.checks)


@dataclass(frozen=True, eq=False)
class CharSequence:
    """Levels j = 1..depth of colored coverings at scales r**j: the base
    ladder, or the separated one, which adds a measured separation quality
    gamma (None on a base ladder).  For same-color members U at level j
    and U' at level j' <= j of a separated ladder, the open gamma*r**j
    neighborhood of U either misses U' or sits inside it, and every U'
    contains such a neighborhood of some level-j member."""

    space: FiniteMetricSpace
    r: float
    levels: tuple[ColoredCovering, ...]
    delta: float
    lam: float
    gamma: float | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_colors(self) -> int:
        return self.levels[0].n_colors

    def scale(self, j: int) -> float:
        return self.r ** j

    def level(self, j: int) -> ColoredCovering:
        if not 1 <= j <= self.depth:
            raise IndexError(f"level {j} outside 1..{self.depth}")
        return self.levels[j - 1]

    def __repr__(self):
        gamma = "" if self.gamma is None else f", gamma={self.gamma:.4g}"
        return (
            f"CharSequence(depth={self.depth}, colors={self.n_colors}, r={self.r}, "
            f"delta={self.delta:.4g}, lam={self.lam:.4g}{gamma})"
        )


def margin_trace(r: float, delta: float, depth: int) -> dict[int, float]:
    """Traced lower bound, per level j, on the separation quality that the
    cascade leaves behind, in units of r**j.

    Level j starts at delta/2 when placed and loses 2*r**(k-j) at each later
    stage k.  Values can go negative when r is too large for delta; they are
    a bound, not a measurement.
    """
    if not 0 < r < 1:
        raise ValueError(f"ratio must be in (0, 1), got {r}")
    out: dict[int, float] = {}
    for j in range(1, depth + 1):
        g = delta / 2.0
        for k in range(j + 1, depth + 1):
            g -= 2.0 * r ** (k - j)
        out[j] = g
    return out


def ast_shrink(fam: Family, ghat: Family, s: float, delta: float) -> Family:
    """One merge step at full strength: erode each member of ``fam`` by 4s,
    then absorb every member of ``ghat`` whose open delta*s neighborhood
    meets that of the eroded core, and grow the union by delta*s.

    Requires delta in (0, 2/3], mesh(ghat) <= 2s, and the open delta*s
    neighborhoods of ghat members pairwise disjoint.
    Each output member is contained in its input member, and every open
    delta*s neighborhood of a ghat member is either inside or disjoint from
    every output member.  Eroded-away members are dropped.
    """
    if not 0 < delta <= 2 / 3:
        raise SeparationPreconditionError(f"delta must be in (0, 2/3], got {delta}")
    if s <= 0:
        raise SeparationPreconditionError(f"step scale must be positive, got {s}")
    if ghat.mesh > 2 * s * (1 + 1e-12):
        raise SeparationPreconditionError(
            f"fine family mesh {ghat.mesh:.6g} exceeds 2s = {2 * s:.6g}"
        )
    if not ghat.is_r_disjoint(delta * s):
        raise SeparationPreconditionError(
            f"fine family is not {delta * s:.6g}-disjoint"
        )
    cores = fam.eroded_members(4 * s)
    return Family(fam.space, tuple(star_merge(core, ghat, delta * s)[0]
                                   for core in cores))


# ---------------------------------------------------------------------------
# level construction


def _shared_level(space: FiniteMetricSpace, members, m: int) -> ColoredCovering:
    """The same family of members in each of the m colors."""
    fam = Family(space, tuple(members))
    return ColoredCovering(space, tuple(fam for _ in range(m)))


def _window_level(space: FiniteMetricSpace, values: np.ndarray, pitch: float,
                  width: float, count: int, m: int,
                  wrap: float | None) -> ColoredCovering:
    """Windows [i*pitch, i*pitch + width] of the points' values, i = 0..count-1,
    dealt to the m colors in turn; empty windows are skipped.

    With ``wrap`` set (the period), windows are taken modulo the period.
    """
    eps = 1e-12 * max(width, 1.0)
    colors: list[list[Subset]] = [[] for _ in range(m)]
    for i in range(count):
        start = i * pitch
        if wrap is None:
            mask = (values >= start - eps) & (values <= start + width + eps)
        else:
            rel = np.mod(values - start, wrap)
            mask = rel <= width + eps
        if mask.any():
            colors[i % m].append(space.subset(np.flatnonzero(mask)))
    return ColoredCovering(space, tuple(Family(space, tuple(c)) for c in colors))


def _circle_windows(space: FiniteMetricSpace, scale: float, m: int) -> ColoredCovering:
    meta = space.meta
    angles = np.asarray(meta["angles"], dtype=float)
    if meta.get("metric") == "chord":
        radius = float(meta.get("radius", 1.0))
        theta_scale = 2.0 * math.asin(min(scale, 2.0 * radius) / (2.0 * radius))
    else:
        circumference = float(meta.get("circumference", 2.0 * math.pi))
        theta_scale = scale * 2.0 * math.pi / circumference
    theta_l = 2.0 * m / (m + 1) * theta_scale
    per_color = max(2, math.ceil(2.0 * math.pi / theta_l))
    k = m * per_color
    theta_p = 2.0 * math.pi / k
    theta_w = (m + 1) / 2.0 * theta_p
    return _window_level(space, np.mod(angles, 2.0 * math.pi), theta_p, theta_w,
                         k, m, wrap=2.0 * math.pi)


def _interval_windows(space: FiniteMetricSpace, scale: float, m: int) -> ColoredCovering:
    coords = np.asarray(space.meta["coords"], dtype=float)
    lo = float(coords.min())
    length = float(coords.max() - lo)
    p_target = 2.0 / (m + 1) * scale
    k = max(m, math.ceil(length / p_target))
    p = length / k
    w = (m + 1) / 2.0 * p
    return _window_level(space, coords - lo, p, w, k, m, wrap=None)


def _threshold_components(space: FiniteMetricSpace, t: float) -> list[np.ndarray]:
    """Connected components of the graph linking points at distance <= t."""
    n = space.n
    adj = space.dist <= t
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        comp = np.zeros(n, dtype=bool)
        while frontier.any():
            comp |= frontier
            reach = adj[frontier].any(axis=0)
            frontier = reach & ~comp
        seen |= comp
        comps.append(np.flatnonzero(comp))
    return comps


def _component_level(space: FiniteMetricSpace, scale: float, m: int) -> ColoredCovering:
    """Clustered level for spaces with well-separated cluster structure:
    pick the largest linkage threshold whose components all have diameter
    at most the scale, and hand every component to every color."""
    iu = np.triu_indices(space.n, k=1)
    cand = np.unique(space.dist[iu])
    cand = cand[cand <= scale]
    # threshold 0 always works (singleton components); search the largest
    # candidate that still respects the mesh bound
    best = 0.0
    lo, hi = 0, len(cand) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        comps = _threshold_components(space, float(cand[mid]))
        if Family(space, tuple(space.subset(idx) for idx in comps)).mesh <= scale:
            best = float(cand[mid])
            lo = mid + 1
        else:
            hi = mid - 1
    comps = _threshold_components(space, best)
    return _shared_level(space, (space.subset(idx) for idx in comps), m)


def _greedy_level(space: FiniteMetricSpace, scale: float, m: int,
                  allow_more_colors: bool) -> ColoredCovering:
    """Fallback for arbitrary spaces: balls of radius 0.49*scale around a
    farthest-point net at radius scale/4, colored greedily so that members
    closer than scale/4 never share a color."""
    d = space.dist
    centers = [0]
    mind = d[0].copy()
    while mind.max() > scale / 4:
        nxt = int(mind.argmax())
        centers.append(nxt)
        np.minimum(mind, d[nxt], out=mind)
    members = [space.subset(np.flatnonzero(d[c] <= 0.49 * scale)) for c in centers]
    balls = Family(space, tuple(members))
    close = balls.member_min(balls.dist_rows().T) < scale / 4
    color_of = []
    for i in range(len(centers)):
        used = {color_of[j] for j in np.flatnonzero(close[i, :i])}
        c = 0
        while c in used:
            c += 1
        color_of.append(c)
    needed = max(color_of) + 1
    if needed > m and not allow_more_colors:
        raise LadderConstructionError(
            f"greedy coloring needs {needed} colors at scale {scale:.6g}, "
            f"requested {m}"
        )
    n_colors = max(m, needed)
    colors: list[list[Subset]] = [[] for _ in range(n_colors)]
    for u, c in zip(members, color_of):
        colors[c].append(u)
    # a color with no member of its own takes a copy of an earlier class so
    # every class stays a net
    for c in range(n_colors):
        if not colors[c]:
            colors[c] = list(colors[c % needed])
    return ColoredCovering(space, tuple(Family(space, tuple(c)) for c in colors))


_STRATEGIES = ("auto", "circle_arcs", "interval_blocks", "cantor_clopen",
               "tree_boundary_cylinders", "generic_greedy")


def _pick_strategy(space: FiniteMetricSpace, strategy: str) -> str:
    if strategy != "auto":
        return strategy
    kind = space.meta.get("kind", "")
    if kind in ("circle", "random_circle", "visual_circle"):
        return "circle_arcs"
    if kind == "interval":
        return "interval_blocks"
    if kind == "cantor":
        return "cantor_clopen"
    if kind == "tree_boundary":
        return "tree_boundary_cylinders"
    return "generic_greedy"


def build_level(space: FiniteMetricSpace, scale: float, m: int,
                strategy: str = "auto", allow_more_colors: bool = False) -> ColoredCovering:
    """One colored covering with mesh <= scale, by the resolved strategy.

    Degenerate regimes apply to every strategy: the whole space when the
    scale dominates the diameter, all singletons in every color once the
    scale's depth target drops below the sampling resolution.
    """
    if scale <= 0:
        raise LadderConstructionError(f"scale must be positive, got {scale}")
    if m < 2:
        raise LadderConstructionError(f"need at least 2 colors, got {m}")
    if strategy not in _STRATEGIES:
        raise LadderConstructionError(f"unknown strategy {strategy!r}")
    if space.n == 0:
        raise LadderConstructionError("cannot cover an empty space")
    resolved = _pick_strategy(space, strategy)
    if scale >= space.diameter:
        cov = _shared_level(space, (space.whole(),), m)
    elif space.n == 1 or (m - 1) / (2 * (m + 1)) * scale <= space.min_gap:
        cov = _shared_level(space, (space.subset([i]) for i in range(space.n)), m)
    elif resolved == "circle_arcs":
        cov = _circle_windows(space, scale, m)
    elif resolved == "interval_blocks":
        cov = _interval_windows(space, scale, m)
    elif resolved in ("cantor_clopen", "tree_boundary_cylinders"):
        cov = _component_level(space, scale, m)
    else:
        cov = _greedy_level(space, scale, m, allow_more_colors)
    if cov.mesh > scale * (1 + 1e-9):
        raise LadderConstructionError(
            f"built level has mesh {cov.mesh:.6g} above scale {scale:.6g}"
        )
    return cov


# ---------------------------------------------------------------------------
# measurement


def _level_stats(cov: ColoredCovering, scale: float) -> dict:
    pooled = cov.pooled
    mesh = pooled.mesh
    leb = pooled.lebesgue()
    sep = min(f.min_separation() for f in cov.colors)
    inner = min(
        (float(f.inner_radii().min()) for f in cov.colors if len(f)),
        default=np.inf,
    )
    net = max(f.net_radius() for f in cov.colors)
    return {
        "scale": scale,
        "members": [len(f) for f in cov.colors],
        "mesh": mesh,
        "lebesgue": leb,
        "separation": sep,
        "inner_radius": inner,
        "net_radius": net,
        "multiplicity": cov.multiplicity(),
    }


def _measure(levels: tuple[ColoredCovering, ...], r: float) -> tuple[float, float, list[dict]]:
    """Return (delta_hat, lam_hat, per-level stats).

    delta_hat is the min over levels of lebesgue, per-color separation, and
    per-color inner radius, each in units of r**j; the lebesgue clause is
    vacuous at mesh-0 levels.  lam_hat is the max over levels of per-color
    net radius in the same units.
    """
    stats = []
    delta_hat = np.inf
    lam_hat = 0.0
    for i, cov in enumerate(levels):
        scale = r ** (i + 1)
        st = _level_stats(cov, scale)
        stats.append(st)
        terms = [st["separation"], st["inner_radius"]]
        if st["mesh"] > 0:
            terms.append(st["lebesgue"])
        finite = [t for t in terms if np.isfinite(t)]
        if finite:
            delta_hat = min(delta_hat, min(finite) / scale)
        lam_hat = max(lam_hat, st["net_radius"] / scale)
    if not np.isfinite(delta_hat):
        delta_hat = 1.0
    return float(delta_hat), float(lam_hat), stats


def build_base(space: FiniteMetricSpace, r: float, depth: int, colors: int = 2,
               delta_target: float | None = None, strategy: str = "auto",
               allow_more_colors: bool = False) -> CharSequence:
    """Build levels j = 1..depth at scales r**j and measure their constants."""
    if not 0 < r < 1:
        raise LadderConstructionError(f"ratio must be in (0, 1), got {r}")
    if depth < 1:
        raise LadderConstructionError(f"depth must be >= 1, got {depth}")
    levels = tuple(
        build_level(space, r ** j, colors, strategy, allow_more_colors)
        for j in range(1, depth + 1)
    )
    n_colors = max(cov.n_colors for cov in levels)
    if any(cov.n_colors != n_colors for cov in levels):
        # pad narrower levels by cycling their classes
        fixed = []
        for cov in levels:
            if cov.n_colors == n_colors:
                fixed.append(cov)
            else:
                fams = [cov.colors[a % cov.n_colors] for a in range(n_colors)]
                fixed.append(ColoredCovering(space, tuple(fams)))
        levels = tuple(fixed)
    delta_hat, lam_hat, stats = _measure(levels, r)
    if delta_target is not None and delta_hat < delta_target:
        raise LadderConstructionError(
            f"measured delta {delta_hat:.6g} below target {delta_target:.6g}"
        )
    prov = {
        "strategy": _pick_strategy(space, strategy),
        "levels": stats,
        "delta_target": delta_target,
    }
    return CharSequence(space, r, levels, delta_hat, lam_hat, provenance=prov)


# ---------------------------------------------------------------------------
# separation margins


def _pair_margins(fine: Family, coarse: Family,
                  same_level: bool) -> tuple[float, float]:
    """Dichotomy margins between one fine and one coarse family, same color.

    For each pair the dichotomy (miss or sit inside) holds for every radius
    up to max(M1, M2), where M1 is the containment margin, the distance from
    the fine member to the coarse member's complement, and M2 the avoidance
    margin, the distance between the two members.  Returns (min pair
    margin, min over coarse members of the best containment margin of any
    fine member), the latter only meaningful across distinct levels.
    """
    m1 = fine.member_min(coarse.depths.T)
    m2 = fine.member_min(coarse.dist_rows().T)
    margins = np.maximum(m1, m2)
    if same_level:
        # identical members never compete with themselves
        np.fill_diagonal(margins, np.inf)
    return float(margins.min()), float(m1.max(axis=0).min())


def separation_margins(space: FiniteMetricSpace, levels: tuple[ColoredCovering, ...],
                       r: float) -> tuple[float, list[dict]]:
    """Measured separation quality gamma over all same-color level pairs.

    gamma is the largest value such that, with radius gamma * r**j at fine
    level j, every same-color pair at levels j' <= j satisfies the dichotomy
    and every coarser member contains such a neighborhood of a finer member.
    """
    gamma = np.inf
    records = []
    n_colors = levels[0].n_colors
    for jf in range(1, len(levels) + 1):
        sf = r ** jf
        for jc in range(1, jf + 1):
            for a in range(n_colors):
                fine = levels[jf - 1].colors[a]
                coarse = levels[jc - 1].colors[a]
                if not fine or not coarse:
                    continue
                pair_min, desc_min = _pair_margins(fine, coarse,
                                                   same_level=jf == jc)
                rec = {"color": a, "fine": jf, "coarse": jc,
                       "pair_margin": pair_min / sf}
                gamma = min(gamma, pair_min / sf)
                if jc < jf:
                    rec["descendant_margin"] = desc_min / sf
                    gamma = min(gamma, desc_min / sf)
                records.append(rec)
    return float(gamma), records


# ---------------------------------------------------------------------------
# the cascade


def standing_assumptions(r: float, delta: float, lam: float) -> list[str]:
    """Violated hypotheses of the cascade's guarantee, as readable strings."""
    out = []
    if 2 * r / (1 - r) > delta / 4:
        out.append(
            f"2r/(1-r) = {2 * r / (1 - r):.6g} exceeds delta/4 = {delta / 4:.6g}"
        )
    if delta / 4 > 1 / 6:
        out.append(f"delta/4 = {delta / 4:.6g} exceeds 1/6")
    if (lam + 1) * r >= delta / 2:
        out.append(
            f"(lam+1)*r = {(lam + 1) * r:.6g} not below delta/2 = {delta / 2:.6g}"
        )
    return out


def separate(base: CharSequence, enforce_assumptions: bool = False) -> CharSequence:
    """Run the merge cascade over a base sequence and measure the result.

    Stage k folds base level k in: every coarser member is eroded by a moat,
    absorbs the fine members its grown core touches, and grows back by a
    hair.  The moat is the smaller of 4s and (sampled fine mesh + 3*delta*s),
    both of which make every fine neighborhood either swallowed or avoided.

    With enforce_assumptions the standing hypotheses guaranteeing the traced
    margins must hold, otherwise violations are recorded and the cascade
    proceeds; the returned gamma is measured either way.
    """
    r = base.r
    delta_use = min(base.delta, 2 / 3)
    if delta_use <= 0:
        raise LadderConstructionError("base sequence has no positive quality")
    violations = standing_assumptions(r, delta_use, base.lam)
    if enforce_assumptions and violations:
        raise SeparationPreconditionError(
            "standing assumptions violated: " + "; ".join(violations)
        )
    n_colors = base.n_colors
    current: list[list[Family]] = [list(base.level(1).colors)]
    drops = 0
    moats = []
    cascade = []
    for k in range(2, base.depth + 1):
        s = r ** k / 2.0
        grow = delta_use * s
        ghats = list(base.level(k).colors)
        for a in range(n_colors):
            ghat = ghats[a]
            mesh_hat = ghat.mesh
            moat = min(4 * s, mesh_hat + 3 * delta_use * s)
            if a == 0:
                moats.append(moat)
            identity = (
                moat < base.space.min_gap
                and grow <= base.space.min_gap
                and mesh_hat == 0
            )
            record = {"stage": k, "color": a, "moat": moat, "grow": grow,
                      "identity": identity}
            if not identity:
                record["ghat_disjoint"] = ghat.is_r_disjoint(grow)
                if not record["ghat_disjoint"]:
                    violations.append(
                        f"stage {k} color {a}: fine family is not "
                        f"{grow:.6g}-disjoint"
                    )
            cascade.append(record)
            if identity:
                continue
            for per_color in current:
                cores = per_color[a].eroded_members(moat)
                drops += len(per_color[a]) - len(cores)
                per_color[a] = Family(base.space, tuple(
                    star_merge(core, ghat, grow)[0] for core in cores))
        current.append(ghats)
    try:
        levels = tuple(ColoredCovering(base.space, tuple(per_color))
                       for per_color in current)
    except CoveringError as e:
        raise LadderConstructionError(f"cascade destroyed a level: {e}") from e
    delta_fin, lam_fin, stats = _measure(levels, r)
    gamma_hat, gamma_records = separation_margins(base.space, levels, r)
    prov = {
        "base_delta": base.delta,
        "base_lam": base.lam,
        "delta_used": delta_use,
        "assumption_warnings": violations,
        "moats": moats,
        "cascade": cascade,
        "dropped_members": drops,
        "gamma_trace": margin_trace(r, delta_use, base.depth),
        "gamma_records": gamma_records,
        "levels": stats,
        "base_provenance": base.provenance,
    }
    return CharSequence(base.space, r, levels, delta_fin, lam_fin, gamma_hat, prov)


# ---------------------------------------------------------------------------
# verification


def _sequence_checks(seq, gamma: float | None) -> list[PropertyCheck]:
    checks = []
    tol = 1e-9
    for j in range(1, seq.depth + 1):
        cov = seq.level(j)
        scale = seq.scale(j)
        st = _level_stats(cov, scale)
        checks.append(PropertyCheck(
            f"mesh[{j}]", st["mesh"] <= scale * (1 + tol), st["mesh"], scale))
        covered = cov.pooled.union_size()
        checks.append(PropertyCheck(
            f"covers[{j}]", covered == seq.space.n, covered, seq.space.n))
        bound = seq.delta * scale
        if st["mesh"] > 0:
            checks.append(PropertyCheck(
                f"lebesgue[{j}]", st["lebesgue"] >= bound * (1 - tol),
                st["lebesgue"], bound))
        if np.isfinite(st["separation"]):
            checks.append(PropertyCheck(
                f"separation[{j}]", st["separation"] >= bound * (1 - tol),
                st["separation"], bound))
        if np.isfinite(st["inner_radius"]):
            checks.append(PropertyCheck(
                f"inner_radius[{j}]", st["inner_radius"] >= bound * (1 - tol),
                st["inner_radius"], bound))
        lam_bound = seq.lam * scale
        checks.append(PropertyCheck(
            f"net_radius[{j}]", st["net_radius"] <= lam_bound * (1 + tol) + 1e-300,
            st["net_radius"], lam_bound))
    if gamma is not None:
        measured, _ = separation_margins(seq.space, seq.levels, seq.r)
        checks.append(PropertyCheck(
            "gamma", measured >= gamma * (1 - tol), measured, gamma))
    return checks


def verify_base(seq: CharSequence) -> PropertyReport:
    """Re-measure a base sequence against its recorded constants."""
    return PropertyReport(tuple(_sequence_checks(seq, gamma=None)))


def verify_char_seq(seq: CharSequence) -> PropertyReport:
    """Re-measure a separated sequence, including its dichotomy margins."""
    return PropertyReport(tuple(_sequence_checks(seq, gamma=seq.gamma)))
