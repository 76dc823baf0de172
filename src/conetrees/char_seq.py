"""Scale ladders of colored coverings and their separated refinements.

A base sequence assigns to each level j = 1..depth a colored covering with
mesh at most r**j, per-color disjointness, inner balls, and per-color nets,
all at scale r**j.  The separation cascade then rewrites coarser levels so
that every member either swallows or avoids each finer member, which is the
property the tree construction needs.  Each ladder measures its quality
constants (delta, lam, gamma) once, never assumed, in one pass over its
finished levels' color families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .coverings import ColoredCovering, CoveringError, Family, stacked
from .metric_core import FiniteMetricSpace, _meta_floats


class LadderConstructionError(ValueError):
    """Raised when a ladder level cannot be built or fails its own contract."""


class SeparationPreconditionError(ValueError):
    """Raised when the merge cascade's hypotheses are violated and enforced."""


@dataclass(frozen=True, eq=False)
class CharSequence:
    """Levels j = 1..depth of colored coverings at scales r**j: the base
    ladder, or the separated one, whose provenance records the cascade and
    which adds a measured separation quality gamma (None on a base ladder).
    For same-color members U at level j and U' at level j' <= j of a
    separated ladder, the open gamma*r**j neighborhood of U either misses U'
    or sits inside it, and every U' contains such a neighborhood of some
    level-j member.  ``provenance`` holds the build records."""

    space: FiniteMetricSpace
    r: float
    levels: tuple[ColoredCovering, ...]
    provenance: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_colors(self) -> int:
        return self.levels[0].n_colors

    def level(self, j: int) -> ColoredCovering:
        if not 1 <= j <= self.depth:
            raise IndexError(f"level {j} outside 1..{self.depth}")
        return self.levels[j - 1]

    @cached_property
    def measurement(self) -> dict:
        """The ladder's constants and the stats they come from; see `_measure`."""
        return _measure(self.levels, self.r, "cascade" in self.provenance)

    delta = property(lambda self: self.measurement["delta"])
    lam = property(lambda self: self.measurement["lam"])
    gamma = property(lambda self: self.measurement["gamma"])

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


# ---------------------------------------------------------------------------
# level construction


def _shared_level(fam: Family, m: int) -> ColoredCovering:
    """The same family in each of the m colors."""
    return ColoredCovering(fam.space, (fam,) * m)


def _window_level(space: FiniteMetricSpace, values: np.ndarray, pitch: float,
                  width: float, count: int, m: int,
                  wrap: float | None) -> ColoredCovering:
    """Windows [i*pitch, i*pitch + width] of the points' values, i = 0..count-1,
    dealt to the m colors in turn; empty windows are skipped.

    With ``wrap`` set (the period), windows are taken modulo the period.
    Each point first gets, from its value, the few windows that can hold
    it, with a margin of one window on each side; the exact per-window
    predicate, ``np.mod(values - i*pitch, wrap) <= width + eps`` or the
    two-sided test without a wrap, then decides every candidate pair.
    """
    eps = 1e-12 * max(width, 1.0)
    span = math.ceil(width / pitch) + 3
    if wrap is not None:
        span = min(span, count)  # count windows in a row are every window
    first = np.floor((values - width) / pitch).astype(np.intp) - 1
    win = (first[:, None] + np.arange(span)).ravel()  # point-major
    pt = np.repeat(np.arange(len(values)), span)
    if wrap is None:
        inside = (win >= 0) & (win < count)
        win, pt = win[inside], pt[inside]
        start = win * pitch
        keep = (values[pt] >= start - eps) & (values[pt] <= start + width + eps)
    else:
        win = np.mod(win, count)
        keep = np.mod(values[pt] - win * pitch, wrap) <= width + eps
    win, pt = win[keep], pt[keep]
    # by color, then window; points stay ascending per window
    order = np.lexsort((win, win % m))
    win, pt = win[order], pt[order]
    heads = np.flatnonzero(np.diff(win, prepend=-1))  # each window's first pair
    # each color's pairs, and its windows' heads, are consecutive
    ends = np.searchsorted(win % m, np.arange(m + 1))
    cuts = np.searchsorted(heads, ends)
    return ColoredCovering(space, tuple(
        Family._of(space, np.append(heads[c0:c1], hi) - lo, pt[lo:hi])
        for lo, hi, c0, c1 in zip(ends[:-1], ends[1:], cuts[:-1], cuts[1:])))


def _point_floats(space: FiniteMetricSpace, key: str) -> np.ndarray:
    """meta[key] as the space's n finite floats, or LadderConstructionError
    naming the kind and the key: a space file's meta is outside input."""
    v = _meta_floats(space.meta, key, space.n)
    if v is None:
        raise LadderConstructionError(
            f"{space.meta['kind']} space needs meta {key} as {space.n} finite "
            "floats")
    return v


def _meta_length(space: FiniteMetricSpace, key: str, default: float) -> float:
    """meta[key], or the default when it is absent, as a positive finite
    float, or LadderConstructionError naming the kind and the key."""
    v = space.meta.get(key, default)
    if type(v) not in (int, float) or not 0 < v < math.inf:
        raise LadderConstructionError(
            f"{space.meta['kind']} space needs meta {key} as a positive "
            f"finite float, got {v!r}")
    return float(v)


def _window_count(space: FiniteMetricSpace, key: str, extent: float,
                  pitch: float, least: int) -> int:
    """max(least, ceil(extent / pitch)) windows, or LadderConstructionError
    naming the kind and the meta key unless the ratio is in (0, 2**53]."""
    count = extent / pitch if pitch > 0 else math.inf
    if not 0 < count <= 2.0 ** 53:
        raise LadderConstructionError(
            f"{space.meta['kind']} space meta {key} gives {count!r} windows, "
            "not a count in (0, 2**53]")
    return max(least, math.ceil(count))


def _circle_windows(space: FiniteMetricSpace, scale: float, m: int) -> ColoredCovering:
    angles = _point_floats(space, "angles")
    if space.meta.get("metric") == "chord":
        key, radius = "radius", _meta_length(space, "radius", 1.0)
        theta_scale = 2.0 * math.asin(min(scale, 2.0 * radius) / (2.0 * radius))
    else:
        key = "circumference"
        theta_scale = scale * 2.0 * math.pi / _meta_length(space, key, 2.0 * math.pi)
    theta_l = 2.0 * m / (m + 1) * theta_scale
    k = m * _window_count(space, key, 2.0 * math.pi, theta_l, 2)
    theta_p = 2.0 * math.pi / k
    theta_w = (m + 1) / 2.0 * theta_p
    return _window_level(space, np.mod(angles, 2.0 * math.pi), theta_p, theta_w,
                         k, m, wrap=2.0 * math.pi)


def _interval_windows(space: FiniteMetricSpace, scale: float, m: int) -> ColoredCovering:
    coords = _point_floats(space, "coords")
    lo = float(coords.min())
    length = float(coords.max()) - lo
    p_target = 2.0 / (m + 1) * scale
    k = _window_count(space, "coords", length, p_target, m)
    p = length / k
    w = (m + 1) / 2.0 * p
    return _window_level(space, coords - lo, p, w, k, m, wrap=None)


def _linkage_family(space: FiniteMetricSpace, t: float) -> Family:
    """The components of the spanning tree's edges no longer than t, as a
    Family whose members are ordered by their least point."""
    _, parent, length = space.spanning_tree
    points = np.arange(space.n)
    # up short edges to each component's first point, by pointer doubling
    comp = np.where(length <= t, parent, points)
    while not np.array_equal(comp, up := comp[comp]):
        comp = up
    least = np.full(space.n, space.n)
    np.minimum.at(least, comp, points)
    key = least[comp]
    points = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[points], prepend=-1))
    return Family._of(space, np.append(heads, space.n), points)


def _component_level(space: FiniteMetricSpace, scale: float, m: int) -> ColoredCovering:
    """Clustered level: every color holds the single-linkage components at
    the largest threshold whose components all have diameter <= scale.

    At threshold t they are the components of the minimum spanning tree's
    edges <= t (Gower & Ross 1969), as no pair across the cut that a tree
    edge makes is nearer than the edge.  So partitions change only at the
    tree's edge lengths, and as the mesh grows with t, a binary search over
    those <= scale finds the partition of the largest passing pairwise
    distance; threshold 0 gives singletons."""
    edges = space.spanning_tree[2][1:]  # point 0 joins through none
    cuts = np.unique(edges[edges <= scale]).tolist()
    best = _linkage_family(space, 0.0)
    lo, hi = 0, len(cuts) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        fam = _linkage_family(space, cuts[mid])
        if fam.mesh <= scale:
            best, lo = fam, mid + 1
        else:
            hi = mid - 1
    return _shared_level(best, m)


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
    members = [np.flatnonzero(d[c] <= 0.49 * scale) for c in centers]
    balls = Family(space, members)
    close = balls.gaps(balls.dist_rows()) < scale / 4
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
    # every color below `needed` has members; a color past it takes a copy
    # of an earlier class so every class stays a net
    color_of = np.array(color_of)
    return ColoredCovering(space, tuple(
        Family(space, [members[i] for i in np.flatnonzero(color_of == c % needed)])
        for c in range(max(m, needed))))


# meta["kind"] -> (the strategy the provenance records, the level builder)
_KINDS = {
    "circle": ("circle_arcs", _circle_windows),
    "random_circle": ("circle_arcs", _circle_windows),
    "visual_circle": ("circle_arcs", _circle_windows),
    "interval": ("interval_blocks", _interval_windows),
    "cantor": ("cantor_clopen", _component_level),
    "tree_boundary": ("tree_boundary_cylinders", _component_level),
}
_GREEDY = ("generic_greedy", _greedy_level)


def _kind(space: FiniteMetricSpace) -> tuple:
    """The space's `_KINDS` entry; a kind that is no string, which may be
    unhashable, or that names no stock builder gets generic_greedy."""
    kind = space.meta.get("kind")
    return _KINDS.get(kind, _GREEDY) if isinstance(kind, str) else _GREEDY


def build_level(space: FiniteMetricSpace, scale: float, m: int,
                allow_more_colors: bool = False) -> ColoredCovering:
    """One colored covering with mesh <= scale, by the builder that
    ``space.meta["kind"]`` selects; a space with no kind gets generic_greedy,
    which with allow_more_colors adds colors rather than refuse.

    Degenerate regimes apply to every builder: the whole space when the
    scale dominates the diameter, all singletons in every color once the
    scale's depth target drops below the sampling resolution.
    """
    if not 0 < scale < math.inf:
        raise LadderConstructionError(
            f"scale must be positive and finite, got {scale}")
    if m < 2:
        raise LadderConstructionError(f"need at least 2 colors, got {m}")
    if space.n == 0:
        raise LadderConstructionError("cannot cover an empty space")
    builder = _kind(space)[1]
    points = np.arange(space.n)
    if scale >= space.diameter:
        cov = _shared_level(Family._of(space, np.array([0, space.n]), points), m)
    elif space.n == 1 or (m - 1) / (2 * (m + 1)) * scale <= space.min_gap:
        cov = _shared_level(Family._of(space, np.arange(space.n + 1), points), m)
    elif builder is _greedy_level:
        cov = _greedy_level(space, scale, m, allow_more_colors)
    else:
        cov = builder(space, scale, m)
    if cov.mesh > scale * (1 + 1e-9):
        raise LadderConstructionError(
            f"built level has mesh {cov.mesh:.6g} above scale {scale:.6g}"
        )
    return cov


# ---------------------------------------------------------------------------
# measurement


def _measure(levels: tuple[ColoredCovering, ...], r: float,
             margins: bool) -> dict:
    """Measure a ladder's levels in one pass: delta, lam, the per-level
    stats ("levels") and, with ``margins``, gamma and its "gamma_records"
    in (fine, coarse, color) order; gamma is None without.  Each level's
    distinct families (whole, singleton and component levels share one
    among colors) have their `dist_rows()`, `depths` and own member-to-member
    `gaps` derived once, and dropped before the next, and every constant is
    read off them: the separation is the least of the gaps off the
    diagonal, and the same table, diagonal at +inf, is `_pair_margins`'
    avoidance term at jf == jc, where the fine family is the coarse one.

    delta is the min over levels of lebesgue, per-color separation, and
    per-color inner radius, each in units of r**j; the lebesgue clause is
    vacuous at mesh-0 levels.  lam is the max over levels of per-color net
    radius in the same units.  gamma is the least `_pair_margins` margin of
    same-color families at levels jf >= jc in units of r**jf, descendant
    margins counting across distinct levels only.
    """
    stats, records = [], []
    delta_hat, lam_hat, gamma = np.inf, 0.0, np.inf
    for jc, cov in enumerate(levels, 1):
        seps, nets, inners, peaks = [], [], [], []
        for coarse in dict.fromkeys(cov.colors):
            rows, depths = coarse.dist_rows(), coarse.depths
            gaps = coarse.gaps(rows)
            np.fill_diagonal(gaps, np.inf)  # no member is apart from itself
            seps.append(float(gaps.min(initial=np.inf)))
            nets.append(float(rows.min(axis=0, initial=np.inf).max()))
            # per member, the largest depth of any point inside it
            inners.append(float(depths.max(axis=1).min(initial=np.inf)))
            peaks.append(depths.max(axis=0, initial=0.0))
            pairs = {}  # colors holding the same fine family share its margins
            for jf in range(jc, len(levels) + 1) if margins and coarse else ():
                for a, fine in enumerate(levels[jf - 1].colors):
                    if cov.colors[a] is not coarse or not fine:
                        continue
                    if (jf, fine) not in pairs:
                        pairs[jf, fine] = _pair_margins(
                            fine, gaps if jf == jc else fine.gaps(rows), depths)
                    pair_min, desc_min = (m / r ** jf for m in pairs[jf, fine])
                    rec = {"color": a, "fine": jf, "coarse": jc,
                           "pair_margin": pair_min}
                    gamma = min(gamma, pair_min)
                    if jc < jf:
                        rec["descendant_margin"] = desc_min
                        gamma = min(gamma, desc_min)
                    records.append(rec)
                gaps = None  # its last reader is the same-level margins
            del rows, depths, gaps
        scale = r ** jc
        st = {
            "scale": scale,
            "members": [len(f) for f in cov.colors],
            "mesh": cov.mesh,
            "lebesgue": cov._lebesgue(peaks),
            "separation": min(seps),
            "inner_radius": min(inners),
            "net_radius": max(nets),
            "multiplicity": cov.multiplicity(),
        }
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
    out = {"delta": float(delta_hat), "lam": float(lam_hat), "gamma": None,
           "levels": stats}
    if margins:
        out["gamma"] = float(gamma)
        out["gamma_records"] = sorted(records,
                                      key=itemgetter("fine", "coarse", "color"))
    return out


def build_base(space: FiniteMetricSpace, r: float, depth: int, colors: int = 2,
               delta_target: float | None = None) -> CharSequence:
    """Build levels j = 1..depth at scales r**j, `colors` colors each, by the
    builder that ``space.meta["kind"]`` selects (generic_greedy for a space
    with no kind); with delta_target set, the measured delta must reach it."""
    if not 0 < r < 1:
        raise LadderConstructionError(f"ratio must be in (0, 1), got {r}")
    if depth < 1:
        raise LadderConstructionError(f"depth must be >= 1, got {depth}")
    levels = tuple(build_level(space, r ** j, colors)
                   for j in range(1, depth + 1))
    seq = CharSequence(space, r, levels, {
        "strategy": _kind(space)[0],
        "delta_target": delta_target,
    })
    if delta_target is not None and seq.delta < delta_target:
        raise LadderConstructionError(
            f"measured delta {seq.delta:.6g} below target {delta_target:.6g}"
        )
    return seq


# ---------------------------------------------------------------------------
# separation margins


def _pair_margins(fine: Family, gaps: np.ndarray,
                  depths: np.ndarray) -> tuple[float, float]:
    """Dichotomy margins between one fine and one coarse family, same color,
    given their member-to-member `gaps` and the coarse family's `depths`.

    For each pair the dichotomy (miss or sit inside) holds for every radius
    up to max(M1, M2), where M1 is the containment margin, the distance from
    the fine member to the coarse member's complement, and M2 the avoidance
    margin, the distance between the two members, read off ``gaps``; a
    family against itself passes its gaps with the diagonal at +inf, as
    identical members never compete with themselves.  Returns (min pair
    margin, min over coarse members of the best containment margin of any
    fine member), the latter only meaningful across distinct levels.
    """
    m1 = fine.member_min(depths.T)
    desc = float(m1.max(axis=0).min())
    return float(np.maximum(m1, gaps, out=m1).min()), desc


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
    """Run the merge cascade over a base sequence.

    Stage k folds base level k in: every coarser member is eroded by a moat,
    absorbs the fine members its grown core touches, and grows back by a
    hair.  The moat is the smaller of 4s and (sampled fine mesh + 3*delta*s),
    both of which make every fine neighborhood either swallowed or avoided.

    With enforce_assumptions the standing hypotheses guaranteeing the traced
    margins must hold, otherwise violations are recorded and the cascade
    proceeds; the returned ladder's gamma is measured either way.
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
            cascade.append(record)
            if identity:
                continue
            # ghat's open grow-neighborhoods, derived once for the
            # disjointness check and the merges
            hoods = ghat.dist_rows() < grow
            record["ghat_disjoint"] = bool(hoods.sum(axis=0).max() <= 1)
            if not record["ghat_disjoint"]:
                violations.append(
                    f"stage {k} color {a}: fine family is not "
                    f"{grow:.6g}-disjoint"
                )
            # every coarser level's cores merge against ghat in one batch
            cores = [per_color[a].eroded(moat) for per_color in current]
            grown = stacked(base.space, cores).merged(hoods, grow)
            lo = 0
            for per_color, level in zip(current, cores):
                drops += len(per_color[a]) - len(level)
                per_color[a] = grown.part(lo, lo + len(level))
                lo += len(level)
        current.append(ghats)
    try:
        levels = tuple(ColoredCovering(base.space, tuple(per_color))
                       for per_color in current)
    except CoveringError as e:
        raise LadderConstructionError(f"cascade destroyed a level: {e}") from e
    return CharSequence(base.space, r, levels, {
        "base_delta": base.delta,
        "base_lam": base.lam,
        "delta_used": delta_use,
        "assumption_warnings": violations,
        "moats": moats,
        "cascade": cascade,
        "dropped_members": drops,
        "gamma_trace": {str(j): g for j, g in
                        margin_trace(r, delta_use, base.depth).items()},
        "base_provenance": {**base.provenance,
                            "levels": base.measurement["levels"]},
    })


# ---------------------------------------------------------------------------
# verification


def verify_char_seq(seq: CharSequence) -> None:
    """Check each level's measured mesh against r**j, which the cascade can
    break, and raise LadderConstructionError at the first level above it;
    `ColoredCovering` enforces coverage on construction."""
    for j, st in enumerate(seq.measurement["levels"], 1):
        if not st["mesh"] <= st["scale"] * (1 + 1e-9):
            raise LadderConstructionError(
                f"level {j}: mesh {st['mesh']:.6g} exceeds r**{j} = "
                f"{st['scale']:.6g}")


verify_base = verify_char_seq
