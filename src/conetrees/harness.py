"""Example spaces, capacity profiling, and the end-to-end pipeline.

The pipeline runs generate -> base ladder -> separation cascade, then
`certify`: trees -> cone grid -> product embedding -> checks (radial climb,
sphere ratio, QI fit, tree hyperbolicity).  It revalidates each stage and
fails loudly with the stage name on any violation.  `conetrees verify`
runs the same `certify` on a bundle's stored ladder, so the pipeline and
its re-verification share one copy of the stage code.  All stages are
deterministic given the config, so a bundle written twice is
byte-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import io as bundle_io
from .char_seq import (
    CharSequence,
    LadderConstructionError,
    SeparationPreconditionError,
    build_base,
    build_level,
    separate,
    verify_base,
    verify_char_seq,
)
from .coverings import CoveringError
from .hyp_cone import ConeError, ConeGrid, build_grid
from .metric_core import FiniteMetricSpace, MetricError
from .qi_verify import QIReport, delta_hyperbolicity, fit_qi, visual_metric_circle
from .tree_embed import (
    RadialCheckError,
    TreeError,
    build_tree,
    embed_grid,
    radial_check,
)

GENERATORS = ("circle", "interval", "cantor", "tree_boundary",
              "random_circle", "visual_circle")


def _circle(n: int, circumference: float = 2.0 * math.pi) -> FiniteMetricSpace:
    if n < 3:
        raise ValueError(f"circle needs at least 3 points, got {n}")
    if circumference <= 0:
        raise ValueError("circumference must be positive")
    k = np.arange(n)
    steps = np.abs(k[:, None] - k[None, :])
    steps = np.minimum(steps, n - steps)
    d = (circumference / n) * steps
    ids = tuple(f"p{i:04d}" for i in range(n))
    meta = {
        "kind": "circle",
        "metric": "arc",
        "circumference": circumference,
        "angles": (2.0 * math.pi * k / n).tolist(),
    }
    return FiniteMetricSpace(dist=d.astype(float), point_ids=ids, meta=meta)


def _interval(n: int, length: float = 1.0) -> FiniteMetricSpace:
    if n < 2:
        raise ValueError(f"interval needs at least 2 points, got {n}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    x = np.linspace(0.0, length, n)
    d = np.abs(x[:, None] - x[None, :])
    ids = tuple(f"p{i:04d}" for i in range(n))
    meta = {"kind": "interval", "length": length, "coords": x.tolist()}
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def _cantor(depth: int) -> FiniteMetricSpace:
    if not 1 <= depth <= 10:
        raise ValueError(f"cantor depth must be in 1..10, got {depth}")
    xs = [0.0]
    for i in range(1, depth + 1):
        xs = [x + c / 3.0 ** i for x in xs for c in (0.0, 2.0)]
    x = np.sort(np.array(xs))
    d = np.abs(x[:, None] - x[None, :])
    ids = tuple(f"p{i:04d}" for i in range(len(x)))
    meta = {"kind": "cantor", "depth": depth, "coords": x.tolist()}
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def _tree_boundary(depth: int, branching: int = 2) -> FiniteMetricSpace:
    if depth < 1:
        raise ValueError(f"tree depth must be >= 1, got {depth}")
    if branching < 2:
        raise ValueError(f"branching must be >= 2, got {branching}")
    n = branching ** depth
    if n > 2048:
        raise ValueError(f"{n} leaves exceed the 2048 cap")
    digits = np.zeros((n, depth), dtype=int)
    for i in range(n):
        v = i
        for pos in range(depth - 1, -1, -1):
            digits[i, pos] = v % branching
            v //= branching
    common = np.zeros((n, n), dtype=int)
    agree = np.ones((n, n), dtype=bool)
    for pos in range(depth):
        agree &= digits[:, pos][:, None] == digits[:, pos][None, :]
        common += agree
    d = (depth - common) / depth
    np.fill_diagonal(d, 0.0)
    ids = tuple("t" + "".join(str(c) for c in row) for row in digits)
    meta = {"kind": "tree_boundary", "depth": depth, "branching": branching}
    return FiniteMetricSpace(dist=d.astype(float), point_ids=ids, meta=meta)


def _random_circle(n: int, seed: int = 0) -> FiniteMetricSpace:
    if n < 3:
        raise ValueError(f"random circle needs at least 3 points, got {n}")
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    diff = np.abs(angles[:, None] - angles[None, :])
    diff = np.minimum(diff, 2.0 * math.pi - diff)
    d = 2.0 * np.sin(diff / 2.0)
    np.fill_diagonal(d, 0.0)
    ids = tuple(f"p{i:04d}" for i in range(n))
    meta = {
        "kind": "random_circle",
        "metric": "chord",
        "radius": 1.0,
        "seed": seed,
        "angles": angles.tolist(),
    }
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def generate(kind: str, **params) -> FiniteMetricSpace:
    """Build one of the stock example spaces; see GENERATORS."""
    if kind == "circle":
        return _circle(**params)
    if kind == "interval":
        return _interval(**params)
    if kind == "cantor":
        return _cantor(**params)
    if kind == "tree_boundary":
        return _tree_boundary(**params)
    if kind == "random_circle":
        return _random_circle(**params)
    if kind == "visual_circle":
        return visual_metric_circle(**params)
    raise ValueError(f"unknown generator {kind!r}; choose from {GENERATORS}")


def capacity_profile(space: FiniteMetricSpace, scales, colors=(2,),
                     strategy: str = "auto", delta_gate: float = 0.1,
                     budget: int = 256) -> dict:
    """Capacity (Lebesgue number over mesh) of single built levels across
    scales and color counts.

    Rows whose mesh falls outside [delta_gate * scale, scale] are marked
    uninformative: the builder degenerated (singletons, or the whole space)
    and the capacity says nothing about the scale in question.
    """
    scales = [float(s) for s in scales]
    colors = [int(m) for m in colors]
    if len(scales) * len(colors) > budget:
        raise ValueError(
            f"{len(scales) * len(colors)} evaluations exceed budget {budget}"
        )
    records = []
    for m in colors:
        for tau in scales:
            cov = build_level(space, tau, m, strategy, allow_more_colors=True)
            pooled = cov.pooled
            mesh = pooled.mesh
            rec = {
                "colors": m,
                "scale": tau,
                "mesh": mesh,
                "lebesgue": pooled.lebesgue(),
                "capacity": pooled.capacity(),
                "multiplicity": cov.multiplicity(),
                "members": sum(len(f) for f in cov.colors),
                "informative": bool(delta_gate * tau <= mesh <= tau),
            }
            records.append(rec)
    return {
        "n": space.n,
        "diameter": space.diameter,
        "records": records,
        "caveat": (
            "capacities at scales near or below the sampling resolution "
            "describe the finite sample, not the space it was drawn from"
        ),
    }


@dataclass
class PipelineConfig:
    generator: str
    params: dict = field(default_factory=dict)
    r: float = 0.125
    depth: int = 4
    colors: int = 2
    delta_target: float | None = None
    seed: int = 0
    outdir: str | None = None
    enforce_assumptions: bool = False
    tree_delta_check: bool = True

    def echo(self) -> dict:
        """Config as written into bundles: everything but the output path."""
        d = asdict(self)
        d.pop("outdir")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)


def generator_params(config: PipelineConfig) -> dict:
    """The keyword arguments `run_pipeline` passes to `generate`: the
    config's params, with the config seed as random_circle's default."""
    params = dict(config.params)
    if config.generator == "random_circle":
        params.setdefault("seed", config.seed)
    return params


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(eq=False)
class PipelineResult:
    config: PipelineConfig
    space: FiniteMetricSpace
    base: object
    charseq: object
    trees: tuple
    grid: ConeGrid
    embedding: object
    qi: QIReport
    radial: dict
    sphere: dict
    tree_deltas: list | None
    log: list[str]
    runtime: float


def sphere_ratio_check(grid: ConeGrid) -> dict:
    """Same-level grid distances against the comparison bound: for distinct
    base points at angle tau and level j, sinh(dist/2) * r**j / tau must lie
    in [1/C, C] with C = 2*pi / (1 - r*r)."""
    c_bound = 2.0 * math.pi / (1.0 - grid.r * grid.r)
    lo, hi = np.inf, -np.inf
    iu = np.triu_indices(grid.space.n, k=1)
    tau = grid.mu * grid.space.dist[iu]
    for j in range(1, grid.depth + 1):
        t = j * grid.R
        ratio = math.sinh(t) * np.sin(tau / 2.0) * grid.r ** j / tau
        lo = min(lo, float(ratio.min()))
        hi = max(hi, float(ratio.max()))
    passed = lo >= 1.0 / c_bound - 1e-12 and hi <= c_bound + 1e-12
    return {"min_ratio": lo, "max_ratio": hi, "bound": c_bound, "passed": passed}


def certify(charseq: CharSequence, tree_delta_check: bool,
            log: list[str]) -> dict:
    """The certification tail shared by `run_pipeline` and `conetrees
    verify`: trees, cone grid (r and depth from the ladder), product
    embedding, radial climb, sphere ratios, QI fit and, if asked, tree
    hyperbolicity.  Appends one log line per stage and raises StageError
    on the first failure.  Returns the outputs keyed by their
    PipelineResult field names."""
    try:
        trees = tuple(build_tree(charseq, a) for a in range(charseq.n_colors))
    except TreeError as e:
        raise StageError("build_tree", str(e)) from e
    log.append("build_tree: " + " ".join(
        f"tree{a}={t.n_nodes}nodes" for a, t in enumerate(trees)))
    try:
        grid = build_grid(charseq.space, charseq.r, charseq.depth)
    except ConeError as e:
        raise StageError("build_grid", str(e)) from e
    log.append(f"build_grid: points={grid.n_points} R={grid.R:.6g}")
    try:
        embedding = embed_grid(charseq, grid, trees)
    except TreeError as e:
        raise StageError("embed_grid", str(e)) from e
    try:
        radial = radial_check(embedding)
    except RadialCheckError as e:
        raise StageError("radial_check", str(e)) from e
    log.append(f"radial_check: checks={radial['checks']} "
               f"max_steps={radial['max_steps']}")
    sphere = sphere_ratio_check(grid)
    if not sphere["passed"]:
        raise StageError(
            "sphere_ratio",
            f"ratios [{sphere['min_ratio']:.6g}, {sphere['max_ratio']:.6g}] "
            f"escape [1/{sphere['bound']:.6g}, {sphere['bound']:.6g}]",
        )
    log.append(f"sphere_ratio: min={sphere['min_ratio']:.6g} "
               f"max={sphere['max_ratio']:.6g} bound={sphere['bound']:.6g}")
    iu = np.triu_indices(grid.n_points, k=1)
    ds = grid.dist_matrix[iu]
    dt = embedding.all_pairs_dist[iu]
    qi = fit_qi(ds, dt)
    if qi.violations:
        raise StageError("fit_qi", repr(qi))
    log.append(f"fit_qi: lam={qi.lam:.6g} sigma={qi.sigma:.6g} "
               f"pairs={qi.n_pairs}")
    tree_deltas = None
    if tree_delta_check:
        tree_deltas = [float(delta_hyperbolicity(t.all_pairs_dist)) for t in trees]
        if any(dlt != 0.0 for dlt in tree_deltas):
            raise StageError("tree_delta", f"nonzero hyperbolicity {tree_deltas}")
        log.append("tree_delta: " + " ".join(f"{dlt:g}" for dlt in tree_deltas))
    return {"trees": trees, "grid": grid, "embedding": embedding, "qi": qi,
            "radial": radial, "sphere": sphere, "tree_deltas": tree_deltas}


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every stage, revalidating as it goes; see module docstring."""
    t0 = time.perf_counter()
    log: list[str] = []
    try:
        space = generate(config.generator, **generator_params(config))
    except (ValueError, MetricError) as e:
        raise StageError("generate", str(e)) from e
    log.append(f"generate: kind={config.generator} n={space.n} "
               f"diameter={space.diameter:.6g}")
    try:
        base = build_base(space, config.r, config.depth, config.colors,
                          config.delta_target)
    except (LadderConstructionError, CoveringError) as e:
        raise StageError("build_base", str(e)) from e
    rep = verify_base(base)
    if not rep.passed:
        raise StageError("build_base", rep.summary())
    log.append(f"build_base: depth={base.depth} colors={base.n_colors} "
               f"delta={base.delta:.6g} lam={base.lam:.6g}")
    try:
        charseq = separate(base, config.enforce_assumptions)
    except (LadderConstructionError, SeparationPreconditionError, CoveringError) as e:
        raise StageError("separate", str(e)) from e
    rep = verify_char_seq(charseq)
    if not rep.passed:
        raise StageError("separate", rep.summary())
    log.append(f"separate: delta={charseq.delta:.6g} lam={charseq.lam:.6g} "
               f"gamma={charseq.gamma:.6g}")
    certified = certify(charseq, config.tree_delta_check, log)
    result = PipelineResult(
        config=config, space=space, base=base, charseq=charseq, **certified,
        log=log, runtime=time.perf_counter() - t0,
    )
    if config.outdir:
        bundle_io.write_bundle(config.outdir, result)
    return result
