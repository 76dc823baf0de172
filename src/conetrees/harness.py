"""Example spaces, capacity profiling, and the end-to-end pipeline.

`run_pipeline` runs the stages in one list: generate -> base ladder (and
its mesh check) -> separation cascade (and its mesh check) -> trees -> cone
grid -> product embedding -> checks (radial climb, sphere ratio, QI fit,
tree hyperbolicity).  Every check raises, and the first failure comes out
as a StageError naming its stage.  All stages are deterministic given the
config, so a bundle written twice is byte-identical, and `conetrees verify`
checks a bundle by rerunning `run_pipeline` on its `config.json` and
comparing every file.
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import io as bundle_io
from .char_seq import (
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
from .metric_core import (
    FiniteMetricSpace,
    MetricError,
    chord_metric,
    circulant,
    line_metric,
)
from .qi_verify import (
    BLOCK_ENTRIES,
    QIReport,
    delta_hyperbolicity,
    fit_qi,
)
from .tree_embed import (
    RadialCheckError,
    TreeError,
    build_tree,
    embed_grid,
    radial_check,
)

# Most (scale, color count) evaluations one capacity profile may run.
PROFILE_BUDGET = 256
# Least mesh, as a fraction of the scale, of an informative profile row.
DELTA_GATE = 0.1


def _circle(n: int, circumference: float = 2.0 * math.pi) -> FiniteMetricSpace:
    if n < 3:
        raise ValueError(f"circle needs at least 3 points, got {n}")
    if circumference <= 0:
        raise ValueError("circumference must be positive")
    k = np.arange(n)
    d = np.array(circulant((circumference / n) * np.minimum(k, n - k)))
    ids = tuple(f"p{i:04d}" for i in range(n))
    meta = {
        "kind": "circle",
        "metric": "arc",
        "circumference": circumference,
        "angles": (2.0 * math.pi * k / n).tolist(),
    }
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def _interval(n: int, length: float = 1.0) -> FiniteMetricSpace:
    if n < 2:
        raise ValueError(f"interval needs at least 2 points, got {n}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    x = np.linspace(0.0, length, n)
    d = line_metric(x)
    ids = tuple(f"p{i:04d}" for i in range(n))
    meta = {"kind": "interval", "length": length, "coords": x.tolist()}
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def _cantor(depth: int) -> FiniteMetricSpace:
    if not 1 <= depth <= 12:
        raise ValueError(f"cantor depth must be in 1..12, got {depth}")
    xs = [0.0]
    for i in range(1, depth + 1):
        xs = [x + c / 3.0 ** i for x in xs for c in (0.0, 2.0)]
    x = np.sort(np.array(xs))
    d = line_metric(x)
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
    ids = tuple("t" + "".join(str(c) for c in row) for row in digits)
    meta = {"kind": "tree_boundary", "depth": depth, "branching": branching}
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def _random_circle(n: int, seed: int = 0) -> FiniteMetricSpace:
    if n < 3:
        raise ValueError(f"random circle needs at least 3 points, got {n}")
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    d = chord_metric(angles, 1.0)
    ids = tuple(f"p{i:04d}" for i in range(n))
    meta = {
        "kind": "random_circle",
        "metric": "chord",
        "radius": 1.0,
        "seed": seed,
        "angles": angles.tolist(),
    }
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


def visual_metric_circle(n: int) -> FiniteMetricSpace:
    """The n-point circle with distances sin(angle/2): the visual metric on
    the boundary circle seen from the disk center, i.e. half the chord."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    angles = 2.0 * math.pi * np.arange(n) / n
    d = chord_metric(angles, 0.5)
    ids = tuple(f"v{i:04d}" for i in range(n))
    meta = {
        "kind": "visual_circle",
        "metric": "chord",
        "radius": 0.5,
        "angles": angles.tolist(),
    }
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)


_SPACES = {"circle": _circle, "interval": _interval, "cantor": _cantor,
           "tree_boundary": _tree_boundary, "random_circle": _random_circle,
           "visual_circle": visual_metric_circle}
GENERATORS = tuple(_SPACES)


def _fits(value, kind) -> bool:
    """Whether value suits a parameter annotated `kind`: a bool is no int or
    float, an int is a float, and `X | None` also takes None."""
    if typing.get_args(kind):
        return any(_fits(value, k) for k in typing.get_args(kind))
    if kind in (int, float):
        number = numbers.Integral if kind is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, kind)


def generate(kind: str, **params) -> FiniteMetricSpace:
    """Build one of the stock example spaces; see GENERATORS.  Unknown,
    missing or ill-typed parameters raise ValueError naming them."""
    if kind not in _SPACES:
        raise ValueError(f"unknown generator {kind!r}; choose from {GENERATORS}")
    make = _SPACES[kind]
    accepted = inspect.signature(make).parameters
    types = typing.get_type_hints(make)
    unknown = sorted(set(params) - set(accepted))
    missing = [k for k, p in accepted.items()
               if p.default is p.empty and k not in params]
    ill = [f"{k}={v!r}" for k, v in params.items()
           if k in accepted and not _fits(v, types[k])]
    if unknown or missing or ill:
        takes = ", ".join(f"{k}: {types[k].__name__}" for k in accepted)
        raise ValueError(f"{kind} takes {takes}; got unknown {unknown}, "
                         f"missing {missing}, ill-typed {ill}")
    return make(**params)


def capacity_profile(space: FiniteMetricSpace, scales, colors=(2,)) -> dict:
    """Capacity (Lebesgue number over mesh) of single levels across scales
    and color counts, built as `build_level` builds them for the space's
    kind; a space with no kind gets generic_greedy, which may add colors.

    Rows whose mesh falls outside [DELTA_GATE * scale, scale] are marked
    uninformative: the builder degenerated (singletons, or the whole space)
    and the capacity says nothing about the scale in question.
    """
    scales = [float(s) for s in scales]
    colors = [int(m) for m in colors]
    if len(scales) * len(colors) > PROFILE_BUDGET:
        raise ValueError(f"{len(scales) * len(colors)} evaluations exceed "
                         f"budget {PROFILE_BUDGET}")
    records = []
    for m in colors:
        for tau in scales:
            cov = build_level(space, tau, m, allow_more_colors=True)
            # capacity, Lebesgue number over mesh: 1 by convention at mesh 0
            mesh, leb = cov.mesh, cov.lebesgue()
            rec = {
                "colors": m,
                "scale": tau,
                "mesh": mesh,
                "lebesgue": leb,
                "capacity": 1.0 if mesh == 0 else leb / mesh,
                "multiplicity": cov.multiplicity(),
                "members": sum(len(f) for f in cov.colors),
                "informative": bool(DELTA_GATE * tau <= mesh <= tau),
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

    def __post_init__(self):
        """Refuse a field of the wrong type or a NaN or infinite float, which
        passes every gate and is no JSON number; params are left to
        `generate` (through `generator_params`), which fails that stage."""
        for name, kind in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if name != "params" and not _fits(value, kind):
                raise ValueError(f"config field {name} must be "
                                 f"{getattr(kind, '__name__', kind)}, got "
                                 f"{value!r}")
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"config field {name} must be finite, got "
                                 f"{value!r}")

    def echo(self) -> dict:
        """Config as written into bundles: everything but the output path."""
        d = asdict(self)
        d.pop("outdir")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        if "generator" not in d:
            raise ValueError("config needs a generator")
        return cls(**d)


def generator_params(generator: str, params: dict, seed: int) -> dict:
    """The keyword arguments to pass to `generate`: params, with seed as
    random_circle's default seed."""
    if not isinstance(params, dict):
        raise ValueError(f"generator params must be a JSON object, got "
                         f"{params!r}")
    params = dict(params)
    if generator == "random_circle":
        params.setdefault("seed", seed)
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


@dataclass(frozen=True)
class _LevelPairs:
    """The grid pairs i < k, as fit_qi's re-iterable (ds, dt) blocks, in
    np.triu_indices's row-major order.  A block is rows [r0, r1) of one
    level over the columns right of r0: the cone side from
    `ConeGrid.level_rows`, the product side from the same slice of the
    product matrix.  Its columns k <= i lie among its own rows, so in its
    own level, and a mask trims them.  A block computes at most BLOCK_ENTRIES cone entries, or one
    row when a row is wider, so the cone side holds O(BLOCK_ENTRIES) memory
    whatever the grid's size."""

    grid: ConeGrid
    product: np.ndarray

    def __iter__(self):
        grid, n_points = self.grid, self.grid.n_points
        for j in range(grid.depth + 1):
            first, size = grid.index(j, 0), (grid.space.n if j else 1)
            lo = 0
            while lo < size:
                r0 = first + lo
                width = n_points - r0 - 1
                hi = min(size, lo + max(1, BLOCK_ENTRIES // max(width, 1)))
                # row i keeps columns k > i: in block coordinates q >= p
                keep = np.arange(width)[None, :] >= np.arange(hi - lo)[:, None]
                # no name keeps the block's rows while the next one is made
                yield (grid.level_rows(j, lo, hi, r0 + 1)[keep],
                       self.product[r0: first + hi, r0 + 1:][keep])
                lo = hi


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every stage in order, appending one log line per stage and
    raising StageError on the first failure; see module docstring.

    The QI fit streams the pairs i < k in row blocks of at most
    BLOCK_ENTRIES cone entries (see `_LevelPairs`), so the cone side holds
    O(BLOCK_ENTRIES) memory per block, never the whole cone matrix or a
    whole level's rows.  The product side is one n_points x n_points int32
    matrix, built without an n_points x n_points transient (see
    `ProductEmbedding.all_pairs_dist`).  The n x n S table that
    `ConeGrid.level_rows` derives and the product matrix are both released
    when the fit returns; a later read derives either again."""
    t0 = time.perf_counter()
    log: list[str] = []
    try:
        space = generate(config.generator, **generator_params(
            config.generator, config.params, config.seed))
    except (ValueError, MetricError) as e:
        raise StageError("generate", str(e)) from e
    log.append(f"generate: kind={config.generator} n={space.n} "
               f"diameter={space.diameter:.6g}")
    try:
        base = build_base(space, config.r, config.depth, config.colors,
                          config.delta_target)
        verify_base(base)
    except (LadderConstructionError, CoveringError) as e:
        raise StageError("build_base", str(e)) from e
    log.append(f"build_base: depth={base.depth} colors={base.n_colors} "
               f"delta={base.delta:.6g} lam={base.lam:.6g}")
    try:
        charseq = separate(base, config.enforce_assumptions)
        verify_char_seq(charseq)
    except (LadderConstructionError, SeparationPreconditionError, CoveringError) as e:
        raise StageError("separate", str(e)) from e
    log.append(f"separate: delta={charseq.delta:.6g} lam={charseq.lam:.6g} "
               f"gamma={charseq.gamma:.6g}")
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
    qi = fit_qi(_LevelPairs(grid, embedding.all_pairs_dist))
    # S (n x n floats) and the product matrix (n_points**2 int32) are held
    # by their objects' caches until here, and nothing after reads them
    grid.__dict__.pop("_level_factors", None)
    embedding.__dict__.pop("all_pairs_dist", None)
    if qi.violations:
        raise StageError("fit_qi", repr(qi))
    log.append(f"fit_qi: lam={qi.lam:.6g} sigma={qi.sigma:.6g} "
               f"pairs={qi.n_pairs}")
    tree_deltas = None
    if config.tree_delta_check:
        tree_deltas = [float(delta_hyperbolicity(t.all_pairs_dist)) for t in trees]
        if any(dlt != 0.0 for dlt in tree_deltas):
            raise StageError("tree_delta", f"nonzero hyperbolicity {tree_deltas}")
        log.append("tree_delta: " + " ".join(f"{dlt:g}" for dlt in tree_deltas))
    result = PipelineResult(
        config=config, space=space, base=base, charseq=charseq, trees=trees,
        grid=grid, embedding=embedding, qi=qi, radial=radial, sphere=sphere,
        tree_deltas=tree_deltas, log=log, runtime=time.perf_counter() - t0,
    )
    if config.outdir:
        bundle_io.write_bundle(config.outdir, result)
    return result
