"""One benchmark child, run in a fresh interpreter by run.py:

    python3 bench/child.py MODE WORKLOAD SEED WORKDIR

with `src` on PYTHONPATH.  Every mode but tverify first does the set-up
(import conetrees, generate the workload's space) and prints `ready`, so
the caller can time interpreter start to a validated space.  Then:

- setup: a speed probe (see `speed_probe`) and nothing more.
- op: one untraced `run_pipeline` writing WORKDIR/bundle, then
  `conetrees verify --bundle` on it, in this process, with speed probes
  around both.
- pipeline: the untraced `run_pipeline` of op alone.
- tpipeline: `run_pipeline` writing WORKDIR/traced with a span around
  every public call it makes, then a cold Lebesgue probe.
- tverify: `conetrees verify --bundle WORKDIR/traced`, traced the same way.

The traced modes run the program's own code (see `traced`), each in a
process of its own so that its RSS high-water mark is its own.  The last
stdout line is one JSON report.  An exception is reported in it rather
than raised, so the caller can count the operation as failed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

# bundle files whose bytes are pinned; qireport.json, config.json and
# log.txt are left out because planned changes alter them on purpose
DIGESTED = ("space.json", "charseq.json", "tree_*.csv", "embedding.csv")


def maxrss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bundle_digests(bundle: Path) -> dict:
    out = {}
    for pattern in DIGESTED:
        for path in sorted(bundle.glob(pattern)):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def same_files(a: Path, b: Path) -> bool:
    """Whether two bundle directories hold the same names with equal bytes."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def pipeline_config(name: str, seed: int, outdir: Path):
    from conetrees import PipelineConfig
    cfg = WORKLOADS[name]["config"]
    return PipelineConfig(**{**cfg, "params": dict(cfg["params"])},
                          seed=seed, outdir=str(outdir))


def set_up(config):
    from conetrees import generate
    return generate(config.generator, **config.params)


def speed_probe(reps: int = 5) -> float:
    """Seconds of a fixed mix of interpreter, dict and numpy work, the
    fastest of `reps` timings.

    Other tenants of a shared host slow its cores by up to half for a minute
    at a time.  Timed in the same process just before and after a measured
    call, this task tracks that drift, and run.py rescales the call's time
    by it.  It is the benchmark's own code, so no change to the program
    moves it.
    """
    import numpy as np
    column = np.arange(1 << 19, dtype=np.float64)  # 4 MiB, past the L2 cache
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        table: dict[int, int] = {}
        for i in range(20_000):
            table[i % 997] = table.get(i % 997, 0) + i
        a = column
        for _ in range(4):
            a = np.sqrt(a * a + 1.0)
        best = min(best, time.perf_counter() - start)
    return best


def verify_bundle(bundle: Path) -> dict:
    """`conetrees verify --bundle`, in process, with its output captured."""
    from conetrees import cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(["verify", "--bundle", str(bundle)])
    return {"verify_s": time.perf_counter() - start, "verify_rc": rc,
            "verify_out": buf.getvalue()}


def outcome(result) -> dict:
    """The certificate fields of a pipeline result that the gate reads."""
    return {
        "pairs": result.qi.n_pairs,
        "violations": result.qi.violations,
        "radial_failures": result.radial["failures"],
        "tree_deltas": result.tree_deltas,
    }


def run_op(config, verify: bool = True) -> dict:
    """Pipeline, then (unless told not to) verify on the written bundle,
    with a speed probe before, between and after them."""
    from conetrees import run_pipeline
    probes = [speed_probe()]
    start = time.perf_counter()
    result = run_pipeline(config)
    report = {"pipeline_s": time.perf_counter() - start, **outcome(result)}
    probes.append(speed_probe())
    bundle = Path(config.outdir)
    if verify:
        report.update(verify_bundle(bundle))
        probes.append(speed_probe())
    report["probe_s"] = probes
    report["digests"] = bundle_digests(bundle)
    report["maxrss_mb"] = maxrss_mb()
    return report


def gate(report: dict, expected: dict) -> list[str]:
    """Reasons a child's report fails the operation; empty when it passed.

    The certificate and digest checks apply to every report of a child that
    ran a pipeline, which is every report carrying `digests`.
    """
    if "error" in report:
        return [report["error"].strip().splitlines()[-1]]
    reasons = []
    if report.get("verify_rc", 0) != 0:
        reasons.append(f"verify exited {report['verify_rc']}")
    if "digests" not in report:
        return reasons
    if report["violations"]:
        reasons.append(f"{report['violations']} QI violations")
    if report["radial_failures"]:
        reasons.append(f"{report['radial_failures']} radial failures")
    if any(d != 0.0 for d in report["tree_deltas"] or ()):
        reasons.append(f"nonzero tree deltas {report['tree_deltas']}")
    got = report["digests"]
    for name in sorted(set(expected) | set(got)):
        if got.get(name) != expected.get(name):
            reasons.append(f"{name} differs from its recorded digest")
    return reasons


# ---------------------------------------------------------------------------
# tracing

# The public functions that run_pipeline and `conetrees verify` look up as
# globals of their modules, wrapped there so the program's own code runs
# and only the calls it makes are timed.
TRACED_CALLS = {
    "conetrees.harness": {
        "generate": "metric_core.generate",
        "build_base": "char_seq.build_base",
        "verify_base": "char_seq.verify_base",
        "separate": "char_seq.separate",
        "verify_char_seq": "char_seq.verify_char_seq",
        "build_tree": "tree_embed.build_tree",
        "build_grid": "hyp_cone.build_grid",
        "embed_grid": "tree_embed.embed_grid",
        "radial_check": "tree_embed.radial_check",
        "sphere_ratio_check": "harness.sphere_ratio",
        "fit_qi": "qi_verify.fit_qi",
        "delta_hyperbolicity": "qi_verify.tree_delta",
    },
    "conetrees.cli": {
        "verify_char_seq": "char_seq.verify_char_seq",
        "build_tree": "tree_embed.build_tree",
        "build_grid": "hyp_cone.build_grid",
        "embed_grid": "tree_embed.embed_grid",
        "radial_check": "tree_embed.radial_check",
        "sphere_ratio_check": "harness.sphere_ratio",
        "fit_qi": "qi_verify.fit_qi",
    },
    "conetrees.io": {
        "write_bundle": "io.write_bundle",
        "read_bundle": "io.read_bundle",
    },
}

# The lazily computed pair matrices: (module, class, cached_property, span).
TRACED_LAZY = (
    ("conetrees.hyp_cone", "ConeGrid", "dist_matrix", "hyp_cone.cone_matrix"),
    ("conetrees.tree_embed", "RootedTree", "all_pairs_dist",
     "tree_embed.tree_pairs"),
    ("conetrees.tree_embed", "ProductEmbedding", "all_pairs_dist",
     "tree_embed.product_matrix"),
)


class Spans:
    """Spans kept in memory: {name, start, end, self_s, parent, root,
    run_id, maxrss_mb}.  `self_s` is the span's time less its children's;
    `maxrss_mb` is the process's high-water mark when the span ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[dict] = []
        self._open: list[list] = []  # [name, seconds spent in children]

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        root = self._open[0][0] if self._open else name
        self._open.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            children = self._open.pop()[1]
            if parent is not None:
                parent[1] += end - start
            self.records.append({
                "name": name, "start": start, "end": end,
                "self_s": end - start - children,
                "parent": parent[0] if parent else None, "root": root,
                "run_id": self.run_id, "maxrss_mb": maxrss_mb(),
            })

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call


@contextlib.contextmanager
def traced(spans: Spans):
    """Record a span for every traced call made inside the block."""
    undo = []
    for modname, calls in TRACED_CALLS.items():
        module = importlib.import_module(modname)
        for attr, name in calls.items():
            undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, spans.wrap(getattr(module, attr), name))
    for modname, clsname, attr, name in TRACED_LAZY:
        cls = getattr(importlib.import_module(modname), clsname)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        prop = functools.cached_property(spans.wrap(original.func, name))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def level_kind(cov, n: int) -> str:
    sizes = {len(u) for fam in cov.colors for u in fam.members}
    if sizes == {n}:
        return "whole"
    if sizes == {1}:
        return "singleton"
    return "built"


def layer_counts(result, bundle: Path) -> dict:
    """Work counts of one finished run; computed sizes are stated as such."""
    n = result.space.n
    kinds = [level_kind(cov, n) for cov in result.base.levels]
    prov = result.charseq.provenance
    pooled = [cov.pooled for cov in result.charseq.levels]
    nodes = [t.n_nodes for t in result.trees]
    big_n = result.grid.n_points
    return {
        "metric_core.points": n,
        "char_seq.levels_built": kinds.count("built"),
        "char_seq.levels_singleton": kinds.count("singleton"),
        "char_seq.levels_whole": kinds.count("whole"),
        "char_seq.members": sum(len(f) for cov in result.charseq.levels
                                for f in cov.colors),
        "char_seq.dropped_members": prov["dropped_members"],
        "char_seq.identity_stages": sum(c["identity"] for c in prov["cascade"]),
        "char_seq.cascade_stages": len(prov["cascade"]),
        # distance reads of Family._depths: n per complement point per member
        "coverings.depth_reads": sum(n * (n - len(u)) for fam in pooled
                                     for u in fam.members),
        "hyp_cone.grid_points": big_n,
        "hyp_cone.cone_matrix_bytes": big_n * big_n * 8,
        "tree_embed.tree_nodes": sum(nodes),
        "tree_embed.tree_pairs_bytes": sum(k * k * 2 for k in nodes),
        "tree_embed.radial_checks": result.radial["checks"],
        "qi_verify.tree_delta_ops": (sum(k ** 3 for k in nodes)
                                     if result.tree_deltas is not None else 0),
        "qi_verify.pairs": result.qi.n_pairs,
        "qi_verify.dt_values": result.qi.details["dt_values"],
        "io.bundle_bytes": sum(p.stat().st_size for p in bundle.iterdir()),
    }


def run_traced_pipeline(config, run_id: str) -> dict:
    """run_pipeline under the tracer (root span `pipeline`), then a cold
    Lebesgue probe of every pooled level (root span `probe`)."""
    from conetrees import Family, run_pipeline
    spans = Spans(run_id)
    with traced(spans), spans.span("pipeline"):
        result = run_pipeline(config)
    with spans.span("probe"), spans.span("coverings.lebesgue"):
        for cov in result.charseq.levels:
            Family(result.space, cov.pooled.members).lebesgue()
    bundle = Path(config.outdir)
    return {**outcome(result), "digests": bundle_digests(bundle),
            "counts": layer_counts(result, bundle), "spans": spans.records}


def run_traced_verify(bundle: Path, run_id: str) -> dict:
    """`conetrees verify --bundle` under the tracer (root span `verify`)."""
    spans = Spans(run_id)
    with traced(spans), spans.span("verify"):
        report = verify_bundle(bundle)
    return {**report, "spans": spans.records}


def main(argv: list[str]) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    run_id = f"{name}-{seed}-{workdir.name}"
    bundle = workdir / ("traced" if mode == "tpipeline" else "bundle")
    config = pipeline_config(name, seed, bundle)
    if mode != "tverify":
        set_up(config)
    print(f"ready {time.monotonic()!r}", flush=True)
    report: dict = {}
    try:
        if mode == "setup":
            report = {"probe_s": [speed_probe()]}
        elif mode == "op":
            report = run_op(config)
        elif mode == "pipeline":
            report = run_op(config, verify=False)
        elif mode == "tpipeline":
            report = run_traced_pipeline(config, run_id)
        elif mode == "tverify":
            report = run_traced_verify(workdir / "traced", run_id)
    except Exception:  # the caller counts it as a failed operation
        report = {"error": traceback.format_exc()}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
