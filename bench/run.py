"""The conetrees benchmark: one workload, a closed loop of one client.

    python3 bench/run.py --workload flagship --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
Each operation runs in a fresh child interpreter (child.py): set-up
(import plus generate), an untraced `run_pipeline` writing a bundle, then
`conetrees verify --bundle` on it.  Operations repeat until --seconds have
passed, at least once.  With --trace 0 the set-up is also repeated alone
SETUP_REPEATS times, and the end-to-end metrics are medians over the
samples.  An operation takes a few seconds, so a run holds several.

The end-to-end times are rescaled to a fixed host speed.  A shared host's
speed drifts by up to a factor of two over minutes, longer than a run, so
raw medians of runs of the same code spread past any useful bound.  The
child times a fixed reference task (child.speed_probe) just before and
after each measured call, and a time t with probes p and p' is reported
as t * REFERENCE_S / mean(p, p'): the seconds the call would take at the
speed where the probe takes REFERENCE_S.  Set-up is rescaled by the probe
its child runs right after set-up.  The raw wall-clock medians and the
median probe are printed on the line before the result.

With --trace 1 an operation is three children instead: an
untraced pipeline, a traced pipeline with a Lebesgue probe, and a traced
verify of the traced bundle; the per-layer metrics, in raw wall-clock
seconds, are reported and the spans are written to bench/_work/traces/.

An operation fails if a child raises, if verify exits nonzero, if a
certificate reports a violation, if a digested bundle file differs from
digests.json, or if the traced bundle differs from the untraced one.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Earlier lines record the environment and the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from child import TRACED_CALLS, TRACED_LAZY, gate, same_files
from workloads import PREDICTIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
BUDGET_S = 170.0  # a run must end within 180 s
# about child.speed_probe's time on an idle core of a 2-vCPU x86-64 KVM guest
REFERENCE_S = 0.020
# The program calls no BLAS routine; one thread keeps idle BLAS workers
# from competing with the measured process for the host's few cores.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def environment(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: str(threads) for var in THREAD_VARS},
    }


def rescale(seconds: float, *probes: float) -> float:
    """A time taken between speed probes, at the speed of REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(probes)


def run_child(mode: str, workload: str, seed: int, env: dict,
              deadline: float, workdir: Path) -> tuple[float | None, dict]:
    """Run one child in workdir; return (set-up seconds, its report).

    Set-up is timed from just before the spawn to the child's `ready`
    stamp; both read CLOCK_MONOTONIC, which Linux shares across processes.
    The seconds are wall-clock; `setup_sample` rescales them.
    """
    with open(workdir / f"{mode}.stderr", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, workload,
             str(seed), str(workdir)],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, {"error": f"{mode} child timed out"}
    lines = out.splitlines()
    setup_s = None
    if lines and lines[0].startswith("ready "):
        setup_s = float(lines[0].split()[1]) - t0
    if proc.returncode != 0 or len(lines) < 2:
        tail = (workdir / f"{mode}.stderr").read_text()[-2000:]
        return setup_s, {"error": f"{mode} child exited "
                                  f"{proc.returncode}\n{tail}"}
    return setup_s, json.loads(lines[-1])


def setup_sample(wall_s: float | None, report: dict) -> tuple | None:
    """(rescaled, wall-clock) set-up seconds of a child whose first probe
    ran right after its set-up; None if it never got that far."""
    if wall_s is None or "probe_s" not in report:
        return None
    return rescale(wall_s, report["probe_s"][0]), wall_s


def operation(trace: bool, workload: str, seed: int, env: dict,
              deadline: float, expected: dict) -> tuple[list, dict, list]:
    """One operation in a fresh work directory.

    Returns (set-up samples of its children, its report, reasons it failed).
    """
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if not trace:
            s, report = run_child("op", workload, seed, env, deadline, workdir)
            return [setup_sample(s, report)], report, gate(report, expected)
        children = {}
        for mode in ("pipeline", "tpipeline", "tverify"):
            children[mode] = run_child(mode, workload, seed, env, deadline,
                                       workdir)[1]
            if "error" in children[mode]:
                break
        reasons = [r for c in children.values() for r in gate(c, expected)]
        if reasons:
            return [], {"error": "; ".join(reasons)}, reasons
        if not same_files(workdir / "bundle", workdir / "traced"):
            reasons.append("traced bundle differs from the untraced one")
        return [], traced_report(*children.values()), reasons
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_report(untraced: dict, tpipe: dict, tverify: dict) -> dict:
    """One traced operation's report from its three children's."""
    return {"pipeline_s": untraced["pipeline_s"],
            "spans": tpipe["spans"] + tverify["spans"],
            "counts": tpipe["counts"]}


def span_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced operation.

    A layer's time is the self time of its spans under the root `pipeline`.
    The pair extraction is not a call, so it is the time between the
    sphere-ratio and fit_qi spans less the spans inside that gap.
    """
    spans = report["spans"]
    roots = {s["name"]: s for s in spans if s["parent"] is None}
    # a layer the workload never calls, such as tree_delta on long_ray, reads 0
    out = {f"{name}_s": 0.0 for calls in TRACED_CALLS.values()
           for name in calls.values()}
    out.update((f"{lazy[-1]}_s", 0.0) for lazy in TRACED_LAZY)
    for s in spans:
        if s["root"] == "pipeline" and s["parent"] is not None:
            out[f"{s['name']}_s"] += s["self_s"]
    pipe = [s for s in spans if s["parent"] == "pipeline"]
    gap_start = next(s["end"] for s in pipe
                     if s["name"] == "harness.sphere_ratio")
    gap_end = next(s["start"] for s in pipe if s["name"] == "qi_verify.fit_qi")
    out["harness.pair_extract_s"] = gap_end - gap_start - sum(
        s["end"] - s["start"] for s in pipe
        if gap_start <= s["start"] and s["end"] <= gap_end)
    out["harness.other_s"] = (roots["pipeline"]["self_s"]
                              - out["harness.pair_extract_s"])
    # traced minus untraced run of the same pipeline, in two processes:
    # mostly the noise between two runs, not the cost of the spans
    out["harness.trace_overhead_s"] = (roots["pipeline"]["end"]
                                       - roots["pipeline"]["start"]
                                       - report["pipeline_s"])
    under_verify = {s["name"]: s for s in spans if s["root"] == "verify"}
    out["verify.verify_char_seq_s"] = \
        under_verify["char_seq.verify_char_seq"]["self_s"]
    out["io.read_bundle_s"] = under_verify["io.read_bundle"]["self_s"]
    out["coverings.lebesgue_s"] = next(
        s["self_s"] for s in spans if s["name"] == "coverings.lebesgue")
    out["harness.pipeline_rss_mb"] = roots["pipeline"]["maxrss_mb"]
    out["verify.rss_mb"] = roots["verify"]["maxrss_mb"]
    out.update(report["counts"])
    return out


def op_metrics(report: dict) -> dict:
    """End-to-end metrics of one operation, times rescaled (see rescale)."""
    before, between, after = report["probe_s"]
    pipeline_s = rescale(report["pipeline_s"], before, between)
    return {
        "pipeline_s": pipeline_s,
        "verify_s": rescale(report["verify_s"], between, after),
        "pairs_per_s": report["pairs"] / pipeline_s,
        "peak_rss_mb": report["maxrss_mb"],
    }


def wall_clock(report: dict) -> dict:
    """The raw times of one operation, printed beside the result."""
    return {"pipeline_s": report["pipeline_s"],
            "verify_s": report["verify_s"],
            "probe_s": statistics.median(report["probe_s"])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "conetrees" / "__init__.py").is_file():
        print(f"bench: {SRC / 'conetrees'} is missing; run from the root of "
              "a conetrees checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    expected = json.loads((HERE / "digests.json").read_text())[args.workload]

    start = time.monotonic()
    deadline = start + BUDGET_S
    threads = THREADS
    env = child_env(threads)
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(threads)}))
    print(json.dumps({"workload": args.workload, "why": wl["why"],
                      "config": wl["config"], "seed": args.seed,
                      "predictions": {k: v for k, v in PREDICTIONS.items()
                                      if args.workload in v[1]}}))

    setups: list[tuple | None] = []  # (rescaled, wall-clock)
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
            try:
                setups.append(setup_sample(*run_child(
                    "setup", args.workload, args.seed, env, deadline, workdir)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    samples: list[dict] = []
    walls: list[dict] = []
    traces = []
    attempted = failed = 0
    measure_start = time.monotonic()
    while True:
        t = time.monotonic()
        op_setups, report, reasons = operation(
            bool(args.trace), args.workload, args.seed, env, deadline, expected)
        attempted += 1
        if reasons:
            failed += 1
            print(f"bench: operation {attempted} failed: {'; '.join(reasons)}",
                  file=sys.stderr)
            if "digests" in report:
                print(json.dumps({"digests": report["digests"]}),
                      file=sys.stderr)
        setups.extend(op_setups)
        if "error" not in report:
            if args.trace:
                traces.append(report["spans"])
                samples.append(span_metrics(report))
            else:
                samples.append(op_metrics(report))
                walls.append(wall_clock(report))
        now = time.monotonic()
        if now - measure_start >= args.seconds or now + (now - t) > deadline:
            break
    if traces:
        out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(traces))
    setups = [s for s in setups if s is not None]
    if not samples or (not args.trace and not setups):
        print("bench: no operation completed", file=sys.stderr)
        return 1
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    if not args.trace:
        values["setup_s"] = statistics.median(s[0] for s in setups)
        wall = {k: statistics.median(w[k] for w in walls) for k in walls[0]}
        wall["setup_s"] = statistics.median(s[1] for s in setups)
        print(json.dumps({"wall_clock_medians": wall,
                          "reference_s": REFERENCE_S}))
    print(json.dumps({"failed_ops": failed / attempted,
                      "setup_samples": len(setups),
                      "operations": len(samples)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
