"""Run the benchmark over several seeds and print every metric with its
median, quartiles and spread (quartile distance over median).

    python3 bench/report.py                          # every workload, both modes, seed 0
    python3 bench/report.py --workloads flagship --seeds 1-5 --trace 0
    python3 bench/report.py --seeds 1-20 --trace 0 --sets 2

Runs go one after another, never in parallel, so they do not disturb each
other's timings; each seed runs every workload before the next seed starts.
With --sets K the seeds are dealt round-robin into K interleaved sets, each
set is reported on its own, and each later set's median is compared with
the first set's against the metric's bound.  Each run's result line is
appended to --log when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread_rows(results: list[dict], metrics: list[dict]) -> list[str]:
    rows = []
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        share = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = "" if bound is None or share < bound / 3 else "  (>= bound/3)"
        rows.append(f"  {m['name']:32s} {med:14.6g} {m['unit']:8s} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={share:.3f}{flag}")
    return rows


def drift_rows(first: list[dict], later: list[dict],
               metrics: list[dict]) -> list[str]:
    """How much worse a later set's median is than the first set's."""
    rows = []
    for m in metrics:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in rs)
                for rs in (first, later))
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = "  (exceeds bound)" if worse > m["bound"] else ""
        rows.append(f"  {m['name']:32s} {a:14.6g} -> {b:<14.6g} "
                    f"worse by {worse:+.3f} (bound {m['bound']}){flag}")
    return rows


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=seeds_arg, default=[0],
                   help="one seed or an inclusive range such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), action="append",
                   help="mode to run; both when omitted")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--log", type=Path)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    for trace in args.trace or (0, 1):
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in args.seeds:
            for workload in workloads:
                res = one_run(workload, seed, trace)
                results[workload].append(res)
                if args.log:
                    with args.log.open("a") as f:
                        f.write(json.dumps({"workload": workload, "seed": seed,
                                            "trace": trace, **res}) + "\n")
        kind = "per_layer" if trace else "end_to_end"
        for workload in workloads:
            sets = [results[workload][k::args.sets] for k in range(args.sets)]
            for k, rs in enumerate(sets):
                seeds = args.seeds[k::args.sets]
                failed = sum(r["failed"] for r in rs)
                attempted = sum(r["attempted"] for r in rs)
                print(f"{workload} trace={trace} set={k} seeds={seeds} "
                      f"failed_ops={failed}/{attempted}")
                print("\n".join(spread_rows(rs, SPEC[kind])), flush=True)
                if k and not trace:
                    print(f"{workload} set {k} against set 0")
                    print("\n".join(drift_rows(sets[0], rs, SPEC[kind])),
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
