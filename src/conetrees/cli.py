"""Command line interface: generate spaces, profile capacities, run the
pipeline, and re-verify written bundles.

`verify` checks the stored config against the stored ladder and space
(r, depth and colors must match; the config's generator must reproduce
`space.json`), re-measures the ladder, then runs `harness.certify`, the
pipeline's own stage code, on it with the stored config.  It compares the
replay with every certified file: each `tree_<a>.csv` and `embedding.csv`
byte for byte, each top-level section of `qireport.json` for equality, and
the last lines of `log.txt` with the replayed stage lines.

Output locations default to the CONETREES_OUT environment variable when a
flag is omitted.  Exit status is 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io as bundle_io
from .char_seq import verify_char_seq
from .harness import (
    GENERATORS,
    PipelineConfig,
    StageError,
    capacity_profile,
    certify,
    generate,
    generator_params,
    run_pipeline,
)

# Not called here: bench/child.py's tracer wraps these names of this module.
from .harness import sphere_ratio_check  # noqa: F401
from .hyp_cone import build_grid  # noqa: F401
from .qi_verify import fit_qi  # noqa: F401
from .tree_embed import build_tree, embed_grid, radial_check  # noqa: F401


def _default_out(flag_value: str | None, fallback_name: str) -> Path:
    if flag_value:
        return Path(flag_value)
    root = os.environ.get("CONETREES_OUT")
    if not root:
        raise SystemExit(
            "no output path given and CONETREES_OUT is not set"
        )
    return Path(root) / fallback_name


def _gen_params(args) -> dict:
    params = json.loads(args.params) if args.params else {}
    if args.n is not None:
        params["n"] = args.n
    if getattr(args, "seed", None) is not None and args.kind == "random_circle":
        params.setdefault("seed", args.seed)
    return params


def _cmd_generate(args) -> int:
    space = generate(args.kind, **_gen_params(args))
    out = _default_out(args.out, "space.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    bundle_io.write_space(out, space)
    print(f"wrote {space.n} points to {out}")
    return 0


def _cmd_profile(args) -> int:
    if args.space:
        space = bundle_io.read_space(args.space)
    else:
        space = generate(args.kind, **_gen_params(args))
    if args.scales:
        scales = [float(s) for s in args.scales.split(",")]
    else:
        scales = [args.r ** j for j in range(1, args.depth + 1)]
    colors = [int(c) for c in args.colors.split(",")]
    profile = capacity_profile(space, scales, colors, delta_gate=args.delta_gate)
    out = _default_out(args.out, "profile.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    bundle_io.write_profile(out, profile)
    informative = sum(r["informative"] for r in profile["records"])
    print(f"wrote {len(profile['records'])} records "
          f"({informative} informative) to {out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = {}
    if args.config:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    overrides = {
        "generator": args.generator,
        "r": args.r,
        "depth": args.depth,
        "colors": args.colors,
        "delta_target": args.delta_target,
        "seed": args.seed,
        "outdir": args.outdir,
        "enforce_assumptions": args.enforce_assumptions,
        "tree_delta_check": args.tree_delta_check,
    }
    for k, v in overrides.items():
        if v is not None:
            cfg[k] = v
    if args.params or args.n is not None:
        params = dict(cfg.get("params", {}))
        if args.params:
            params.update(json.loads(args.params))
        if args.n is not None:
            params["n"] = args.n
        cfg["params"] = params
    if "generator" not in cfg:
        print("pipeline needs a generator (flag or config)", file=sys.stderr)
        return 1
    if not cfg.get("outdir") and os.environ.get("CONETREES_OUT"):
        cfg["outdir"] = str(Path(os.environ["CONETREES_OUT"]) / "bundle")
    config = PipelineConfig.from_dict(cfg)
    try:
        result = run_pipeline(config)
    except StageError as e:
        print(f"pipeline failed: {e}", file=sys.stderr)
        return 1
    for line in result.log:
        print(line)
    if config.outdir:
        print(f"bundle written to {config.outdir}")
    print(f"done in {result.runtime:.2f}s")
    return 0


def _regenerates(config: PipelineConfig, stored) -> tuple[bool, str]:
    """Whether the config's generator and params reproduce the stored space."""
    try:
        space = generate(config.generator, **generator_params(config))
    except (TypeError, ValueError) as e:
        return False, f"config.json generates no space: {e}"
    same = (np.array_equal(space.dist, stored.dist)
            and bundle_io.space_fields(space) == bundle_io.space_fields(stored))
    return same, "regenerated from config.json"


def _cmd_verify(args) -> int:
    bundle = bundle_io.read_bundle(args.bundle)
    config = PipelineConfig.from_dict(bundle["config"])
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        tag = "[PASS]" if ok else "[FAIL]"
        print(f"{tag} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    seq = bundle["charseq"]
    check("config", (config.r, config.depth, config.colors)
          == (seq.r, seq.depth, seq.n_colors),
          f"r={config.r} depth={config.depth} colors={config.colors}, "
          f"ladder r={seq.r} depth={seq.depth} colors={seq.n_colors}")
    check("space", *_regenerates(config, seq.space))
    rep = verify_char_seq(seq)
    check("charseq", rep.passed,
          "" if rep.passed else rep.summary().replace("\n", " | "))
    log: list[str] = []
    try:
        got = certify(seq, config.tree_delta_check, log)
    except StageError as e:
        check(e.stage, False, str(e))
    else:
        stale = [f"tree_{a}.csv" for a, (text, tree)
                 in enumerate(zip(bundle["trees"], got["trees"]))
                 if text != bundle_io.render_tree(tree).encode("utf-8")]
        check("trees", not stale, f"{len(got['trees'])} trees rebuilt"
                                  + "".join(f", {n} differs" for n in stale))
        rendered = bundle_io.render_embedding(got["embedding"])
        check("embedding", bundle["embedding"] == rendered.encode("utf-8"),
              f"{got['grid'].n_points} points")
        report = json.loads(bundle_io.render_qireport(
            got["qi"], got["radial"], got["sphere"], got["tree_deltas"]))
        stored = bundle["qireport"]
        for key in sorted(report.keys() | stored.keys()):
            check(key, report.get(key) == stored.get(key), "qireport.json")
        check("log", bundle["log"][-len(log):] == log,
              f"log.txt ends with the {len(log)} replayed stage lines")
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("bundle verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conetrees",
        description="coverings over finite metric spaces, trees, and "
                    "cone-to-tree-product embeddings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an example space")
    g.add_argument("--kind", required=True, choices=GENERATORS)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--params", help="extra generator params as JSON")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("profile", help="capacity profile across scales")
    f.add_argument("--kind", choices=GENERATORS)
    f.add_argument("--space", help="read a space file instead of generating")
    f.add_argument("--n", type=int)
    f.add_argument("--seed", type=int)
    f.add_argument("--params", help="extra generator params as JSON")
    f.add_argument("--scales", help="comma-separated scales")
    f.add_argument("--r", type=float, default=0.125)
    f.add_argument("--depth", type=int, default=4)
    f.add_argument("--colors", default="2")
    f.add_argument("--delta-gate", type=float, default=0.1)
    f.add_argument("--out")
    f.set_defaults(func=_cmd_profile)

    r = sub.add_parser("pipeline", help="run the full pipeline")
    r.add_argument("--config", help="JSON config file")
    r.add_argument("--generator", choices=GENERATORS)
    r.add_argument("--n", type=int)
    r.add_argument("--params", help="extra generator params as JSON")
    r.add_argument("--r", type=float)
    r.add_argument("--depth", type=int)
    r.add_argument("--colors", type=int)
    r.add_argument("--delta-target", type=float)
    r.add_argument("--seed", type=int)
    r.add_argument("--outdir")
    r.add_argument("--enforce-assumptions", action=argparse.BooleanOptionalAction,
                   default=None)
    r.add_argument("--tree-delta-check", action=argparse.BooleanOptionalAction,
                   default=None)
    r.set_defaults(func=_cmd_pipeline)

    v = sub.add_parser("verify", help="re-verify a written bundle")
    v.add_argument("--bundle", required=True)
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
