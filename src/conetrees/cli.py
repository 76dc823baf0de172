"""Command line interface: generate spaces, profile capacities, run the
pipeline, and re-verify written bundles.

`verify` is a replay: it reads `config.json` strictly, reruns
`run_pipeline` on it without writing, and compares every file of the
replay's bundle (`io.bundle_files`) with the stored one byte for byte.  A
stage that fails on replay, or a file that differs, is missing or is extra,
fails the bundle.

Output locations default to the CONETREES_OUT environment variable when a
flag is omitted.  Exit status is 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import io as bundle_io
from .harness import (
    GENERATORS,
    PipelineConfig,
    StageError,
    capacity_profile,
    generate,
    generator_params,
    run_pipeline,
)

# Not called here: bench/child.py's tracer wraps these names of this module.
from .char_seq import verify_char_seq  # noqa: F401
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


def _object(value, what: str) -> dict:
    """A config or its generator params, which must be a JSON object;
    `PipelineConfig` and `generate` check their keys and value types."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def _params_flag(args) -> dict:
    return _object(json.loads(args.params) if args.params else {}, "--params")


def _gen_params(args) -> dict:
    params = _params_flag(args)
    if args.n is not None:
        params["n"] = args.n
    return generator_params(args.kind, params, args.seed)


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
    profile = capacity_profile(space, scales, colors)
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
        cfg = _object(json.loads(Path(args.config).read_text(encoding="utf-8")),
                      "config")
    # each flag's dest is the config field it sets; --params and --n merge
    # into params below
    settable = {f.name for f in fields(PipelineConfig)} - {"params"}
    cfg.update((k, v) for k, v in vars(args).items()
               if k in settable and v is not None)
    if args.params or args.n is not None:
        params = {**_object(cfg.get("params", {}), "config params"),
                  **_params_flag(args)}
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


def _cmd_verify(args) -> int:
    config = PipelineConfig.from_dict(json.loads(
        (Path(args.bundle) / "config.json").read_text(encoding="utf-8")))
    try:
        replayed = bundle_io.bundle_files(
            run_pipeline(replace(config, outdir=None)))
    except StageError as e:
        print(f"[FAIL] {e.stage}")
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    # read only now, so the stored bytes are not alive at the replay's peak
    stored = bundle_io.read_bundle(args.bundle)
    failures = []
    for name in sorted(replayed.keys() | stored.keys()):
        if name not in stored:
            ok, detail = False, ": missing from the bundle"
        elif name not in replayed:
            ok, detail = False, ": not written by the replay"
        else:
            ok, detail = stored[name] == replayed[name], ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{detail}")
        if not ok:
            failures.append(name)
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
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--params", help="extra generator params as JSON")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("profile", help="capacity profile across scales")
    f.add_argument("--kind", choices=GENERATORS)
    f.add_argument("--space", help="read a space file instead of generating")
    f.add_argument("--n", type=int)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--params", help="extra generator params as JSON")
    f.add_argument("--scales", help="comma-separated scales")
    f.add_argument("--r", type=float, default=0.125)
    f.add_argument("--depth", type=int, default=4)
    f.add_argument("--colors", default="2")
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
