"""Readers and writers for spaces, profiles, and bundles.

Everything is written canonically: JSON with sorted keys and a fixed indent,
CSV with fixed columns, no timestamps or absolute paths, so rerunning the
same deterministic pipeline reproduces every file byte for byte.  The JSON
text is exactly `json.dumps(value, sort_keys=True, indent=2) + "\n"`, but
written by `_dumps`, not the stdlib: with an indent the stdlib takes its
pure-Python encoder, which turns every float into text anew, while a bundle
is mostly a distance matrix with few distinct values.  The tests and CI
hold `_dumps` to the stdlib's bytes.
`bundle_files` is the one description of a bundle: `write_bundle` writes
it, and `conetrees verify` compares a replay's against the stored files.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .metric_core import FiniteMetricSpace


def _plain(x):
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_plain(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


class _FloatTexts(dict):
    """float.__repr__ of each distinct finite nonzero float, computed on
    first use.  Zeros are not kept, since 0.0 == -0.0 but their texts differ;
    non-finite floats get the stdlib's NaN, Infinity and -Infinity."""

    def __missing__(self, x: float) -> str:
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


def _render(value, newline: str, floats: _FloatTexts) -> str:
    if isinstance(value, float):
        return floats[value]
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # floats inline: a distance matrix is almost all of a bundle's values
        items = [floats[v] if type(v) is float else _render(v, inner, floats)
                 for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be str")
        items = [encode_basestring_ascii(k) + ": "
                 + _render(value[k], inner, floats) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    f"serializable")


def _dumps(value) -> str:
    """A plain JSON value (dict with str keys, list, tuple, str, int, float,
    bool, None) as canonical text: exactly the bytes of
    `json.dumps(value, sort_keys=True, indent=2) + "\n"`, with one repr
    per distinct float (see the module docstring).  Anything else raises
    TypeError."""
    return _render(value, "\n", _FloatTexts()) + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _space_json(space: FiniteMetricSpace) -> dict:
    return _plain({
        "point_ids": space.point_ids,
        "meta": space.meta,
        "rel_tol": space.rel_tol,
        "dist": space.dist,
    })


def write_space(path, space: FiniteMetricSpace) -> None:
    _write_text(path, _dumps(_space_json(space)))


def read_space(path) -> FiniteMetricSpace:
    d = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(d, dict):
        raise ValueError(
            f"space file {path} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in ("dist", "point_ids") if key not in d]
    if missing:
        raise ValueError(f"space file {path} lacks {' and '.join(missing)}")
    return FiniteMetricSpace(
        dist=np.asarray(d["dist"], dtype=float),
        point_ids=tuple(d["point_ids"]),
        meta=d.get("meta", {}),
        rel_tol=float(d.get("rel_tol", 1e-9)),
    )


def write_profile(path, profile: dict) -> None:
    _write_text(path, _dumps(_plain(profile)))


def read_profile(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def render_tree(tree) -> str:
    lines = ["node,level,parent,ref_level,ref_member,points"]
    for u in range(tree.n_nodes):
        pts = ";".join(str(p) for p in sorted(tree.members[u]))
        rl, rm = tree.refs[u]
        lines.append(
            f"{u},{int(tree.level[u])},{int(tree.parent[u])},{rl},{rm},{pts}"
        )
    return "\n".join(lines) + "\n"


def render_embedding(embedding) -> str:
    grid = embedding.grid
    m = embedding.n_trees
    header = "level,point_id,t," + ",".join(f"v{a}" for a in range(m))
    lines = [header]
    for i in range(grid.n_points):
        j = int(grid.point_level[i])
        pid = grid.space.point_ids[int(grid.point_z[i])] if j > 0 else "-"
        t = grid.points[i].t
        cells = ",".join(str(int(embedding.table[i, a])) for a in range(m))
        lines.append(f"{j},{pid},{t!r},{cells}")
    return "\n".join(lines) + "\n"


def bundle_files(result) -> dict:
    """Every file of a pipeline result's bundle, {file name: content}: the
    text of each `tree_<a>.csv`, of `embedding.csv` and of `log.txt`, and
    the plain JSON value of each JSON file."""
    seq = result.charseq
    m = seq.measurement
    qi = result.qi
    files = {
        "config.json": _plain(result.config.echo()),
        "space.json": _space_json(result.space),
        "charseq.json": _plain({
            "r": seq.r,
            "depth": seq.depth,
            "colors": seq.n_colors,
            "delta": m["delta"],
            "lam": m["lam"],
            "gamma": m["gamma"],
            "levels": [[[sorted(u.indices) for u in fam.members]
                        for fam in cov.colors] for cov in seq.levels],
            "provenance": {**seq.provenance, **{
                k: m[k] for k in ("levels", "gamma_records") if k in m}},
        }),
        "embedding.csv": render_embedding(result.embedding),
        "qireport.json": _plain({
            "qi": {"lam": qi.lam, "sigma": qi.sigma, "n_pairs": qi.n_pairs,
                   "violations": qi.violations, "details": qi.details},
            "radial": result.radial,
            "sphere": result.sphere,
            "tree_deltas": result.tree_deltas,
        }),
        "log.txt": "\n".join(result.log) + "\n",
    }
    for a, tree in enumerate(result.trees):
        files[f"tree_{a}.csv"] = render_tree(tree)
    return files


def write_bundle(outdir, result) -> Path:
    """Write a full pipeline bundle into outdir, creating it if needed."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in bundle_files(result).items():
        _write_text(out / name,
                    content if isinstance(content, str) else _dumps(content))
    return out


def read_bundle(outdir) -> dict:
    """The bytes of every file in a bundle directory, by file name."""
    return {p.name: p.read_bytes() for p in Path(outdir).iterdir()
            if p.is_file()}
