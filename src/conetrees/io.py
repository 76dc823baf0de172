"""Readers and writers for spaces, profiles, and bundles.

Everything is written canonically: JSON with sorted keys and a fixed indent,
CSV with fixed columns, no timestamps or absolute paths, so rerunning the
same deterministic pipeline reproduces every file byte for byte.  The JSON
text is exactly `json.dumps(value, sort_keys=True, indent=2) + "\n"`, but
written by `_dumps`, not the stdlib: with an indent the stdlib takes its
pure-Python encoder, which turns every float into text anew, while a bundle
is mostly a symmetric distance matrix, whose distinct values `_dumps` turns
into text once each.  The tests and CI hold `_dumps` to the stdlib's bytes.
`bundle_files` is the one description of a bundle, as bytes: `write_bundle`
writes them, and `conetrees verify` compares a replay's with the stored ones.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .metric_core import FiniteMetricSpace


def _float(x: float) -> str:
    """A float as the stdlib writes it: repr, NaN, Infinity or -Infinity."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _matrix(value: np.ndarray, newline: str) -> str:
    """A 2-D float array as its list of rows, each distinct value turned
    into text once.  np.unique merges 0.0 and -0.0, whose texts differ, so
    an array holding -0.0, like any other array, is rendered as its list."""
    if (value.dtype != np.float64 or value.ndim != 2 or not value.size
            or np.signbit(value[value == 0]).any()):
        return _render(value.tolist(), newline)
    distinct, index = np.unique(value, return_inverse=True)
    texts = list(map(_float, distinct.tolist()))
    inner, cell = newline + "  ", newline + "    "
    rows = ["[" + cell + ("," + cell).join(map(texts.__getitem__, row))
            + inner + "]" for row in index.reshape(value.shape).tolist()]
    return "[" + inner + ("," + inner).join(rows) + newline + "]"


def _render(value, newline: str) -> str:
    if isinstance(value, float):
        return _float(value)
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
    if isinstance(value, np.ndarray):
        return _matrix(value, newline)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be str")
        items = [encode_basestring_ascii(k) + ": " + _render(value[k], inner)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    f"serializable")


def _dumps(value) -> str:
    """A plain JSON value (dict with str keys, list, tuple, str, int, float,
    bool, None, or a numpy array, read as its list) as canonical text: the
    bytes of `json.dumps(value, sort_keys=True, indent=2) + "\n"` for the
    value with its arrays as lists.  Anything else raises TypeError."""
    return _render(value, "\n") + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _space_json(space: FiniteMetricSpace) -> dict:
    return {
        "point_ids": space.point_ids,
        "meta": space.meta,
        "rel_tol": space.rel_tol,
        "dist": space.dist,
    }


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
    ids, meta = d["point_ids"], d.get("meta", {})
    if not (isinstance(ids, list) and all(isinstance(p, str) for p in ids)):
        raise ValueError(f"space file {path} point_ids must be a list of "
                         "strings")
    if not isinstance(meta, dict):
        raise ValueError(f"space file {path} meta must be a JSON object, "
                         f"got {type(meta).__name__}")
    dist, rel_tol = d["dist"], d.get("rel_tol", 1e-9)
    # exact types, since bool is an int subclass
    if not (isinstance(dist, list) and all(
            isinstance(row, list) and set(map(type, row)) <= {int, float}
            for row in dist)):
        raise ValueError(f"space file {path} dist must be a list of lists of "
                         "numbers")
    if type(rel_tol) not in (int, float):
        raise ValueError(f"space file {path} rel_tol must be a number, got "
                         f"{type(rel_tol).__name__}")
    return FiniteMetricSpace(
        dist=np.asarray(dist, dtype=float),
        point_ids=tuple(ids),
        meta=meta,
        rel_tol=float(rel_tol),
    )


def write_profile(path, profile: dict) -> None:
    _write_text(path, _dumps(profile))


def read_profile(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def render_tree(tree) -> str:
    lines = ["node,level,parent,ref_level,ref_member,points"]
    for u, (level, parent, members, (rl, rm)) in enumerate(zip(
            tree.level.tolist(), tree.parent.tolist(), tree.members,
            tree.refs)):
        pts = ";".join(map(str, sorted(members)))
        lines.append(f"{u},{level},{parent},{rl},{rm},{pts}")
    return "\n".join(lines) + "\n"


def render_embedding(embedding) -> str:
    grid = embedding.grid
    ids = grid.space.point_ids
    header = "level,point_id,t," + ",".join(
        f"v{a}" for a in range(embedding.n_trees))
    lines = [header]
    for j, z, point, nodes in zip(grid.point_level.tolist(),
                                  grid.point_z.tolist(), grid.points,
                                  embedding.table.tolist()):
        pid = ids[z] if j > 0 else "-"
        lines.append(f"{j},{pid},{point.t!r}," + ",".join(map(str, nodes)))
    return "\n".join(lines) + "\n"


def bundle_files(result) -> dict[str, bytes]:
    """Every file of a pipeline result's bundle, {file name: bytes}: each
    `tree_<a>.csv`, `embedding.csv` and `log.txt` as rendered, and each JSON
    file as canonical text."""
    seq = result.charseq
    m = seq.measurement
    qi = result.qi
    texts = {
        "config.json": _dumps(result.config.echo()),
        "space.json": _dumps(_space_json(result.space)),
        "charseq.json": _dumps({
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
        "qireport.json": _dumps({
            "qi": {"lam": qi.lam, "sigma": qi.sigma, "n_pairs": qi.n_pairs,
                   "violations": qi.violations, "details": qi.details},
            "radial": result.radial,
            "sphere": result.sphere,
            "tree_deltas": result.tree_deltas,
        }),
        "log.txt": "\n".join(result.log) + "\n",
    }
    for a, tree in enumerate(result.trees):
        texts[f"tree_{a}.csv"] = render_tree(tree)
    return {name: text.encode("utf-8") for name, text in texts.items()}


def write_bundle(outdir, result) -> Path:
    """Write a full pipeline bundle into outdir, creating it if needed."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in bundle_files(result).items():
        (out / name).write_bytes(content)
    return out


def read_bundle(outdir) -> dict:
    """The bytes of every file in a bundle directory, by file name."""
    return {p.name: p.read_bytes() for p in Path(outdir).iterdir()
            if p.is_file()}
