"""Readers and writers for spaces and bundles, and the profile writer.

Everything is written canonically: JSON with sorted keys and a fixed indent,
CSV with fixed columns, no timestamps or absolute paths, so rerunning the
same deterministic pipeline reproduces every file byte for byte.  The JSON
text is `json.dumps(value, sort_keys=True, indent=2) + "\n"`, written by
the stdlib, with two array values written by hand: a space's distance
matrix and a ladder's member lists.  With an indent the stdlib takes its
pure-Python encoder, which is slow on big lists of numbers, so `_list`
writes a list of item texts made once each: the matrix's distinct floats,
and each member's points, read off its Family's CSR arrays.  `_spliced`
puts such a text into the stdlib's text of the rest of its object.  The
tests and CI hold both to the stdlib's bytes.  A tree's CSV reads its
members' points off the same arrays.
`bundle_files` is the one description of a bundle, as bytes: `write_bundle`
writes them, and `conetrees verify` compares a replay's with the stored ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .metric_core import FiniteMetricSpace


def _dumps(value) -> str:
    """A plain JSON value as canonical text."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _list(items: list[str], depth: int) -> str:
    """The JSON list of the item texts ``items`` as `json.dumps(...,
    indent=2)` writes a list ``depth`` levels into its value: one item a
    line, or "[]" when there is none."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _spliced(value: dict, key: str, text: str) -> str:
    """`_dumps` of the object ``value`` with the JSON text ``text`` as the
    value of its key ``key``: the stdlib writes null under the key, and the
    key's line, the one line two spaces in that starts with it, takes the
    text in place of the null."""
    head, line, tail = _dumps({**value, key: None}).partition(
        f"\n  {json.dumps(key)}: null")
    return head + line[:-len("null")] + text + tail


def _matrix(d: np.ndarray) -> str:
    """The 2-D float array d as `json.dumps(d.tolist(), indent=2)` writes it
    one level into an object, each distinct value turned into text once.
    np.unique merges 0.0 and -0.0, and float.__repr__ writes NaN and inf as
    JSON does not, so an array that holds -0.0, NaN or inf is written by
    the stdlib."""
    if not np.isfinite(d).all() or np.signbit(d[d == 0]).any():
        return json.dumps(d.tolist(), indent=2).replace("\n", "\n  ")
    distinct, index = np.unique(d, return_inverse=True)
    texts = list(map(float.__repr__, distinct.tolist()))
    return _list([_list(list(map(texts.__getitem__, row)), 2)
                  for row in index.reshape(d.shape).tolist()], 1)


def _member_texts(family) -> list[list[str]]:
    """Each member of a Family as its points' texts: one `tolist` of its
    indices, turned into text in one pass and sliced at its `indptr`."""
    texts = list(map(str, family.indices.tolist()))
    ptr = family.indptr.tolist()
    return [texts[a:b] for a, b in zip(ptr, ptr[1:])]


def _levels_text(seq) -> str:
    """A ladder's member lists, level by color by member, as
    `json.dumps(..., indent=2)` writes them one level into an object."""
    return _list([_list([_list([_list(u, 4) for u in _member_texts(fam)], 3)
                         for fam in cov.colors], 2)
                  for cov in seq.levels], 1)


def _space_text(space: FiniteMetricSpace) -> str:
    """A space's JSON text: its matrix by `_matrix`, spliced under "dist"."""
    return _spliced({"meta": space.meta, "point_ids": space.point_ids,
                     "rel_tol": space.rel_tol}, "dist", _matrix(space.dist))


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def write_space(path, space: FiniteMetricSpace) -> None:
    _write_text(path, _space_text(space))


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


def render_tree(tree) -> str:
    """A tree's CSV.  A node's ladder reference (ref_level, ref_member) is
    its level and its index among that level's nodes, (0, -1) at the root."""
    member = np.arange(tree.n_nodes) - np.searchsorted(tree.level, tree.level)
    member[0] = -1
    lines = ["node,level,parent,ref_level,ref_member,points"]
    for u, (lv, parent, rm, points) in enumerate(zip(
            tree.level.tolist(), tree.parent.tolist(), member.tolist(),
            _member_texts(tree.members))):
        lines.append(f"{u},{lv},{parent},{lv},{rm},{';'.join(points)}")
    return "\n".join(lines) + "\n"


def render_embedding(embedding) -> str:
    grid = embedding.grid
    ids = grid.space.point_ids
    header = "level,point_id,t," + ",".join(
        f"v{a}" for a in range(embedding.n_trees))
    # a grid point's radius t = j * R, per level
    ts = [repr(j * grid.R) for j in range(grid.depth + 1)]
    lines = [header]
    for j, z, nodes in zip(grid.point_level.tolist(), grid.point_z.tolist(),
                           embedding.table.tolist()):
        pid = ids[z] if j > 0 else "-"
        lines.append(f"{j},{pid},{ts[j]}," + ",".join(map(str, nodes)))
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
        "space.json": _space_text(result.space),
        "charseq.json": _spliced({
            "r": seq.r,
            "depth": seq.depth,
            "colors": seq.n_colors,
            "delta": m["delta"],
            "lam": m["lam"],
            "gamma": m["gamma"],
            "provenance": {**seq.provenance, **{
                k: m[k] for k in ("levels", "gamma_records") if k in m}},
        }, "levels", _levels_text(seq)),
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
