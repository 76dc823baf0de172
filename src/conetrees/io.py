"""Readers and writers for spaces, ladders, trees, embeddings, and bundles.

Everything is written canonically: JSON with sorted keys and a fixed indent,
CSV with fixed columns, no timestamps or absolute paths, so rerunning the
same deterministic pipeline reproduces every file byte for byte.  The
`render_*` functions produce the text of the certified files, for
`write_bundle` and for `conetrees verify` to compare against.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .char_seq import CharSequence
from .coverings import ColoredCovering, Family
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


def dumps_canonical(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def space_fields(space: FiniteMetricSpace) -> dict:
    """What space.json holds besides the distance matrix, as plain JSON
    values."""
    return _plain({
        "point_ids": space.point_ids,
        "meta": space.meta,
        "rel_tol": space.rel_tol,
    })


def write_space(path, space: FiniteMetricSpace) -> None:
    _write_text(path, dumps_canonical({**space_fields(space), "dist": space.dist}))


def read_space(path) -> FiniteMetricSpace:
    d = json.loads(Path(path).read_text(encoding="utf-8"))
    return FiniteMetricSpace(
        dist=np.asarray(d["dist"], dtype=float),
        point_ids=tuple(d["point_ids"]),
        meta=d.get("meta", {}),
        rel_tol=float(d.get("rel_tol", 1e-9)),
    )


def _levels_payload(seq) -> list:
    levels = []
    for j in range(1, seq.depth + 1):
        cov = seq.level(j)
        levels.append([
            [sorted(u.indices) for u in fam.members] for fam in cov.colors
        ])
    return levels


def write_charseq(path, seq: CharSequence) -> None:
    m = seq.measurement
    _write_text(path, dumps_canonical({
        "r": seq.r,
        "depth": seq.depth,
        "colors": seq.n_colors,
        "delta": m["delta"],
        "lam": m["lam"],
        "gamma": m["gamma"],
        "levels": _levels_payload(seq),
        "provenance": {**seq.provenance, **{
            k: m[k] for k in ("levels", "gamma_records") if k in m}},
    }))


def stored_measurement(d: dict) -> dict:
    """charseq.json's measured entries, keyed like `CharSequence.measurement`."""
    return {**{k: d[k] for k in ("delta", "lam", "gamma")},
            **{k: d["provenance"].get(k) for k in ("levels", "gamma_records")}}


def _charseq(d: dict, space: FiniteMetricSpace) -> CharSequence:
    """The ladder of a parsed charseq.json, which must hold exactly the keys
    `write_charseq` writes and whose levels must agree with its `depth` and
    `colors`.  Colors of a level with equal member lists share one
    `Family`, as built levels do."""
    keys = {"r", "depth", "colors", "delta", "lam", "gamma", "levels",
            "provenance"}
    if set(d) != keys:
        raise ValueError(f"charseq.json has unknown keys {sorted(set(d) - keys)}"
                         f" and lacks keys {sorted(keys - set(d))}")
    if (len(d["levels"]) != d["depth"]
            or any(len(per_color) != d["colors"] for per_color in d["levels"])):
        raise ValueError(f"charseq.json's depth={d['depth']} and "
                         f"colors={d['colors']} disagree with its levels")
    levels = []
    for per_color in d["levels"]:
        fams = {}
        for members in per_color:
            if str(members) not in fams:
                fams[str(members)] = Family(space, tuple(map(space.subset, members)))
        levels.append(ColoredCovering(space, tuple(fams[str(m)]
                                                   for m in per_color)))
    prov = {k: v for k, v in d["provenance"].items()
            if k not in ("levels", "gamma_records")}
    if "cascade" not in prov:
        raise ValueError("charseq.json holds no separated ladder: its "
                         "provenance has no cascade")
    return CharSequence(space, float(d["r"]), tuple(levels), prov)


def read_charseq(path, space: FiniteMetricSpace) -> CharSequence:
    """The separated ladder at path: its levels and build records only."""
    return _charseq(json.loads(Path(path).read_text(encoding="utf-8")), space)


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


def render_qireport(qi, radial: dict, sphere: dict, tree_deltas) -> str:
    return dumps_canonical({
        "qi": {
            "lam": qi.lam,
            "sigma": qi.sigma,
            "n_pairs": qi.n_pairs,
            "violations": qi.violations,
            "details": qi.details,
        },
        "radial": radial,
        "sphere": sphere,
        "tree_deltas": tree_deltas,
    })


def write_qireport(path, result) -> None:
    _write_text(path, render_qireport(result.qi, result.radial, result.sphere,
                                      result.tree_deltas))


def read_qireport(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_profile(path, profile: dict) -> None:
    _write_text(path, dumps_canonical(profile))


def read_profile(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_config(path, config) -> None:
    _write_text(path, dumps_canonical(config.echo()))


def write_bundle(outdir, result) -> Path:
    """Write a full pipeline bundle into outdir, creating it if needed."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_config(out / "config.json", result.config)
    write_space(out / "space.json", result.space)
    write_charseq(out / "charseq.json", result.charseq)
    for a, tree in enumerate(result.trees):
        _write_text(out / f"tree_{a}.csv", render_tree(tree))
    _write_text(out / "embedding.csv", render_embedding(result.embedding))
    write_qireport(out / "qireport.json", result)
    _write_text(out / "log.txt", "\n".join(result.log) + "\n")
    return out


def read_bundle(outdir) -> dict:
    """Load the parts of a bundle needed to re-verify it: config, ladder,
    its stored measurement and report parsed, the tree and embedding files
    as raw bytes, the log as lines."""
    out = Path(outdir)
    stored = json.loads((out / "charseq.json").read_text(encoding="utf-8"))
    charseq = _charseq(stored, read_space(out / "space.json"))
    return {
        "config": json.loads((out / "config.json").read_text(encoding="utf-8")),
        "charseq": charseq,
        "measured": stored_measurement(stored),
        "trees": tuple((out / f"tree_{a}.csv").read_bytes()
                       for a in range(charseq.n_colors)),
        "embedding": (out / "embedding.csv").read_bytes(),
        "qireport": read_qireport(out / "qireport.json"),
        "log": (out / "log.txt").read_text(encoding="utf-8").splitlines(),
    }
