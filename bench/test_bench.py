"""Checks of the benchmark itself, on a small bundle (circle n=64, depth 3):

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from conetrees import PipelineConfig  # noqa: E402

from child import (bundle_digests, gate, run_op, run_traced_pipeline,  # noqa: E402
                   run_traced_verify, same_files, verify_bundle)
from run import (REFERENCE_S, op_metrics, span_metrics,  # noqa: E402
                 traced_report)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Counted by hand.  At n=64 the arc gap 2*pi/64 exceeds (1/6)(1/8), so all
# three levels are singletons in both colors and every cascade stage is the
# identity.  Each tree is the root plus one singleton chain per point, so
# 1 + 3*64 = 193 nodes, equal to the N = 193 grid points.  A grid point
# (z, j) maps to the level-j singleton of z in both trees, so product
# distances are 2|j - j'| on one ray and 2(j + j') across rays: {2, ..., 12}
# even, 6 values.
SMALL_COUNTS = {
    "metric_core.points": 64,
    "char_seq.levels_built": 0,
    "char_seq.levels_singleton": 3,
    "char_seq.levels_whole": 0,
    "char_seq.members": 3 * 2 * 64,
    "char_seq.dropped_members": 0,
    "char_seq.identity_stages": 4,
    "char_seq.cascade_stages": 4,
    "coverings.depth_reads": 3 * 128 * 64 * 63,
    "hyp_cone.grid_points": 193,
    "hyp_cone.cone_matrix_bytes": 193 * 193 * 8,
    "tree_embed.tree_nodes": 2 * 193,
    "tree_embed.tree_pairs_bytes": 2 * 193 * 193 * 2,
    "tree_embed.radial_checks": 64 * (1 + 2 + 3),
    "qi_verify.tree_delta_ops": 2 * 193 ** 3,
    "qi_verify.pairs": 193 * 192 // 2,
    "qi_verify.dt_values": 6,
}


def small_config(outdir: Path) -> PipelineConfig:
    return PipelineConfig(generator="circle", params={"n": 64}, r=0.125,
                          depth=3, colors=2, outdir=str(outdir))


def test_tampered_embedding_counts_as_failed(tmp_path):
    report = run_op(small_config(tmp_path / "b"))
    expected = report["digests"]
    assert gate(report, expected) == []
    path = tmp_path / "b" / "embedding.csv"
    rows = path.read_text().splitlines()
    cells = rows[5].split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    rows[5] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    report.update(verify_bundle(tmp_path / "b"))
    report["digests"] = bundle_digests(tmp_path / "b")
    assert "embedding.csv differs from its recorded digest" in gate(report, expected)


def test_raising_operation_counts_as_failed():
    assert gate({"error": "Traceback ...\nStageError: [fit_qi] bad"}, {}) != []


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Two traced operations, as run.py makes them but in this process."""
    out = []
    for i in range(2):
        root = tmp_path_factory.mktemp(f"run{i}")
        untraced = run_op(small_config(root / "bundle"), verify=False)
        tpipe = run_traced_pipeline(small_config(root / "traced"), f"run{i}")
        tverify = run_traced_verify(root / "traced", f"run{i}")
        out.append((root, untraced, tpipe, tverify))
    return out


def test_traced_run_writes_the_same_bundle(traces):
    for root, untraced, tpipe, tverify in traces:
        assert same_files(root / "bundle", root / "traced")
        for report in (untraced, tpipe, tverify):
            assert gate(report, untraced["digests"]) == []
        assert tverify["verify_rc"] == 0


def test_tracer_times_the_programs_own_calls(traces):
    import conetrees.harness
    import conetrees.qi_verify
    from conetrees import ConeGrid

    assert conetrees.harness.fit_qi is conetrees.qi_verify.fit_qi
    assert ConeGrid.__dict__["dist_matrix"].func.__qualname__ == \
        "ConeGrid.dist_matrix"
    _, untraced, tpipe, tverify = traces[0]
    spans = tpipe["spans"] + tverify["spans"]
    parents = {(s["root"], s["name"]): s["parent"] for s in spans}
    assert parents["pipeline", "tree_embed.tree_pairs"] == \
        "tree_embed.product_matrix"
    assert parents["verify", "qi_verify.fit_qi"] == "verify"
    metrics = span_metrics(traced_report(untraced, tpipe, tverify))
    pipe = next(s for s in spans if s["name"] == "pipeline")
    outside = ("verify.verify_char_seq_s", "io.read_bundle_s",
               "coverings.lebesgue_s", "harness.trace_overhead_s")
    layers = sum(v for k, v in metrics.items()
                 if k.endswith("_s") and k not in outside)
    assert layers == pytest.approx(pipe["end"] - pipe["start"])
    assert metrics["harness.pair_extract_s"] > 0
    assert metrics["harness.other_s"] >= 0


def test_counts_repeat_exactly_and_match_hand_count(traces):
    first, second = (t[2]["counts"] for t in traces)
    assert first == second
    for name, want in SMALL_COUNTS.items():
        assert first[name] == want, name


def test_metrics_match_benchmark_json(traces, tmp_path):
    layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(span_metrics(traced_report(*traces[0][1:]))) == layer
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    op = op_metrics(run_op(small_config(tmp_path / "b")))
    assert set(op) | {"setup_s"} == e2e


def test_times_are_rescaled_by_the_probes_around_them():
    report = {"pipeline_s": 3.0, "verify_s": 1.0, "pairs": 600,
              "maxrss_mb": 50.0,
              "probe_s": [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]}
    # the pipeline ran between probes taking 1x and 3x the reference time,
    # so at half the reference speed; verify between 3x and 2x
    assert op_metrics(report) == pytest.approx({
        "pipeline_s": 1.5, "verify_s": 0.4, "pairs_per_s": 400.0,
        "peak_rss_mb": 50.0})
