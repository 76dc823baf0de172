"""Byte identity of the benchmark workloads' bundles.

Runs every workload configuration in bench/workloads.py and compares the
SHA-256 of each pinned bundle file with bench/digests.json, the digests the
benchmark gates on.  Reads those files and writes neither.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conetrees import PipelineConfig, run_pipeline

BENCH = Path(__file__).resolve().parents[1] / "bench"
PINNED = ("space.json", "charseq.json", "tree_*.csv", "embedding.csv")


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bundle_matches_recorded_digests(tmp_path, name):
    cfg = WORKLOADS[name]["config"]
    run_pipeline(PipelineConfig(**{**cfg, "params": dict(cfg["params"])},
                                outdir=str(tmp_path)))
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for pattern in PINNED for path in sorted(tmp_path.glob(pattern))}
    assert got == DIGESTS[name]
