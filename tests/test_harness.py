"""Example generators, capacity profiles, the pipeline, and bundle io."""

import json
import math
import shutil

import numpy as np
import pytest

import conetrees.io as bundle_io
from conetrees import (
    CoveringError,
    PipelineConfig,
    StageError,
    capacity_profile,
    generate,
    run_pipeline,
    sphere_ratio_check,
)
from conetrees.cli import main as cli_main


class TestGenerators:
    def test_circle_distances(self):
        sp = generate("circle", n=4)
        assert sp.dist[0, 1] == pytest.approx(math.pi / 2)
        assert sp.dist[0, 2] == pytest.approx(math.pi)
        assert sp.dist[0, 3] == pytest.approx(math.pi / 2)

    def test_interval_two_points(self):
        sp = generate("interval", n=2)
        assert sp.dist[0, 1] == 1.0
        assert sp.diameter == 1.0

    def test_interval_spacing(self):
        sp = generate("interval", n=5, length=2.0)
        assert sp.min_gap == pytest.approx(0.5)

    def test_cantor_level_one(self):
        sp = generate("cantor", depth=1)
        # endpoints 0 and 2/3
        assert sp.n == 2
        assert sp.dist[0, 1] == pytest.approx(2 / 3)

    def test_cantor_counts(self):
        sp = generate("cantor", depth=4)
        assert sp.n == 16
        assert sp.diameter < 1.0

    def test_tree_boundary_distances(self):
        sp = generate("tree_boundary", depth=3)
        assert sp.n == 8
        # leaves differing in the first digit are at distance 1
        values = np.unique(sp.dist)
        assert np.allclose(values, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_random_circle_seeded(self):
        a = generate("random_circle", n=30, seed=4)
        b = generate("random_circle", n=30, seed=4)
        c = generate("random_circle", n=30, seed=5)
        assert np.array_equal(a.dist, b.dist)
        assert not np.array_equal(a.dist, c.dist)
        assert a.diameter <= 2.0

    def test_visual_circle_dispatch(self):
        sp = generate("visual_circle", n=10)
        assert sp.meta["kind"] == "visual_circle"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generate("klein_bottle", n=5)


class TestCapacityProfile:
    def test_circle_profile(self):
        sp = generate("circle", n=512)
        scales = [0.125 ** j for j in range(1, 3)]
        prof = capacity_profile(sp, scales, colors=(2,))
        assert len(prof["records"]) == 2
        first, second = prof["records"]
        assert first["informative"]
        # windows 10 sample gaps wide, worst depth 2 gaps in
        assert first["capacity"] == pytest.approx(0.2)
        # below the sampling resolution the level degenerates to singletons
        assert not second["informative"]
        assert second["mesh"] == 0.0
        assert "caveat" in prof

    def test_uninformative_rows_flagged(self):
        sp = generate("circle", n=16)
        prof = capacity_profile(sp, [1e-6], colors=(2,))
        rec = prof["records"][0]
        assert rec["mesh"] == 0.0
        assert not rec["informative"]

    def test_budget(self):
        sp = generate("circle", n=16)
        with pytest.raises(ValueError, match="budget"):
            capacity_profile(sp, [0.1] * 300, colors=(2,))


class TestPipeline:
    def test_flagship_log_is_deterministic(self, flagship_result):
        cfg = PipelineConfig(generator="circle", params={"n": 512}, r=0.125,
                             depth=4, colors=2)
        again = run_pipeline(cfg)
        assert again.log == flagship_result.log

    def test_stage_error_from_enforcement(self):
        cfg = PipelineConfig(generator="circle", params={"n": 128}, r=0.125,
                             depth=2, colors=2, enforce_assumptions=True)
        with pytest.raises(StageError, match=r"\[separate\]") as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "separate"

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"generator": "circle", "wat": 1})

    def test_config_echo_drops_outdir(self):
        cfg = PipelineConfig(generator="circle", outdir="/tmp/somewhere")
        assert "outdir" not in cfg.echo()

    def test_sphere_ratio_bound(self, flagship_result):
        rep = sphere_ratio_check(flagship_result.grid)
        c = 2 * math.pi / (1 - 0.125 ** 2)
        assert rep["bound"] == pytest.approx(c)
        assert rep["passed"]
        assert 1 / c <= rep["min_ratio"] <= rep["max_ratio"] <= c

    def test_result_fields(self, flagship_result):
        res = flagship_result
        assert res.space.n == 512
        assert res.charseq.depth == 4
        assert len(res.trees) == 2
        assert res.qi.violations == 0
        assert res.radial["failures"] == 0
        assert res.runtime > 0


class TestBundleIO:
    def test_space_round_trip(self, tmp_path):
        sp = generate("cantor", depth=4)
        path = tmp_path / "space.json"
        bundle_io.write_space(path, sp)
        back = bundle_io.read_space(path)
        assert np.allclose(back.dist, sp.dist)
        assert back.point_ids == sp.point_ids
        assert back.meta["kind"] == "cantor"

    def test_charseq_round_trip(self, tmp_path, flagship_result):
        seq = flagship_result.charseq
        path = tmp_path / "charseq.json"
        bundle_io.write_charseq(path, seq)
        back = bundle_io.read_charseq(path, flagship_result.space)
        assert back.r == seq.r
        assert back.delta == seq.delta
        assert back.gamma == seq.gamma
        for j in range(1, 5):
            for a in range(2):
                got = [m.indices for m in back.level(j).colors[a].members]
                want = [m.indices for m in seq.level(j).colors[a].members]
                assert got == want

    def test_qireport_round_trip(self, tmp_path, flagship_result):
        path = tmp_path / "qi.json"
        bundle_io.write_qireport(path, flagship_result)
        back = bundle_io.read_qireport(path)
        assert back["qi"]["lam"] == flagship_result.qi.lam
        assert back["qi"]["sigma"] == flagship_result.qi.sigma
        assert back["tree_deltas"] == [0.0, 0.0]

    def test_profile_round_trip(self, tmp_path):
        sp = generate("circle", n=64)
        prof = capacity_profile(sp, [0.5, 0.1], colors=(2,))
        path = tmp_path / "profile.json"
        bundle_io.write_profile(path, prof)
        back = bundle_io.read_profile(path)
        assert back["records"] == prof["records"]

    def test_bundle_files(self, flagship_outdir, flagship_result):
        names = sorted(p.name for p in flagship_outdir.iterdir())
        assert names == ["charseq.json", "config.json", "embedding.csv",
                         "log.txt", "qireport.json", "space.json",
                         "tree_0.csv", "tree_1.csv"]

    def test_tampered_member_detected(self, tmp_path, flagship_result):
        # deleting a point from a covering member breaks coverage, which the
        # reader's reconstruction refuses
        path = tmp_path / "charseq.json"
        bundle_io.write_charseq(path, flagship_result.charseq)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["levels"][1][0][0] = data["levels"][1][0][0][1:]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CoveringError):
            bundle_io.read_charseq(path, flagship_result.space)


class TestCLI:
    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "sp.json"
        rc = cli_main(["generate", "--kind", "circle", "--n", "24",
                       "--out", str(out)])
        assert rc == 0
        assert out.exists()
        sp = bundle_io.read_space(out)
        assert sp.n == 24

    def test_generate_needs_outdir(self, monkeypatch):
        monkeypatch.delenv("CONETREES_OUT", raising=False)
        with pytest.raises(SystemExit):
            cli_main(["generate", "--kind", "circle", "--n", "12"])

    def test_generate_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONETREES_OUT", str(tmp_path))
        rc = cli_main(["generate", "--kind", "circle", "--n", "12"])
        assert rc == 0
        assert (tmp_path / "space.json").exists()

    def test_profile_command(self, tmp_path):
        out = tmp_path / "prof.json"
        rc = cli_main(["profile", "--kind", "circle", "--n", "64",
                       "--r", "0.25", "--depth", "2", "--out", str(out)])
        assert rc == 0
        prof = bundle_io.read_profile(out)
        assert len(prof["records"]) == 2

    def test_pipeline_with_config_and_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "generator": "circle", "params": {"n": 48},
            "r": 0.125, "depth": 3, "colors": 2,
        }), encoding="utf-8")
        outdir = tmp_path / "bundle"
        rc = cli_main(["pipeline", "--config", str(cfg_file),
                       "--depth", "2", "--outdir", str(outdir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fit_qi" in text
        cfg = json.loads((outdir / "config.json").read_text(encoding="utf-8"))
        assert cfg["depth"] == 2

    def test_pipeline_failure_exit_code(self, tmp_path, capsys):
        rc = cli_main(["pipeline", "--generator", "circle", "--n", "48",
                       "--r", "0.125", "--depth", "2",
                       "--enforce-assumptions"])
        assert rc == 1
        assert "separate" in capsys.readouterr().err

    def test_verify_command(self, flagship_outdir, capsys):
        rc = cli_main(["verify", "--bundle", str(flagship_outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] charseq" in out
        assert "[PASS] qi" in out
        assert "bundle verified" in out

    def test_verify_rejects_tampered_report(self, tmp_path, flagship_outdir,
                                            capsys):
        import shutil
        bundle = tmp_path / "bundle"
        shutil.copytree(flagship_outdir, bundle)
        qip = bundle / "qireport.json"
        data = json.loads(qip.read_text(encoding="utf-8"))
        data["qi"]["sigma"] = 0.5
        qip.write_text(json.dumps(data), encoding="utf-8")
        rc = cli_main(["verify", "--bundle", str(bundle)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] qi" in out


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "bundle"
    run_pipeline(PipelineConfig(generator="circle", params={"n": 96}, r=0.125,
                                depth=3, colors=2, outdir=str(out)))
    return out


def _last_row_edit(column, change=lambda cell: str(int(cell) - 1)):
    """Edit for a CSV bundle file: change one cell of its last row (by
    default, lower an integer by one)."""
    def edit(text):
        rows = text.splitlines()
        cells = rows[-1].split(",")
        cells[column] = change(cells[column])
        return "\n".join(rows[:-1] + [",".join(cells)]) + "\n"
    return edit


def _set_report(keys, value):
    """Edit for qireport.json: set the entry at a path of keys."""
    def edit(text):
        data = json.loads(text)
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return json.dumps(data)
    return edit


def _scale_dist(factor):
    """Edit for space.json: scale every distance, which keeps it a metric."""
    def edit(text):
        data = json.loads(text)
        data["dist"] = [[factor * x for x in row] for row in data["dist"]]
        return json.dumps(data)
    return edit


class TestVerifyTamper:
    """verify replays the certification stages on the stored ladder and
    compares every certified file, so an edit to any of them must fail it."""

    def _verify(self, tmp_path, small_bundle, capsys, name=None, edit=None):
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        if name is not None:
            path = bundle / name
            path.write_text(edit(path.read_text(encoding="utf-8")),
                            encoding="utf-8")
        rc = cli_main(["verify", "--bundle", str(bundle)])
        return rc, capsys.readouterr()

    def test_untouched_bundle_passes(self, tmp_path, small_bundle, capsys):
        rc, out = self._verify(tmp_path, small_bundle, capsys)
        assert rc == 0
        for name in ("config", "space", "trees", "embedding", "qi", "radial",
                     "sphere", "tree_deltas", "log"):
            assert f"[PASS] {name}" in out.out

    def test_tree_parent(self, tmp_path, small_bundle, capsys):
        rc, out = self._verify(tmp_path, small_bundle, capsys,
                               "tree_0.csv", _last_row_edit(2))
        assert rc == 1
        assert "[FAIL] trees" in out.out

    def test_embedding_row(self, tmp_path, small_bundle, capsys):
        rc, out = self._verify(tmp_path, small_bundle, capsys,
                               "embedding.csv", _last_row_edit(3))
        assert rc == 1
        assert "[FAIL] embedding" in out.out

    @pytest.mark.parametrize("value", [[0.5, 0.0], None])
    def test_tree_deltas(self, tmp_path, small_bundle, capsys, value):
        rc, out = self._verify(tmp_path, small_bundle, capsys, "qireport.json",
                               _set_report(("tree_deltas",), value))
        assert rc == 1
        assert "[FAIL] tree_deltas" in out.out

    @pytest.mark.parametrize("name, edit, fail_line", [
        ("tree_0.csv", _last_row_edit(4),
         "[FAIL] trees: 2 trees rebuilt, tree_0.csv differs"),
        ("embedding.csv", _last_row_edit(2, lambda t: repr(float(t) * 2)),
         "[FAIL] embedding"),
        ("embedding.csv", _last_row_edit(1, lambda pid: "p0000"),
         "[FAIL] embedding"),
        ("qireport.json", _set_report(("radial", "checks"), 1),
         "[FAIL] radial: qireport.json"),
        ("qireport.json", _set_report(("sphere", "max_ratio"), 99.0),
         "[FAIL] sphere: qireport.json"),
        ("qireport.json", _set_report(("qi", "details", "dt_values"), 99),
         "[FAIL] qi: qireport.json"),
        ("config.json", _set_report(("depth",), 7), "[FAIL] config"),
        ("config.json", _set_report(("r",), 0.5), "[FAIL] config"),
        ("config.json", _set_report(("colors",), 3), "[FAIL] config"),
        ("config.json", _set_report(("params", "n"), 12),
         "[FAIL] space: regenerated from config.json"),
        ("config.json", _set_report(("params", "spacing"), 1.0),
         "[FAIL] space: config.json generates no space"),
        ("space.json", _scale_dist(2.0), "[FAIL] space: regenerated"),
        ("log.txt", lambda text: "generate: kind=circle n=96\n", "[FAIL] log"),
        ("log.txt", lambda text: text.replace("fit_qi: lam=", "fit_qi: lam=1"),
         "[FAIL] log"),
    ], ids=["ref_member", "t", "point_id", "radial.checks", "sphere.max_ratio",
            "qi.details", "config.depth", "config.r", "config.colors",
            "config.params.n", "config.params.unknown", "space.dist", "log.one_line",
            "log.fit_qi"])
    def test_certified_field(self, tmp_path, small_bundle, capsys, name, edit,
                             fail_line):
        rc, out = self._verify(tmp_path, small_bundle, capsys, name, edit)
        assert rc == 1
        assert fail_line in out.out

    def test_unknown_config_key_refused(self, tmp_path, small_bundle, capsys):
        rc, out = self._verify(tmp_path, small_bundle, capsys, "config.json",
                               _set_report(("product_mode",), "l1"))
        assert rc == 1
        assert "unknown config keys: ['product_mode']" in out.err
