"""Example generators, capacity profiles, the pipeline, and bundle io."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import conetrees.io as bundle_io
from conetrees import (
    ConeGrid,
    Family,
    FiniteMetricSpace,
    GENERATORS,
    PipelineConfig,
    StageError,
    build_base,
    build_grid,
    build_level,
    capacity_profile,
    char_seq,
    fit_qi,
    generate,
    harness,
    run_pipeline,
    separate,
    sphere_ratio_check,
)
from conetrees.cli import main as cli_main
from oracles import cone_metric


def _workload_configs() -> dict:
    """The benchmark's workload configurations, from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: w["config"] for name, w in module.WORKLOADS.items()}


WORKLOAD_CONFIGS = _workload_configs()


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

    @pytest.mark.parametrize("kind, params", [
        ("circle", {"n": 128}), ("random_circle", {"n": 100}),
        ("cantor", {"depth": 5}), (None, {"n": 100}),
    ], ids=["circle", "random_circle", "cantor", "no_kind"])
    def test_one_depths_read_per_record(self, monkeypatch, kind, params):
        # each distinct color family's table is derived once per record,
        # for both the Lebesgue number and the capacity; no pooled table
        sp = generate(kind or "random_circle", **params)
        if kind is None:
            sp = FiniteMetricSpace(sp.dist, sp.point_ids)
        scales, colors = [0.5, 0.125, 0.01], (2, 3)
        families = sum(
            len({id(f) for f in build_level(sp, tau, m,
                                             allow_more_colors=True).colors})
            for m in colors for tau in scales)
        reads = []
        depths = Family.depths

        def counting(self):
            reads.append(id(self))
            return depths.fget(self)

        monkeypatch.setattr(Family, "depths", property(counting))
        prof = capacity_profile(sp, scales, colors=colors)
        assert len(prof["records"]) == 6
        assert len(reads) == families
        assert any(r["mesh"] > 0 for r in prof["records"])
        for rec in prof["records"]:
            assert rec["capacity"] == (1.0 if rec["mesh"] == 0
                                       else rec["lebesgue"] / rec["mesh"])


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

    def test_in_hypothesis_run_builds_two_levels(self, tmp_path, capsys):
        # cantor depth 9 at r=1/27 meets every standing assumption, and its
        # first two levels are built from components: 8 and 64 members a color
        rc = cli_main(["pipeline", "--generator", "cantor", "--params",
                       '{"depth": 9}', "--r", "0.037037037037037035",
                       "--depth", "3", "--enforce-assumptions",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        assert cli_main(["verify", "--bundle", str(tmp_path)]) == 0
        capsys.readouterr()
        ladder = json.loads((tmp_path / "charseq.json").read_text())
        assert ladder["provenance"]["assumption_warnings"] == []
        sizes = [sorted({len(m) for color in level for m in color})
                 for level in ladder["levels"]]
        assert sizes == [[64], [8], [1]]

    @pytest.mark.parametrize("name", ["flagship", "cascade"])
    def test_space_caches_no_table(self, name):
        # a finished run leaves only the matrix and scalars on its space
        cfg = WORKLOAD_CONFIGS[name]
        res = run_pipeline(PipelineConfig(**{**cfg,
                                             "params": dict(cfg["params"])}))
        assert set(vars(res.space)) <= {"dist", "point_ids", "meta", "rel_tol",
                                        "diameter", "min_gap"}

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"generator": "circle", "wat": 1})

    @pytest.mark.parametrize("field, value", [
        ("r", "0.125"), ("depth", "2"), ("tree_delta_check", 1),
        ("depth", True), ("delta_target", "0.1"), ("generator", None),
    ])
    def test_ill_typed_config_refused(self, field, value):
        with pytest.raises(ValueError, match=f"config field {field} must be"):
            PipelineConfig.from_dict({"generator": "circle", field: value})

    @pytest.mark.parametrize("field, value", [
        ("r", math.nan), ("r", math.inf), ("delta_target", math.nan),
        ("delta_target", -math.inf),
    ], ids=["r_nan", "r_inf", "delta_target_nan", "delta_target_minus_inf"])
    def test_non_finite_config_float_refused(self, field, value):
        # a NaN target would fail every `<` gate, so pass every one, and
        # NaN and inf are no JSON numbers
        with pytest.raises(ValueError) as exc:
            PipelineConfig.from_dict({"generator": "circle", field: value})
        assert str(exc.value) == (
            f"config field {field} must be finite, got {value!r}")

    def test_optional_fields_take_none(self):
        cfg = PipelineConfig.from_dict({"generator": "circle", "r": 1 / 8,
                                        "delta_target": None, "outdir": None})
        assert cfg.delta_target is None and cfg.outdir is None
        assert PipelineConfig.from_dict({"generator": "circle",
                                         "delta_target": 1}).delta_target == 1

    @pytest.mark.parametrize("value", [[1, 2], 5, None, "circle"],
                             ids=["list", "number", "null", "string"])
    def test_config_that_is_not_an_object_refused(self, value):
        with pytest.raises(ValueError) as exc:
            PipelineConfig.from_dict(value)
        assert str(exc.value) == (
            f"config must be a JSON object, got {value!r}")

    def test_config_without_generator_refused(self):
        with pytest.raises(ValueError, match="needs a generator"):
            PipelineConfig.from_dict({"depth": 2})

    def test_config_echo_drops_outdir(self):
        cfg = PipelineConfig(generator="circle", outdir="/tmp/somewhere")
        assert "outdir" not in cfg.echo()

    def test_sphere_ratio_bound(self, flagship_result):
        rep = sphere_ratio_check(flagship_result.grid)
        c = 2 * math.pi / (1 - 0.125 ** 2)
        assert rep["bound"] == pytest.approx(c)
        assert rep["passed"]
        assert 1 / c <= rep["min_ratio"] <= rep["max_ratio"] <= c

    @pytest.mark.parametrize("name", ["flagship", "cascade", "long_ray"])
    def test_certify_streams_the_cone_pairs(self, monkeypatch, name):
        # fit_qi gets one block per level whose concatenation is the upper
        # triangle of both pair matrices, row-major, and the whole cone
        # matrix is never built
        seen = []

        def fit(blocks):
            seen.append(blocks)
            return fit_qi(blocks)

        monkeypatch.setattr(harness, "fit_qi", fit)
        cfg = WORKLOAD_CONFIGS[name]
        res = run_pipeline(PipelineConfig(**{**cfg,
                                             "params": dict(cfg["params"])}))
        assert "dist_matrix" not in res.grid.__dict__
        [blocks] = seen
        ds, dt = (np.concatenate(side) for side in zip(*blocks))
        upper = np.triu_indices(res.grid.n_points, k=1)
        assert len(list(blocks)) == res.grid.depth + 1
        assert np.array_equal(ds, res.grid.dist_matrix[upper])
        assert np.array_equal(dt, res.embedding.all_pairs_dist[upper])
        assert res.qi == fit_qi([(ds, dt)])

    def test_cone_factors_released_after_the_fit(self):
        # the n x n S table is no longer held through tree_delta; the grid
        # derives it again on demand, with the same entries
        res = run_pipeline(PipelineConfig(generator="circle",
                                          params={"n": 48}, depth=3))
        assert "_level_factors" not in res.grid.__dict__
        grid = res.grid
        assert np.array_equal(grid.dist_matrix, cone_metric(
            grid.space, grid.point_z, grid.point_level * grid.R))

    def test_result_fields(self, flagship_result):
        res = flagship_result
        assert res.space.n == 512
        assert res.charseq.depth == 4
        assert len(res.trees) == 2
        assert res.qi.violations == 0
        assert res.radial["failures"] == 0
        assert res.runtime > 0


def _pair_blocks(grid, product, monkeypatch, block_entries):
    """_LevelPairs's blocks with BLOCK_ENTRIES set, and the (level, lo, hi,
    start, entries) of every `level_rows` call that made them."""
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
    calls = []
    level_rows = ConeGrid.level_rows

    def recording(self, j, lo, hi, start):
        rows = level_rows(self, j, lo, hi, start)
        calls.append((j, lo, hi, start, rows.size))
        return rows

    monkeypatch.setattr(ConeGrid, "level_rows", recording)
    blocks = list(harness._LevelPairs(grid, product))
    monkeypatch.setattr(ConeGrid, "level_rows", level_rows)
    return blocks, calls


class TestLevelPairs:
    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("kind, params", [
        ("circle", {"n": 10}), ("interval", {"n": 9}),
        ("cantor", {"depth": 3}), ("tree_boundary", {"depth": 3}),
        ("random_circle", {"n": 11}), ("visual_circle", {"n": 12}),
    ], ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("split", ["row", "mid_level", "default"])
    def test_blocks_are_the_upper_triangle(self, monkeypatch, kind, params,
                                           depth, split):
        # the concatenated blocks are both matrices' upper triangles in
        # np.triu_indices's order, however the rows are split; the product
        # side has distinct entries, so any misplaced pair shows
        grid = build_grid(generate(kind, **params), r=0.125, depth=depth)
        n, big_n = grid.space.n, grid.n_points
        product = np.arange(big_n * big_n, dtype=np.int32).reshape(big_n, big_n)
        block_entries = {"row": 1, "mid_level": (n // 2) * (big_n - 2),
                         "default": harness.BLOCK_ENTRIES}[split]
        blocks, calls = _pair_blocks(grid, product, monkeypatch, block_entries)
        upper = np.triu_indices(big_n, k=1)
        ds, dt = (np.concatenate(side) for side in zip(*blocks))
        assert np.array_equal(ds, grid.dist_matrix[upper])
        assert np.array_equal(dt, product[upper])
        for j, lo, hi, start, entries in calls:
            # a block computes at most block_entries, or one wider row
            assert entries <= block_entries or hi - lo == 1
            assert start == grid.index(j, 0) + lo + 1
        rows = [hi - lo for _, lo, hi, _, _ in calls]
        if split == "row":
            assert rows == [1] * big_n
        elif split == "mid_level":
            assert rows[1] == n // 2 and calls[2][1] == n // 2
        else:
            assert rows == [1] + [n] * depth

    def test_large_level_splits_within_the_bound(self, monkeypatch):
        # a level of more rows than one block holds is split, each block
        # within BLOCK_ENTRIES, and the pairs are still the upper triangle
        grid = build_grid(generate("circle", n=300), r=0.125, depth=2)
        big_n = grid.n_points
        product = np.arange(big_n * big_n, dtype=np.int64).reshape(big_n, big_n)
        blocks, calls = _pair_blocks(grid, product, monkeypatch, 1 << 14)
        assert len(calls) > grid.depth + 1
        assert all(entries <= 1 << 14 for *_, entries in calls)
        upper = np.triu_indices(big_n, k=1)
        ds, dt = (np.concatenate(side) for side in zip(*blocks))
        assert np.array_equal(ds, grid.dist_matrix[upper])
        assert np.array_equal(dt, product[upper])


class TestBundleIO:
    def test_space_round_trip(self, tmp_path):
        sp = generate("cantor", depth=4)
        path = tmp_path / "space.json"
        bundle_io.write_space(path, sp)
        back = bundle_io.read_space(path)
        assert np.allclose(back.dist, sp.dist)
        assert back.point_ids == sp.point_ids
        assert back.meta["kind"] == "cantor"

    def test_qireport_round_trip(self, flagship_outdir, flagship_result):
        text = (flagship_outdir / "qireport.json").read_bytes()
        assert text == bundle_io.bundle_files(flagship_result)["qireport.json"]
        back = json.loads(text)
        assert back["qi"]["lam"] == flagship_result.qi.lam
        assert back["qi"]["sigma"] == flagship_result.qi.sigma
        assert back["tree_deltas"] == [0.0, 0.0]

    def test_profile_round_trip(self, tmp_path):
        sp = generate("circle", n=64)
        prof = capacity_profile(sp, [0.5, 0.1], colors=(2,))
        path = tmp_path / "profile.json"
        bundle_io.write_profile(path, prof)
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back["records"] == prof["records"]

    def test_bundle_files(self, flagship_outdir, flagship_result):
        names = sorted(p.name for p in flagship_outdir.iterdir())
        assert names == ["charseq.json", "config.json", "embedding.csv",
                         "log.txt", "qireport.json", "space.json",
                         "tree_0.csv", "tree_1.csv"]


_STRING_POOL = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "a",
                " ", "\u00e9", "\u20ac", "\U0001f600", "\ud800")
_FLOAT_POOL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-7, 1e300,
               5e-324, 1.7976931348623157e308, 0.1, 1.0, -2.5, 1e16,
               123456.789)
_INT_POOL = (0, -1, 7, 2 ** 63, -(2 ** 63) - 1, 2 ** 100, -(10 ** 30))


def _random_text(rng, most):
    return "".join(_STRING_POOL[int(i)] for i in
                   rng.integers(0, len(_STRING_POOL), rng.integers(0, most)))


def _random_json(rng, depth=0):
    """A random plain JSON value; containers thin out with depth."""
    kind = int(rng.integers(0, 9 if depth < 4 else 6))
    if kind == 0:
        return _FLOAT_POOL[int(rng.integers(len(_FLOAT_POOL)))]
    if kind == 1:
        return float(rng.normal() * 10.0 ** rng.integers(-30, 30))
    if kind == 2:
        return _INT_POOL[int(rng.integers(len(_INT_POOL)))]
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return None
    if kind == 5:
        return _random_text(rng, 5)
    size = int(rng.integers(0, 5))
    if kind == 6:
        return [_random_json(rng, depth + 1) for _ in range(size)]
    if kind == 7:
        return tuple(_random_json(rng, depth + 1) for _ in range(size))
    return {_random_text(rng, 4): _random_json(rng, depth + 1)
            for _ in range(size)}


def _stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _oracle_charseq(text: str, seq) -> str:
    """charseq.json as the stdlib writes it whole, with its "levels" from
    the ladder's members, one `tolist` each, and the rest read off ``text``."""
    levels = [[[u.tolist() for u in fam.members] for fam in cov.colors]
              for cov in seq.levels]
    return _stdlib({**json.loads(text), "levels": levels})


def _oracle_tree(tree) -> str:
    """tree_<a>.csv with each node's points through their own `tolist`."""
    lines = ["node,level,parent,ref_level,ref_member,points"]
    for u, (level, parent, members, (rl, rm)) in enumerate(zip(
            tree.level.tolist(), tree.parent.tolist(), tree.members,
            tree.refs)):
        pts = ";".join(map(str, members.tolist()))
        lines.append(f"{u},{level},{parent},{rl},{rm},{pts}")
    return "\n".join(lines) + "\n"


def _random_int_lists(rng, depth):
    """A random list nested ``depth`` deep around ints, empty lists and
    lists of empty lists among them."""
    size = int(rng.choice([0, 1, 1, 2, 5]))
    if depth == 1:
        return rng.integers(-3, 10 ** 6, size).tolist()
    return [_random_int_lists(rng, depth - 1) for _ in range(size)]


def _by_list(value, depth):
    """``value``'s text with every list written by `io._list`, ``depth``
    levels into an object."""
    if isinstance(value, list):
        return bundle_io._list([_by_list(v, depth + 1) for v in value], depth)
    return json.dumps(value)


# the pipelines whose member lists and trees are held to the oracle: the
# workloads, cascade dropping a member, and CI's tree_boundary, cantor and
# interval configurations
RENDER_CONFIGS = {
    **WORKLOAD_CONFIGS,
    "tree_boundary": {"generator": "tree_boundary", "params": {"depth": 7},
                      "depth": 4},
    "cantor": {"generator": "cantor", "params": {"depth": 7}, "depth": 4},
    "interval": {"generator": "interval", "params": {"n": 512}, "depth": 3},
}


# one small space per generator
SPACE_PARAMS = {"circle": {"n": 24}, "interval": {"n": 20},
                "cantor": {"depth": 4}, "tree_boundary": {"depth": 4},
                "random_circle": {"n": 40, "seed": 1},
                "visual_circle": {"n": 18}}


class TestCanonicalJSON:
    """io's JSON text against the stdlib's."""

    def test_random_values(self):
        rng = np.random.default_rng(9)
        for _ in range(3000):
            value = _random_json(rng)
            assert bundle_io._dumps(value) == _stdlib(value)

    def test_repeated_floats_and_signed_zeros(self):
        row = [0.0, -0.0, 0.1, 0.0, -0.0, 0.1, math.nan, math.inf, -math.inf,
               1, True, 0.1]
        assert bundle_io._dumps([row, row, {"z": row}]) == _stdlib(
            [row, row, {"z": row}])

    def test_matrix_is_the_stdlib_list(self):
        # the distance matrix's writer, one level into an object: random
        # arrays, repeated values, and the arrays it leaves to the stdlib
        # (empty, or holding -0.0, NaN or inf)
        rng = np.random.default_rng(3)
        pool = np.array(_FLOAT_POOL)
        finite = pool[np.isfinite(pool) & ~np.signbit(pool)]
        arrays = [np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)),
                  np.array([[0.0, -0.0], [-0.0, 0.0]]),
                  np.array([[math.nan, 1.0]]), np.array([[1.0], [math.inf]]),
                  np.array([[-math.inf]])]
        for _ in range(300):
            shape = tuple(int(k) for k in rng.integers(1, 6, 2))
            arrays.append(rng.choice(pool, size=shape))
            arrays.append(rng.choice(finite, size=shape))
            arrays.append(rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30))
        for a in arrays:
            assert bundle_io._matrix(a) == json.dumps(
                a.tolist(), indent=2).replace("\n", "\n  ")

    @pytest.mark.parametrize("space", [
        *(generate(kind, **SPACE_PARAMS[kind]) for kind in GENERATORS),
        FiniteMetricSpace(np.array([[-0.0, 1.5], [1.5, 0.0]]), ("a", "b"),
                          meta={"note": "a signed zero"}),
        FiniteMetricSpace(np.zeros((0, 0)), ()),
    ], ids=[*GENERATORS, "signed_zero", "empty"])
    def test_space_text(self, tmp_path, space):
        text = _stdlib({"dist": space.dist.tolist(), "meta": space.meta,
                        "point_ids": list(space.point_ids),
                        "rel_tol": space.rel_tol})
        assert bundle_io._space_text(space) == text
        bundle_io.write_space(tmp_path / "space.json", space)
        assert (tmp_path / "space.json").read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("value", [
        {1, 2}, b"bytes", np.int64(3), [object()],
    ], ids=["set", "bytes", "numpy_int", "object"])
    def test_refuses_values_that_are_not_plain(self, value):
        with pytest.raises(TypeError):
            bundle_io._dumps(value)

    @pytest.mark.parametrize("name", ["flagship", "cascade", "long_ray"])
    def test_workload_bundles(self, tmp_path, name):
        cfg = WORKLOAD_CONFIGS[name]
        result = run_pipeline(PipelineConfig(
            **{**cfg, "params": dict(cfg["params"])}, outdir=str(tmp_path)))
        files = bundle_io.bundle_files(result)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        for file, content in files.items():
            assert (tmp_path / file).read_bytes() == content
            if file.endswith(".json"):
                text = content.decode("utf-8")
                assert _stdlib(json.loads(text)) == text

    def test_list_is_the_stdlib_list(self):
        # at each depth the bundle writes a list: a matrix's rows, levels,
        # colors and members
        rng = np.random.default_rng(5)
        for depth in (1, 2, 3, 4):
            values = [[], [[]], [[], []], [[[]], []]]
            values += [_random_int_lists(rng, int(rng.integers(1, 5)))
                       for _ in range(300)]
            for value in values:
                assert _by_list(value, depth) == json.dumps(
                    value, indent=2).replace("\n", "\n" + "  " * depth)

    def test_member_texts(self):
        sp = generate("circle", n=12)
        for members in ((), ([3],), ([0, 11], range(12), [5], [7, 2, 9])):
            fam = Family(sp, members)
            assert bundle_io._member_texts(fam) == [
                list(map(str, u.tolist())) for u in fam]

    def test_spliced(self):
        # a nested key of the same name, and a string holding the key's line
        value = {"a": [1, {"levels": None}], "levels": 0,
                 "z": '\n  "levels": null'}
        text = json.dumps([7, []], indent=2).replace("\n", "\n  ")
        for key in ("levels", "a", "z", "new"):
            assert bundle_io._spliced(value, key, text) == _stdlib(
                {**value, key: [7, []]})

    @pytest.mark.parametrize("name", sorted(RENDER_CONFIGS))
    def test_member_lists_and_trees_match_the_oracle(self, name):
        cfg = RENDER_CONFIGS[name]
        result = run_pipeline(PipelineConfig(
            **{**cfg, "params": dict(cfg["params"])}))
        if name == "cascade":
            assert result.charseq.provenance["dropped_members"] > 0
        files = bundle_io.bundle_files(result)
        text = files["charseq.json"].decode("utf-8")
        assert text == _oracle_charseq(text, result.charseq)
        for a, tree in enumerate(result.trees):
            assert files[f"tree_{a}.csv"].decode("utf-8") == _oracle_tree(tree)

    def test_profile(self, tmp_path):
        prof = capacity_profile(generate("random_circle", n=100),
                                [0.5, 0.125, 0.02], colors=(2, 3))
        path = tmp_path / "profile.json"
        bundle_io.write_profile(path, prof)
        assert path.read_text(encoding="utf-8") == _stdlib(prof)


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
        prof = json.loads(out.read_text(encoding="utf-8"))
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

    def test_pipeline_refuses_ill_typed_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "generator": "circle", "params": {"n": 48}, "depth": "2",
        }), encoding="utf-8")
        rc = cli_main(["pipeline", "--config", str(cfg_file),
                       "--outdir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config field depth must be int, got '2'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--delta-target", "nan"), ("--delta-target", "-inf"),
        ("--r", "nan"), ("--r", "inf"),
    ])
    def test_pipeline_refuses_non_finite_float(self, tmp_path, capsys, flag,
                                               value):
        out = tmp_path / "out"
        rc = cli_main(["pipeline", "--generator", "circle", "--n", "64",
                       "--depth", "2", f"{flag}={value}", "--outdir", str(out)])
        assert rc == 1
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: config field {field} must be finite, got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_profile_refuses_non_finite_scale(self, tmp_path, capsys, scale):
        out = tmp_path / "prof.json"
        rc = cli_main(["profile", "--kind", "circle", "--n", "64", "--scales",
                       scale, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: scale must be positive and finite, got {float(scale)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null", '"circle"'],
                             ids=["list", "number", "null", "string"])
    def test_pipeline_refuses_config_that_is_not_an_object(
            self, tmp_path, capsys, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text, encoding="utf-8")
        rc = cli_main(["pipeline", "--config", str(cfg_file), "--generator",
                       "circle", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config must be a JSON object, got {text}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, problem", [
        ("[[0, 1], [1, 0]]", "must be a JSON object, got list"),
        ('{"point_ids": ["a", "b"]}', "lacks dist"),
        ('{"dist": [[0, 1], [1, 0]]}', "lacks point_ids"),
        ("{}", "lacks dist and point_ids"),
        ('{"dist": [[0, 1], [1, 0]], "point_ids": 5}',
         "point_ids must be a list of strings"),
        ('{"dist": [[0, 1], [1, 0]], "point_ids": ["a", "b"], "meta": 3}',
         "meta must be a JSON object, got int"),
        ('{"dist": {"a": 1}, "point_ids": ["a", "b"]}',
         "dist must be a list of lists of numbers"),
        ('{"dist": [0, 1], "point_ids": ["a", "b"]}',
         "dist must be a list of lists of numbers"),
        ('{"dist": [[0, {"a": 1}], [1, 0]], "point_ids": ["a", "b"]}',
         "dist must be a list of lists of numbers"),
        ('{"dist": [[0, true], [true, 0]], "point_ids": ["a", "b"]}',
         "dist must be a list of lists of numbers"),
        ('{"dist": [[0, "1"], ["1", 0]], "point_ids": ["a", "b"]}',
         "dist must be a list of lists of numbers"),
        ('{"dist": [[0, 1], [1, 0]], "point_ids": ["a", "b"], "rel_tol": [1]}',
         "rel_tol must be a number, got list"),
        ('{"dist": [[0, 1], [1, 0]], "point_ids": ["a", "b"], "rel_tol": true}',
         "rel_tol must be a number, got bool"),
        ('{"dist": [[0, 1], [1, 0]], "point_ids": ["a", "b"], '
         '"rel_tol": "1e-9"}',
         "rel_tol must be a number, got str"),
    ], ids=["list", "no_dist", "no_point_ids", "empty", "point_ids_number",
            "meta_number", "dist_object", "dist_flat", "dist_object_entry",
            "dist_bool_entry", "dist_string_entry", "rel_tol_list",
            "rel_tol_bool", "rel_tol_string"])
    def test_profile_refuses_malformed_space_file(self, tmp_path, capsys,
                                                  text, problem):
        space_file = tmp_path / "space.json"
        space_file.write_text(text, encoding="utf-8")
        rc = cli_main(["profile", "--space", str(space_file),
                       "--out", str(tmp_path / "profile.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: space file {space_file} {problem}\n"
        assert "Traceback" not in err
        assert not (tmp_path / "profile.json").exists()

    def test_profile_refuses_asymmetric_space_file(self, tmp_path, capsys):
        # d[2, 0] exceeds d[0, 2] by far less than rel_tol
        space_file = tmp_path / "space.json"
        space_file.write_text(
            '{"dist": [[0, 1, 2], [1, 0, 1], [2.000000000001, 1, 0]], '
            '"point_ids": ["a", "b", "c"]}', encoding="utf-8")
        rc = cli_main(["profile", "--space", str(space_file),
                       "--out", str(tmp_path / "profile.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: distance matrix is not symmetric\n")
        assert not (tmp_path / "profile.json").exists()

    @pytest.mark.parametrize("rel_tol, message", [
        ("", "triangle inequality fails at (0,2): d=5 > min path 2"),
        (', "rel_tol": Infinity',
         "rel_tol must be finite and nonnegative, got inf"),
        (', "rel_tol": NaN', "rel_tol must be finite and nonnegative, got nan"),
    ], ids=["default", "inf", "nan"])
    def test_profile_refuses_triangle_violation(self, tmp_path, capsys,
                                                rel_tol, message):
        # d(a, c) = 5 > d(a, b) + d(b, c) = 2; json reads Infinity and NaN
        space_file = tmp_path / "space.json"
        space_file.write_text(
            '{"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]], '
            f'"point_ids": ["a", "b", "c"]{rel_tol}}}', encoding="utf-8")
        rc = cli_main(["profile", "--space", str(space_file),
                       "--out", str(tmp_path / "profile.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "profile.json").exists()

    @pytest.mark.parametrize("meta, message", [
        ({"kind": "interval"},
         "interval space needs meta coords as 40 finite floats"),
        ({"kind": "interval", "coords": [0.0] * 45},
         "interval space needs meta coords as 40 finite floats"),
        ({"kind": "random_circle", "metric": "chord", "radius": 0.0,
          "angles": [0.1 * i for i in range(40)]},
         "random_circle space needs meta radius as a positive finite float, "
         "got 0.0"),
        ({"kind": "circle", "circumference": -1.0,
          "angles": [0.1 * i for i in range(40)]},
         "circle space needs meta circumference as a positive finite float, "
         "got -1.0"),
        ({"kind": "visual_circle", "metric": "chord", "radius": 0.5},
         "visual_circle space needs meta angles as 40 finite floats"),
    ], ids=["no_coords", "coords_45", "radius_0", "circumference_negative",
            "no_angles"])
    def test_profile_refuses_stock_kind_meta_it_cannot_read(
            self, tmp_path, capsys, meta, message):
        # an n=40 interval's matrix, under meta its builder cannot use
        sp = generate("interval", n=40)
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "dist": sp.dist.tolist(), "point_ids": list(sp.point_ids),
            "meta": meta}), encoding="utf-8")
        rc = cli_main(["profile", "--space", str(space_file), "--r", "0.5",
                       "--depth", "1", "--out", str(tmp_path / "profile.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "profile.json").exists()

    def test_profile_gives_a_kind_that_is_no_string_the_greedy_builder(
            self, tmp_path):
        sp = generate("interval", n=40)
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "dist": sp.dist.tolist(), "point_ids": list(sp.point_ids),
            "meta": {"kind": ["interval"]}}), encoding="utf-8")
        out = tmp_path / "profile.json"
        rc = cli_main(["profile", "--space", str(space_file), "--r", "0.5",
                       "--depth", "1", "--out", str(out)])
        assert rc == 0
        # a kindless space: meta that names no stock kind
        greedy = capacity_profile(FiniteMetricSpace(sp.dist, sp.point_ids),
                                  [0.5])
        assert json.loads(out.read_text(encoding="utf-8"))["records"] == \
            greedy["records"]

    def test_pipeline_failure_exit_code(self, tmp_path, capsys):
        rc = cli_main(["pipeline", "--generator", "circle", "--n", "48",
                       "--r", "0.125", "--depth", "2",
                       "--enforce-assumptions"])
        assert rc == 1
        assert "separate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["pipeline", "--generator", "circle", "--n", "48", "--depth", "2",
          "--params", '{"spacing": 1}'],
         "pipeline failed: [generate] circle takes n: int, circumference: "
         "float; got unknown ['spacing'], missing [], ill-typed []"),
        (["profile", "--kind", "circle", "--n", "48", "--depth", "2",
          "--params", '{"circumference": "2"}'],
         "error: circle takes n: int, circumference: float; got unknown [], "
         """missing [], ill-typed ["circumference='2'"]"""),
        (["generate", "--kind", "cantor", "--params", '{"depth": "3"}'],
         "error: cantor takes depth: int; got unknown [], missing [], "
         """ill-typed ["depth='3'"]"""),
        (["generate", "--kind", "circle", "--params", "[1]"],
         "error: --params must be a JSON object, got [1]"),
    ], ids=["pipeline", "profile", "generate", "generate_list"])
    def test_bad_generator_params_refused(self, tmp_path, capsys, argv,
                                          message):
        rc = cli_main(argv + ["--outdir" if argv[0] == "pipeline" else "--out",
                              str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        qip.write_text(_stdlib(data), encoding="utf-8")
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


def _edit_entry(keys, change):
    """Edit for a JSON bundle file: replace the entry at a path of keys by
    change(entry)."""
    def edit(text):
        data = json.loads(text)
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = change(node.get(keys[-1]))
        return _stdlib(data)
    return edit


def _set_report(keys, value):
    """Edit for a JSON bundle file: set the entry at a path of keys."""
    return _edit_entry(keys, lambda _: value)


def _drop_first_point(levels):
    """Edit for charseq.json's levels: drop the first point of the first
    member of level 2, color 0."""
    levels[1][0][0] = levels[1][0][0][1:]
    return levels


def _scale_dist(factor):
    """Edit for space.json: scale every distance, which keeps it a metric."""
    def edit(text):
        data = json.loads(text)
        data["dist"] = [[factor * x for x in row] for row in data["dist"]]
        return _stdlib(data)
    return edit


class TestVerifyTamper:
    """verify reruns the pipeline from config.json and compares every bundle
    file with the replay's, so an edit to any of them must fail it."""

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
        names = sorted(p.name for p in small_bundle.iterdir())
        assert out.out.splitlines() == [f"[PASS] {name}" for name in names] + [
            "bundle verified"]

    @pytest.mark.parametrize("name", ["charseq.json", "config.json",
                                      "qireport.json", "space.json"])
    def test_canonical_rewrite_passes(self, tmp_path, small_bundle, capsys,
                                      name):
        # the JSON edits below rewrite a file this way, so each differs from
        # the stored file in the edited value only
        rc, out = self._verify(tmp_path, small_bundle, capsys, name,
                               lambda text: _stdlib(json.loads(text)))
        assert rc == 0
        assert out.out.endswith("bundle verified\n")
        assert "[FAIL]" not in out.out

    def test_tree_parent(self, tmp_path, small_bundle, capsys):
        rc, out = self._verify(tmp_path, small_bundle, capsys,
                               "tree_0.csv", _last_row_edit(2))
        assert rc == 1
        assert "[FAIL] tree_0.csv" in out.out

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
        assert "[FAIL] qireport.json" in out.out

    @pytest.mark.parametrize("name, edit, fail_line", [
        ("tree_0.csv", _last_row_edit(4), "[FAIL] tree_0.csv"),
        ("embedding.csv", _last_row_edit(2, lambda t: repr(float(t) * 2)),
         "[FAIL] embedding.csv"),
        ("embedding.csv", _last_row_edit(1, lambda pid: "p0000"),
         "[FAIL] embedding.csv"),
        ("qireport.json", _set_report(("radial", "checks"), 1),
         "[FAIL] qireport.json"),
        ("qireport.json", _set_report(("sphere", "max_ratio"), 99.0),
         "[FAIL] qireport.json"),
        ("qireport.json", _set_report(("qi", "details", "dt_values"), 99),
         "[FAIL] qireport.json"),
        ("config.json", _set_report(("depth",), 7), "[FAIL] charseq.json"),
        ("config.json", _set_report(("r",), 0.5), "[FAIL] charseq.json"),
        ("config.json", _set_report(("colors",), 3), "[FAIL] charseq.json"),
        ("config.json", _set_report(("params", "n"), 12), "[FAIL] space.json"),
        ("config.json", _set_report(("params", "spacing"), 1.0),
         "[FAIL] generate"),
        ("space.json", _scale_dist(2.0), "[FAIL] space.json"),
        ("log.txt", lambda text: "generate: kind=circle n=96\n", "[FAIL] log.txt"),
        ("log.txt", lambda text: text.replace("fit_qi: lam=", "fit_qi: lam=1"),
         "[FAIL] log.txt"),
        ("log.txt", lambda text: text.replace(" gamma=", " gamma=1"),
         "[FAIL] log.txt"),
        ("charseq.json", _edit_entry(("delta",), lambda x: x / 2),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("gamma",), lambda x: x / 2),
         "[FAIL] charseq.json"),
        # every color of this ladder covers, so lam is 0 and doubling it
        # would change nothing
        ("charseq.json", _edit_entry(("lam",), lambda x: 2 * x + 1),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "levels", 0, "separation"),
                                     lambda x: x * 2),
         "[FAIL] charseq.json"),
        ("charseq.json", _set_report(("provenance", "gamma_records"), []),
         "[FAIL] charseq.json"),
        # the build records, which verify used to echo unchecked
        ("charseq.json", _edit_entry(("provenance", "cascade", 0, "moat"),
                                     lambda x: x * 2),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "moats"),
                                     lambda m: [2 * m[0]] + m[1:]),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "dropped_members"),
                                     lambda x: x + 1),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "assumption_warnings"),
                                     lambda x: x[1:]),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "gamma_trace", "1"),
                                     lambda x: x + 1),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "base_delta"),
                                     lambda x: x / 2),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("provenance", "base_provenance", "levels",
                                      0, "separation"), lambda x: x * 2),
         "[FAIL] charseq.json"),
        ("charseq.json", _set_report(("provenance", "strategy"),
                                     "generic_greedy"),
         "[FAIL] charseq.json"),
        ("charseq.json", _edit_entry(("levels",), _drop_first_point),
         "[FAIL] charseq.json"),
        # equal in Python (0 == False, 1 == True, 2 == 2.0), not in the bytes
        ("qireport.json", _set_report(("qi", "violations"), False),
         "[FAIL] qireport.json"),
        ("qireport.json", _set_report(("sphere", "passed"), 1),
         "[FAIL] qireport.json"),
        ("charseq.json", _set_report(("colors",), 2.0), "[FAIL] charseq.json"),
        ("charseq.json", _set_report(("provenance", "cascade", 0, "identity"),
                                     1),
         "[FAIL] charseq.json"),
    ], ids=["ref_member", "t", "point_id", "radial.checks", "sphere.max_ratio",
            "qi.details", "config.depth", "config.r", "config.colors",
            "config.params.n", "config.params.unknown", "space.dist", "log.one_line",
            "log.fit_qi", "log.separate", "charseq.delta", "charseq.gamma",
            "charseq.lam", "charseq.provenance.levels",
            "charseq.provenance.gamma_records", "charseq.provenance.cascade",
            "charseq.provenance.moats", "charseq.provenance.dropped_members",
            "charseq.provenance.assumption_warnings",
            "charseq.provenance.gamma_trace", "charseq.provenance.base_delta",
            "charseq.provenance.base_provenance.levels",
            "charseq.provenance.strategy", "charseq.levels.member",
            "qi.violations.false", "sphere.passed.one", "charseq.colors.float",
            "charseq.provenance.cascade.identity.one"])
    def test_certified_field(self, tmp_path, small_bundle, capsys, name, edit,
                             fail_line):
        rc, out = self._verify(tmp_path, small_bundle, capsys, name, edit)
        assert rc == 1
        assert fail_line in out.out

    def test_ladder_without_cascade_refused(self, tmp_path, small_bundle,
                                            capsys):
        def drop_cascade(text):
            data = json.loads(text)
            del data["provenance"]["cascade"]
            return _stdlib(data)
        rc, out = self._verify(tmp_path, small_bundle, capsys, "charseq.json",
                               drop_cascade)
        assert rc == 1
        assert "[FAIL] charseq.json" in out.out

    @pytest.mark.parametrize("key, value", [
        ("depth", 7), ("colors", 9), ("bogus", 1), ("delta", None),
    ], ids=["depth", "colors", "unknown_key", "missing_key"])
    def test_charseq_shape_refused(self, tmp_path, small_bundle, capsys, key,
                                   value):
        def edit(text):
            data = json.loads(text)
            if value is None:
                del data[key]
            else:
                data[key] = value
            return _stdlib(data)
        rc, out = self._verify(tmp_path, small_bundle, capsys, "charseq.json",
                               edit)
        assert rc == 1
        assert "[FAIL] charseq.json" in out.out

    def test_unknown_config_key_refused(self, tmp_path, small_bundle, capsys):
        rc, out = self._verify(tmp_path, small_bundle, capsys, "config.json",
                               _set_report(("product_mode",), "l1"))
        assert rc == 1
        assert "unknown config keys: ['product_mode']" in out.err

    @pytest.mark.parametrize("field, value", [
        ("r", "0.125"), ("depth", "2"), ("tree_delta_check", 1),
    ])
    def test_ill_typed_config_refused(self, tmp_path, small_bundle, capsys,
                                      field, value):
        rc, out = self._verify(tmp_path, small_bundle, capsys, "config.json",
                               _set_report((field,), value))
        assert rc == 1
        assert out.out == ""
        assert out.err.startswith(f"error: config field {field} must be ")

    @pytest.mark.parametrize("text, shown", [
        ("[1]", "[1]"), ("5", "5"), ("null", "None"),
        ('"circle"', "'circle'"),
    ], ids=["list", "number", "null", "string"])
    def test_config_that_is_not_an_object_refused(
            self, tmp_path, small_bundle, capsys, text, shown):
        rc, out = self._verify(tmp_path, small_bundle, capsys, "config.json",
                               lambda _: text)
        assert rc == 1
        assert out.out == ""
        assert out.err == f"error: config must be a JSON object, got {shown}\n"

    @pytest.mark.parametrize("edit", [
        _set_report(("params", "n"), "96"), _set_report(("params",), [96]),
        _set_report(("generator",), "klein_bottle"),
    ], ids=["ill_typed", "not_an_object", "unknown_generator"])
    def test_config_that_generates_no_space(self, tmp_path, small_bundle,
                                            capsys, edit):
        rc, out = self._verify(tmp_path, small_bundle, capsys, "config.json",
                               edit)
        assert rc == 1
        assert out.out == "[FAIL] generate\n"
        assert "verification failed: [generate]" in out.err

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_file_set_compared(self, tmp_path, small_bundle, capsys, change):
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        if change == "missing":
            (bundle / "tree_1.csv").unlink()
        else:
            shutil.copy(bundle / "tree_1.csv", bundle / "tree_2.csv")
        rc = cli_main(["verify", "--bundle", str(bundle)])
        out = capsys.readouterr().out
        assert rc == 1
        assert {"missing": "[FAIL] tree_1.csv: missing from the bundle",
                "extra": "[FAIL] tree_2.csv: not written by the replay"}[
            change] in out


class TestOneMeasurement:
    """A ladder measures its levels once, and verify, a replay, measures
    what the pipeline measures."""

    def test_measured_once_per_ladder(self, tmp_path, monkeypatch, capsys):
        calls = []
        measure = char_seq._measure

        def counting(levels, r, margins):
            calls.append(margins)
            return measure(levels, r, margins)

        monkeypatch.setattr(char_seq, "_measure", counting)
        out = tmp_path / "bundle"
        run_pipeline(PipelineConfig(generator="circle", params={"n": 48},
                                    r=0.125, depth=2, colors=2,
                                    outdir=str(out)))
        assert calls == [False, True]
        calls.clear()
        assert cli_main(["verify", "--bundle", str(out)]) == 0
        assert calls == [False, True]

    @pytest.mark.parametrize("generator, params, depth", [
        ("circle", {"n": 192}, 4), ("random_circle", {"n": 160, "seed": 0}, 3),
    ], ids=["flagship", "cascade"])
    def test_pipeline_builds_no_pooled_family(self, generator, params, depth):
        result = run_pipeline(PipelineConfig(
            generator=generator, params=params, r=0.125, depth=depth,
            colors=2, tree_delta_check=False))
        for cov in (*result.base.levels, *result.charseq.levels):
            assert "pooled" not in vars(cov)

    def test_verify_measures_like_pipeline(self, tmp_path, monkeypatch,
                                           capsys):
        # level 1 is built, one family per color; level 2 is all singletons,
        # which the separated ladder holds as one family in both colors
        calls = []
        dist_rows = Family.dist_rows

        def counting(fam):
            calls.append(fam)
            return dist_rows(fam)

        monkeypatch.setattr(Family, "dist_rows", counting)
        out = tmp_path / "bundle"
        run_pipeline(PipelineConfig(
            generator="circle", params={"n": 320}, r=0.125, depth=2, colors=2,
            tree_delta_check=False, outdir=str(out)))
        pipeline_calls = len(calls)
        calls.clear()
        assert cli_main(["verify", "--bundle", str(out)]) == 0
        assert len(calls) == pipeline_calls

    def test_one_dist_rows_per_family(self, monkeypatch):
        # the cascade workload's separated ladder: 3 built levels x 2 colors
        seq = separate(build_base(generate("random_circle", n=160, seed=0),
                                  r=0.125, depth=3, colors=2))
        families = {id(f) for cov in seq.levels for f in cov.colors}
        calls = []
        dist_rows = Family.dist_rows

        def counting(fam):
            calls.append(id(fam))
            return dist_rows(fam)

        monkeypatch.setattr(Family, "dist_rows", counting)
        seq.measurement
        assert len(families) == 6
        assert sorted(calls) == sorted(families)
