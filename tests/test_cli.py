import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graffassoc import (
    ConsistencyParams,
    DistanceFn,
    LinePD,
    PairConfig,
    PlaneHesse,
    RigidTransform,
    Scan,
    SceneConfig,
    alignment_error,
    build_affinity,
    from_hesse,
    from_pd,
    generate_scene,
    load_scan,
    make_loop_pair,
    save_scan,
    to_hesse,
    to_pd,
    transform_line,
    transform_plane,
)
from graffassoc.cli import CSV_COLUMNS, _summary_doc, main, parse_campaign_config
from graffassoc.scene_sim import TIER_TABLE, CampaignConfig, TrialRecord, TrialResult
from graffassoc.scan_io import ScanFormatError


@pytest.fixture()
def loop_fixture(tmp_path):
    scene = generate_scene(SceneConfig(seed=7))
    pair = make_loop_pair(
        scene,
        PairConfig(
            baseline_m=8.0,
            overlap=1.0,
            clutter=5,
            noise_dir_rad=np.radians(0.5),
            noise_disp_m=0.05,
            seed=3,
        ),
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_scan(a, pair.scan_i)
    save_scan(b, pair.scan_j)
    return pair, a, b


class TestScanIO:
    def test_round_trip(self, tmp_path):
        scan = generate_scene(SceneConfig(seed=1))
        path = tmp_path / "scan.json"
        save_scan(path, scan)
        loaded = load_scan(path)
        assert loaded.id == scan.id
        assert len(loaded.objects) == len(scan.objects)
        for orig, back in zip(scan.objects, loaded.objects):
            assert orig.k == back.k
            assert np.allclose(orig.b0, back.b0, atol=1e-9)
        assert loaded.centroids is not None

    def test_newline_terminated(self, tmp_path):
        path = tmp_path / "scan.json"
        save_scan(path, Scan.from_elements("x", (from_pd(LinePD([0, 0, 1], [1, 0, 0])),)))
        assert path.read_bytes().endswith(b"\n")

    def test_norm_warning_beyond_tolerance(self, tmp_path):
        path = tmp_path / "scan.json"
        doc = {
            "schema": 1,
            "id": "w",
            "objects": [
                {"kind": "line", "line": {"direction": [0, 0, 1.01], "point": [0, 0, 0]}}
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            scan = load_scan(path)
        assert np.linalg.norm(scan.objects[0].A[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_mild_deviation_normalized_silently(self, tmp_path):
        import warnings

        path = tmp_path / "scan.json"
        doc = {
            "schema": 1,
            "id": "w",
            "objects": [
                {"kind": "line", "line": {"direction": [0, 0, 1.0000005], "point": [0, 0, 0]}}
            ],
        }
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_scan(path)


MALFORMED_CASES = [
    ("not_json", "this is not json {"),
    ("truncated", '{"schema": 1, "id": "x", "objects": ['),
    ("top_level_array", "[1, 2, 3]"),
    ("missing_schema", '{"id": "x", "objects": []}'),
    ("schema_wrong_type", '{"schema": "one", "id": "x", "objects": []}'),
    ("schema_unsupported", '{"schema": 2, "id": "x", "objects": []}'),
    ("missing_id", '{"schema": 1, "objects": []}'),
    ("id_not_string", '{"schema": 1, "id": 7, "objects": []}'),
    ("missing_objects", '{"schema": 1, "id": "x"}'),
    ("objects_not_list", '{"schema": 1, "id": "x", "objects": {}}'),
    ("object_not_dict", '{"schema": 1, "id": "x", "objects": [5]}'),
    ("missing_kind", '{"schema": 1, "id": "x", "objects": [{"line": {}}]}'),
    ("unknown_kind", '{"schema": 1, "id": "x", "objects": [{"kind": "sphere"}]}'),
    ("line_block_missing", '{"schema": 1, "id": "x", "objects": [{"kind": "line"}]}'),
    (
        "line_missing_point",
        '{"schema": 1, "id": "x", "objects": [{"kind": "line", "line": {"direction": [0,0,1]}}]}',
    ),
    (
        "direction_wrong_length",
        '{"schema": 1, "id": "x", "objects": [{"kind": "line", "line": {"direction": [0,1], "point": [0,0,0]}}]}',
    ),
    (
        "direction_not_numeric",
        '{"schema": 1, "id": "x", "objects": [{"kind": "line", "line": {"direction": ["a",0,1], "point": [0,0,0]}}]}',
    ),
    (
        "direction_nan",
        '{"schema": 1, "id": "x", "objects": [{"kind": "line", "line": {"direction": [NaN,0,1], "point": [0,0,0]}}]}',
    ),
    (
        "direction_zero",
        '{"schema": 1, "id": "x", "objects": [{"kind": "line", "line": {"direction": [0,0,0], "point": [0,0,0]}}]}',
    ),
    (
        "direction_boolean",
        '{"schema": 1, "id": "x", "objects": [{"kind": "line", "line": {"direction": [true,0,0], "point": [0,0,0]}}]}',
    ),
    (
        "plane_missing_d",
        '{"schema": 1, "id": "x", "objects": [{"kind": "plane", "plane": {"normal": [0,0,1]}}]}',
    ),
    (
        "plane_d_not_number",
        '{"schema": 1, "id": "x", "objects": [{"kind": "plane", "plane": {"normal": [0,0,1], "d": "two"}}]}',
    ),
    (
        "plane_d_boolean",
        '{"schema": 1, "id": "x", "objects": [{"kind": "plane", "plane": {"normal": [0,0,1], "d": false}}]}',
    ),
    (
        "plane_d_infinite",
        '{"schema": 1, "id": "x", "objects": [{"kind": "plane", "plane": {"normal": [0,0,1], "d": Infinity}}]}',
    ),
    (
        "centroid_wrong_length",
        '{"schema": 1, "id": "x", "objects": [{"kind": "plane", "plane": {"normal": [0,0,1], "d": 1}, "centroid": [1,2]}]}',
    ),
    (
        "centroids_partial",
        '{"schema": 1, "id": "x", "objects": ['
        '{"kind": "plane", "plane": {"normal": [0,0,1], "d": 1}, "centroid": [1,2,3]},'
        '{"kind": "plane", "plane": {"normal": [0,1,0], "d": 1}}]}',
    ),
]

# The loader's message for each case, after the "<path>: " prefix.
MALFORMED_MESSAGES = {
    "not_json": "invalid JSON at line 1 column 1: Expecting value",
    "truncated": "invalid JSON at line 1 column 38: Expecting value",
    "top_level_array": "top level must be an object",
    "missing_schema": "missing schema field",
    "schema_wrong_type": "unsupported schema 'one', expected 1",
    "schema_unsupported": "unsupported schema 2, expected 1",
    "missing_id": "id must be a string",
    "id_not_string": "id must be a string",
    "missing_objects": "objects must be a list",
    "objects_not_list": "objects must be a list",
    "object_not_dict": "objects[0] must be an object",
    "missing_kind": "objects[0] is missing the kind field",
    "unknown_kind": "objects[0].kind must be 'line' or 'plane', got 'sphere'",
    "line_block_missing": "objects[0].line must be an object with direction and point",
    "line_missing_point": "objects[0].line needs both direction and point",
    "direction_wrong_length": "objects[0].line.direction must be a list of 3 numbers",
    "direction_not_numeric": "objects[0].line.direction must contain numbers only",
    "direction_nan": "objects[0].line.direction must be finite",
    "direction_zero": "objects[0].line.direction has zero norm",
    "direction_boolean": "objects[0].line.direction must contain numbers only",
    "plane_missing_d": "objects[0].plane needs both normal and d",
    "plane_d_not_number": "objects[0].plane.d must be a number",
    "plane_d_boolean": "objects[0].plane.d must be a number",
    "plane_d_infinite": "objects[0].plane.d must be finite",
    "centroid_wrong_length": "objects[0].centroid must be a list of 3 numbers",
    "centroids_partial": "either all objects carry a centroid or none do",
}


class TestMalformedCorpus:
    @pytest.mark.parametrize("name,content", MALFORMED_CASES, ids=[c[0] for c in MALFORMED_CASES])
    def test_message_names_the_field(self, tmp_path, name, content):
        path = tmp_path / f"{name}.json"
        path.write_text(content)
        with pytest.raises(ScanFormatError) as err:
            load_scan(path)
        assert str(err.value) == f"{path}: {MALFORMED_MESSAGES[name]}"

    def test_first_bad_object_is_reported_after_earlier_warnings(self, tmp_path):
        path = tmp_path / "scan.json"
        objects = [
            {"kind": "plane", "plane": {"normal": [0, 0, 2], "d": 1}},
            {"kind": "line", "line": {"direction": [0, 1.5, 0], "point": [0, 0, 0]}},
            {"kind": "line", "line": {"direction": [0, 0, 1], "point": [0, False, 0]}},
            {"kind": "plane", "plane": {"normal": [1, 0, 0], "d": True}},
        ]
        path.write_text(json.dumps({"schema": 1, "id": "x", "objects": objects}))
        with pytest.warns(UserWarning) as record, pytest.raises(ScanFormatError) as err:
            load_scan(path)
        assert [str(w.message) for w in record] == [
            "objects[0].plane.normal norm 2 deviates from 1; renormalizing",
            "objects[1].line.direction norm 1.5 deviates from 1; renormalizing",
        ]
        assert str(err.value) == f"{path}: objects[2].line.point must contain numbers only"

    @pytest.mark.parametrize("name,content", MALFORMED_CASES, ids=[c[0] for c in MALFORMED_CASES])
    def test_loader_raises_with_diagnostics(self, tmp_path, name, content):
        path = tmp_path / f"{name}.json"
        path.write_text(content)
        with pytest.raises(ScanFormatError) as err:
            load_scan(path)
        assert str(err.value)

    @pytest.mark.parametrize("name,content", MALFORMED_CASES, ids=[c[0] for c in MALFORMED_CASES])
    def test_cli_exits_one_with_message(self, tmp_path, capsys, name, content):
        bad = tmp_path / f"{name}.json"
        bad.write_text(content)
        good = tmp_path / "good.json"
        save_scan(good, generate_scene(SceneConfig(n_lines=2, n_planes=2, seed=0)))
        assert main(["match", str(bad), str(good)]) == 1
        assert capsys.readouterr().err.strip()


class TestMatchCommand:
    def test_transformed_copy_verifies(self, loop_fixture, tmp_path):
        pair, a, b = loop_fixture
        out = tmp_path / "match.json"
        code = main(["match", str(a), str(b), "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "ok"
        assert doc["params"] == {
            "rho": 40.0,
            "epsilon": 0.2,
            "sigma": 0.02,
            "distance_fn": "graff_shifted",
        }
        est = RigidTransform(np.array(doc["rotation"]), np.array(doc["translation"]))
        err = alignment_error(est, pair.truth)
        assert err.rot_deg < 1.0 and err.trans_m < 0.5
        q = np.array(doc["quaternion_wxyz"])
        assert q[0] >= 0 and np.linalg.norm(q) == pytest.approx(1.0, abs=1e-9)
        assert out.read_bytes().endswith(b"\n")

    def test_round_trip_within_reported_residuals(self, loop_fixture, tmp_path):
        pair, a, b = loop_fixture
        out = tmp_path / "match.json"
        main(["match", str(a), str(b), "--output", str(out)])
        doc = json.loads(out.read_text())
        est = RigidTransform(np.array(doc["rotation"]), np.array(doc["translation"]))
        scan_a = load_scan(a)
        scan_b = load_scan(b)
        slack = 1e-9
        for ia, ib in doc["correspondences"]:
            el_a, el_b = scan_a.objects[ia], scan_b.objects[ib]
            if el_a.k == 1:
                moved = transform_line(to_pd(el_a), est)
                target = to_pd(el_b)
                angle = np.arccos(np.clip(abs(moved.a @ target.a), 0, 1))
                proj = np.eye(3) - np.outer(target.a, target.a)
                offset = np.linalg.norm(proj @ (moved.p - target.p))
            else:
                moved = transform_plane(to_hesse(el_a), est)
                target = to_hesse(el_b)
                dot = float(moved.n @ target.n)
                angle = np.arccos(np.clip(abs(dot), 0, 1))
                offset = abs(moved.d - np.sign(dot) * target.d)
            assert angle <= doc["residuals"]["max_direction_angle_rad"] + slack
            assert offset <= doc["residuals"]["max_offset_m"] + slack

    def test_too_few_objects_exit_two(self, tmp_path, capsys):
        small = Scan.from_elements(
            "tiny",
            (
                from_pd(LinePD([0, 0, 1], [0, 0, 0])),
                from_hesse(PlaneHesse([1, 0, 0], 2.0)),
            ),
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_scan(a, small)
        save_scan(b, small)
        code = main(["match", str(a), str(b), "--output", str(tmp_path / "m.json")])
        assert code == 2
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["status"] == "failed"
        assert doc["failure_reason"]

    @pytest.mark.parametrize("fn", ["euclidean_centroid", "gr_times_euclidean"])
    def test_centroid_fn_without_centroids_exit_one_with_no_candidates(self, tmp_path, capsys, fn):
        # A lines-only scan against a planes-only one, neither with centroids:
        # no same-kind pair, yet the centroid distance functions still refuse
        # the input (exit 1, no document), as they do when candidates exist.
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_scan(a, Scan.from_elements("lines", (from_pd(LinePD([0, 0, 1], [0, 0, 0])),)))
        save_scan(b, Scan.from_elements("planes", (from_hesse(PlaneHesse([1, 0, 0], 2.0)),)))
        assert main(["match", str(a), str(b), "--distance-fn", fn, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: scan 'lines' lacks centroid metadata required by this distance function\n"
        assert not out.exists()
        assert main(["match", str(a), str(b), "--output", str(out)]) == 2  # graff_shifted needs no centroids
        assert json.loads(out.read_text())["failure_reason"] == "only 0 correspondences found, need at least 3"

    def test_match_deterministic_bytes(self, loop_fixture, tmp_path):
        _, a, b = loop_fixture
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        main(["match", str(a), str(b), "--output", str(out1)])
        main(["match", str(a), str(b), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_alternative_distance_fn_flag(self, loop_fixture, tmp_path):
        _, a, b = loop_fixture
        out = tmp_path / "m.json"
        code = main(["match", str(a), str(b), "--distance-fn", "gr_only", "--output", str(out)])
        assert code in (0, 2)
        assert json.loads(out.read_text())["params"]["distance_fn"] == "gr_only"

    @pytest.mark.parametrize("flag", ["--epsilon", "--sigma", "--rho"])
    def test_nan_parameter_exit_one(self, loop_fixture, tmp_path, capsys, flag):
        _, a, b = loop_fixture
        out = tmp_path / "m.json"
        assert main(["match", str(a), str(b), flag, "nan", "--output", str(out)]) == 1
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--epsilon", "--sigma", "--rho"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
    def test_infinite_parameter_exit_one(self, loop_fixture, tmp_path, capsys, flag, value):
        # The library takes an infinite epsilon or rho, but the document would
        # echo it as Infinity, which strict JSON parsers reject.
        _, a, b = loop_fixture
        out = tmp_path / "m.json"
        assert main(["match", str(a), str(b), f"{flag}={value}", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag[2:]} must be finite, got {float(value)!r}\n"
        assert not out.exists()

    def test_underflowing_sigma_exit_one(self, loop_fixture, tmp_path, capsys):
        _, a, b = loop_fixture
        out = tmp_path / "m.json"
        assert main(["match", str(a), str(b), "--sigma", "1e-170", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sigma" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_kernel_exponent_is_its_limit(self, loop_fixture, tmp_path):
        # sigma = 1e-160 squares to a positive float, but -(C * C) / (2 sigma^2)
        # overflows to -inf for any score C above about 1e-154: the weight is
        # then exp(-inf) = 0, the kernel's limit, taken without a warning.  On
        # this noisy pair every score is nonzero, so M is the identity and one
        # candidate is selected: the match is written and fails verification.
        _, a, b = loop_fixture
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["match", str(a), str(b), "--sigma", "1e-160", "--output", str(out)]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["params"]["sigma"] == 1e-160 and doc["status"] == "failed"
        assert doc["objective"] == 1.0 and len(doc["correspondences"]) == 1

    @pytest.mark.parametrize("rho", [1e-320, 1e-200])
    def test_tiny_rho_gives_a_finite_affinity(self, loop_fixture, tmp_path, rho):
        # At rho = 1e-320, distances / rho overflow to inf and two of them
        # subtract to NaN; at 1e-200 the score's square overflows.  Either
        # way the pair is gated to 0 and arctan(inf) = pi/2, without a
        # warning, so M stays finite and the match is written.
        pair, a, b = loop_fixture
        out = tmp_path / "m.json"
        params = ConsistencyParams(rho=rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for fn in DistanceFn:
                M, _ = build_affinity(pair.scan_i, pair.scan_j, params, fn)
                assert np.isfinite(M).all() and M.min() >= 0.0 and M.max() <= 1.0, fn
                assert M.tobytes() == M.T.tobytes(), fn
                args = ["match", str(a), str(b), "--rho", repr(rho), "--distance-fn", fn.value]
                assert main([*args, "--output", str(out)]) in (0, 2), fn

    def test_missing_file_exit_one(self, tmp_path, capsys):
        good = tmp_path / "g.json"
        save_scan(good, generate_scene(SceneConfig(n_lines=2, n_planes=2, seed=1)))
        assert main(["match", str(tmp_path / "absent.json"), str(good)]) == 1
        assert capsys.readouterr().err


class TestDistanceCommand:
    def test_same_index_zero(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scan(path, generate_scene(SceneConfig(n_lines=2, n_planes=2, seed=2)))
        assert main(["distance", str(path), "1", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("distance_rad 0")

    def test_parallel_lines_fixture(self, tmp_path, capsys):
        scan = Scan.from_elements(
            "fix",
            (from_pd(LinePD([0, 0, 1], [0, 0, 0])), from_pd(LinePD([0, 0, 1], [1, 0, 0]))),
        )
        path = tmp_path / "fix.json"
        save_scan(path, scan)
        assert main(["distance", str(path), "0", "1", "--rho", "1"]) == 0
        out = capsys.readouterr().out
        assert "distance_rad 0.785398163397" in out

    def test_shared_directions_give_exact_zero_angles(self, tmp_path, capsys):
        # antiparallel lines, and two planes (which always share a direction) that meet
        d = np.array([0.1, 0.2, 0.7])
        scan = Scan.from_elements(
            "zero",
            (
                from_pd(LinePD(d, [0, 0, 0])),
                from_pd(LinePD(-d, [1, 0, 0])),
                from_hesse(PlaneHesse([0.3, -0.4, 0.5], 2.0)),
                from_hesse(PlaneHesse([1.0, 2.0, 3.0], -1.0)),
            ),
        )
        path = tmp_path / "zero.json"
        save_scan(path, scan)
        for a, b in (("0", "1"), ("2", "3")):
            assert main(["distance", str(path), a, b]) == 0
            angles = capsys.readouterr().out.splitlines()[1].split()[1:]
            assert len(angles) == (2 if a == "0" else 3)
            assert angles[:-1] == ["0"] * (len(angles) - 1)

    def test_line_vs_plane_two_angles(self, tmp_path, capsys):
        scan = Scan.from_elements(
            "mix",
            (from_pd(LinePD([0, 0, 1], [3, 4, 0])), from_hesse(PlaneHesse([1, 0, 0], 2.0))),
        )
        path = tmp_path / "mix.json"
        save_scan(path, scan)
        assert main(["distance", str(path), "0", "1"]) == 0
        out = capsys.readouterr().out
        angles = out.splitlines()[1].split()[1:]
        assert len(angles) == 2

    def test_out_of_range_index(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scan(path, generate_scene(SceneConfig(n_lines=1, n_planes=1, seed=3)))
        assert main(["distance", str(path), "0", "5"]) == 1
        assert capsys.readouterr().err

    def test_nan_rho_exit_one(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scan(path, generate_scene(SceneConfig(n_lines=1, n_planes=1, seed=3)))
        assert main(["distance", str(path), "0", "1", "--rho", "nan"]) == 1
        assert "rho must be positive" in capsys.readouterr().err


class TestBenchCommand:
    def _write_config(self, path, **overrides):
        base = {
            "seed": 5,
            "trials": 2,
            "tiers": "easy",
            "distance_fns": "graff_shifted",
            "n_lines": 3,
            "n_planes": 8,
            "clutter": 2,
        }
        base.update(overrides)
        path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))

    def test_outputs_and_schema(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        self._write_config(cfg)
        out = tmp_path / "out"
        assert main(["bench", str(cfg), "--out", str(out)]) == 0
        csv_text = (out / "results.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == \
            1 + 2  # header + trials
        assert csv_text.endswith("\n")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"][0]["distance_fn"] == "graff_shifted"
        assert "easy" in summary["results"][0]["tiers"]

    def test_worker_independence_modulo_timing(self, tmp_path):
        cfg = tmp_path / "c.txt"
        self._write_config(cfg)
        outs = []
        for workers, name in ((1, "w1"), (2, "w2")):
            out = tmp_path / name
            assert main(["bench", str(cfg), "--out", str(out), "--workers", str(workers)]) == 0
            outs.append(out)

        def canonical_csv(path):
            rows = [line.split(",") for line in (path / "results.csv").read_text().splitlines()]
            return [row[:-1] for row in rows]  # duration_s is the last column

        assert canonical_csv(outs[0]) == canonical_csv(outs[1])

        def canonical_summary(path):
            doc = json.loads((path / "summary.json").read_text())
            for row in doc["results"]:
                row.pop("timing_mean_s")
                row.pop("timing_std_s")
            return doc

        assert canonical_summary(outs[0]) == canonical_summary(outs[1])

    def test_ablation_config_gives_five_rows(self, tmp_path):
        cfg = tmp_path / "c.txt"
        self._write_config(
            cfg,
            trials=1,
            distance_fns="graff_shifted,gr_only,euclidean_centroid,gr_times_euclidean,normal_dot_direction",
        )
        out = tmp_path / "out"
        assert main(["bench", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["results"]) == 5

    def test_summary_echoes_every_config_key(self, tmp_path):
        cfg = tmp_path / "c.txt"
        self._write_config(cfg, trials=1, overlap_hard=0.6, target_mean=30)
        out = tmp_path / "out"
        assert main(["bench", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["overlap_hard"] == 0.6 and config["target_mean"] == 30.0
        assert config["overlap_easy"] == 0.9 and config["centroid_extent"] == 5.0
        assert config["tiers"] == ["easy"] and config["distance_fns"] == ["graff_shifted"]

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("unknown_key = 5\n")
        assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("clutter", "-1", "baseline and clutter must be nonnegative and finite"),
            ("overlap_hard", "1.5", r"overlap must lie in \[0, 1\]"),
            ("n_lines", "-2", "object counts must be nonnegative"),
            ("noise_disp_m", "-0.1", "noise levels must be nonnegative and finite"),
            ("rho", "-1", "epsilon, sigma and rho must all be positive"),
            ("sigma", "1e-170", "sigma must square to a positive float, got 1e-170"),
            ("noise_dir_deg", "nan", "noise levels must be nonnegative and finite"),
            ("rho", "inf", "rho must be finite, got inf"),
            ("epsilon", "inf", "epsilon must be finite, got inf"),
            ("sigma", "1e400", "sigma must be finite, got inf"),
            ("tiers", "", "tiers must name at least one value"),
            ("distance_fns", "", "distance_fns must name at least one value"),
            ("tiers", "easy, hard, easy", "tiers must not repeat a value: 'easy'"),
            ("distance_fns", "graff_shifted, gr_only, graff_shifted", "distance_fns must not repeat a value: 'graff_shifted'"),
        ],
        ids=[
            "clutter", "overlap_hard", "n_lines", "noise_disp_m", "rho", "sigma", "noise_dir_deg",
            "infinite_rho", "infinite_epsilon", "infinite_sigma", "no_tiers", "no_distance_fns",
            "repeated_tier", "repeated_distance_fn",
        ],
    )
    def test_bad_config_value_fails_before_any_trial(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "c.txt"
        self._write_config(cfg, **{"tiers": "easy,medium,hard", key: value})
        out = tmp_path / "o"
        assert main(["bench", str(cfg), "--out", str(out)]) == 1
        assert re.fullmatch(f"error: {re.escape(str(cfg))}: {message}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "# campaign\nseed = 9\ntrials = 4\ntiers = easy, hard\n"
            "distance_fns = graff_shifted\nnoise_dir_deg = 0.25\n"
        )
        parsed = parse_campaign_config(cfg)
        assert parsed.seed == 9
        assert parsed.trials == 4
        assert parsed.tiers == ("easy", "hard")
        assert parsed.noise_dir_deg == 0.25

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        self._write_config(cfg)
        blocked = tmp_path / "file"
        blocked.write_text("x")
        assert main(["bench", str(cfg), "--out", str(blocked / "sub")]) == 1


def _campaign_value(default):
    """Text for a campaign value of `default`'s type: mostly plausible, with infinities, NaN and junk."""
    if isinstance(default, tuple):
        names = [*TIER_TABLE, *(fn.value for fn in DistanceFn), "bogus"]
        return st.lists(st.sampled_from(names), max_size=3).map(",".join)
    if isinstance(default, int):
        return st.integers(-2, 60).map(str)
    special = st.sampled_from(["inf", "-inf", "1e400", "nan", "Infinity", "0", "1e-170"])
    return st.one_of(st.floats(0.0, 1.0).map(repr), st.floats().map(repr), special)


_CAMPAIGN_DEFAULTS = {field.name: field.default for field in dataclasses.fields(CampaignConfig)}
_CAMPAIGN_LINES = st.one_of(
    *(_campaign_value(value).map(lambda text, key=key: f"{key} = {text}") for key, value in _CAMPAIGN_DEFAULTS.items()),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


class TestCampaignFileProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_CAMPAIGN_LINES, max_size=8))
    def test_a_campaign_file_is_refused_or_echoed_as_standard_json(self, lines):
        # Every file either fails to parse with a ValueError or gives a config
        # whose summary document, config echo included, is standard JSON.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                cfg = parse_campaign_config(path)
            except ValueError:
                return
        failed = TrialResult(0, (), 0, 0.0, 0.0, 0.0, False, True, None, 0.0)
        records = [TrialRecord("0.0.0", tier, fn, 0, failed) for tier in cfg.tiers for fn in cfg.distance_fns]
        config = json.loads(json.dumps(_summary_doc(cfg, records), allow_nan=False))["config"]
        echoed = {key: getattr(cfg, key) for key in _CAMPAIGN_DEFAULTS}
        assert config == echoed | {"tiers": list(cfg.tiers), "distance_fns": [fn.value for fn in cfg.distance_fns]}


class TestUsage:
    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_arguments(self, capsys):
        assert main(["match"]) == 1

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        # `python -m graffassoc.cli` runs the same CLI as the console script.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "graffassoc.cli", "bench", str(tmp_path / "nonexistent.txt"), "--out", "x"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert not (tmp_path / "x").exists()
