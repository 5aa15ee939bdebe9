import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panotrack.cli import main
from panotrack.detect import RoiConfig, TilesConfig
from panotrack.geometry import CameraModel
from panotrack.io import read_jsonl
from panotrack.pipeline import STRATEGIES
from panotrack.sim import MIN_AGENT_RANGE, scenario_from_dict
from panotrack.tracker import TrackerConfig

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def readme_block(name):
    """A block of the README's run-config reference, such as "tracker"."""
    text = (ROOT / "README.md").read_text()
    start = text.index("{", text.index(f'"{name}": {{'))
    return json.loads(text[start : text.index("}", start) + 1])


def short_scenario(tmp_path, duration=2.0, noise=1.0, name="short.json"):
    with open(SCENARIOS / "circle_2m.json") as fh:
        d = json.load(fh)
    d["duration"] = duration
    d["noise"]["joint_sigma"] = noise
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path


def offline_config(tmp_path, detections_path, camera=None):
    path = tmp_path / "offline.json"
    path.write_text(json.dumps({"detections": str(detections_path), "camera": camera or {}}))
    return path


def run_config(tmp_path, scenario_path, strategy="tiles", extra=None):
    cfg = {"scenario": str(scenario_path), "strategy": strategy}
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_circle_2m_produces_300_records(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--scenario", str(SCENARIOS / "circle_2m.json"), "--out", str(out)]
        )
        assert rc == 0
        records = list(read_jsonl(str(out / "ground_truth.jsonl")))
        assert len(records) == 300
        assert (out / "scenario.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "simulate",
                        "--scenario",
                        str(SCENARIOS / "circle_2m.json"),
                        "--out",
                        str(out),
                        "--seed",
                        "7",
                    ]
                )
                == 0
            )
            outs.append((out / "ground_truth.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", "--scenario", "nope.json", "--out", str(tmp_path)]) == 2

    def test_malformed_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"fps": 30,,}')
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


class TestTrack:
    @pytest.mark.parametrize("strategy", ["tiles", "roi", "fullframe"])
    def test_strategies_produce_tracks(self, tmp_path, strategy):
        scenario = short_scenario(tmp_path)
        out = tmp_path / strategy
        cfg = run_config(tmp_path, scenario, strategy)
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 0
        tracks = list(read_jsonl(str(out / "tracks.jsonl")))
        dets = list(read_jsonl(str(out / "detections.jsonl")))
        assert len(tracks) == len(dets) == 60
        last = tracks[-1]["tracks"]
        assert any(t["is_target"] for t in last)
        record = last[0]
        assert set(record) == {
            "id",
            "x",
            "y",
            "h",
            "img_x",
            "img_y",
            "status",
            "is_target",
        }

    def test_deterministic_given_seed(self, tmp_path):
        scenario = short_scenario(tmp_path)
        cfg = run_config(tmp_path, scenario)
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["track", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
            blobs.append(
                (out / "detections.jsonl").read_bytes()
                + (out / "tracks.jsonl").read_bytes()
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "tiles",
        [
            {"merge_threshold": "0.9"},
            {"n_tiles": "3"},
            {"merge_threshold": 1.5},
            {"parallel": True},
        ],
        ids=["threshold_string", "n_tiles_string", "threshold_above_1", "parallel_key"],
    )
    def test_invalid_tiles_config_exits_2(self, tmp_path, tiles):
        scenario = short_scenario(tmp_path)
        cfg = run_config(tmp_path, scenario, extra={"tiles": tiles})
        out = tmp_path / "o"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "tracks.jsonl").exists()  # rejected before the first frame

    def test_offline_detections_input(self, tmp_path):
        scenario = short_scenario(tmp_path)
        first = tmp_path / "first"
        cfg = run_config(tmp_path, scenario)
        assert main(["track", "--config", str(cfg), "--out", str(first)]) == 0

        offline_cfg = tmp_path / "offline.json"
        offline_cfg.write_text(
            json.dumps(
                {
                    "detections": str(first / "detections.jsonl"),
                    "camera": json.loads((SCENARIOS / "circle_2m.json").read_text())["cam"],
                }
            )
        )
        out = tmp_path / "offline"
        assert main(["track", "--config", str(offline_cfg), "--out", str(out)]) == 0
        tracks = list(read_jsonl(str(out / "tracks.jsonl")))
        assert len(tracks) == 60
        assert any(t["is_target"] for t in tracks[-1]["tracks"])

    def test_non_finite_joint_exits_2(self, tmp_path, capsys):
        # orjson rejects the NaN line, so Python's json reads it
        scenario = short_scenario(tmp_path)
        first = tmp_path / "first"
        assert main(["track", "--scenario", str(scenario), "--out", str(first)]) == 0
        records = list(read_jsonl(str(first / "detections.jsonl")))
        joints = records[40]["detections"][0]["joints"]
        joints["left_ankle"][1] = float("nan")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        cfg = tmp_path / "offline.json"
        cfg.write_text(
            json.dumps(
                {
                    "detections": str(bad),
                    "camera": json.loads((SCENARIOS / "circle_2m.json").read_text())["cam"],
                }
            )
        )
        out = tmp_path / "offline"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert re.search(
            r"detections record 41: joint coordinates must be finite, got \(\S+, nan\)$",
            capsys.readouterr().err,
            re.M,
        )
        for name in ("detections.jsonl", "tracks.jsonl"):
            assert "NaN" not in (out / name).read_text()

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"t": 0.0, "detections": []}', "detections record 1: frame must be an integer"),
            ('{"frame": 0, "t": "x", "detections": []}', "detections record 1: t must be a finite"),
            ("[1, 2]", "bad.jsonl:1: expected a JSON object"),
            ('{"frame": 0, "t": 0.0, "detections": {}}', "detections record 1: malformed"),
            (
                '{"frame": 0, "t": 0.0, "detections": [{"joints": {}}]}',
                "detections record 1: skeleton has no joints",
            ),
            (
                '{"frame": 4, "t": 0.0, "detections": []}\n{"frame": 4, "t": 0.1, "detections": []}',
                "detections record 2: frame 4 does not follow frame 4",
            ),
            (
                '{"frame": 4, "t": 0.0, "detections": []}\n{"frame": 3, "t": 0.1, "detections": []}',
                "detections record 2: frame 3 does not follow frame 4",
            ),
            (
                '{"frame": 0, "t": 0.0, "detections": [{"joints": {"neck": [1%s, 5]}}]}' % ("0" * 400),
                "detections record 1: malformed detection record",
            ),
            (
                '{"frame": 4, "t": 0.1, "detections": []}\n{"frame": 5, "t": 0.1, "detections": []}',
                "detections record 2: t 0.1 does not follow t 0.1",
            ),
            (
                '{"frame": 4, "t": 0.2, "detections": []}\n{"frame": 5, "t": 0.1, "detections": []}',
                "detections record 2: t 0.1 does not follow t 0.2",
            ),
            (
                '{"frame": 0, "t": -1e308, "detections": [{"joints": {"neck": [960, 420]}}]}\n'
                '{"frame": 1, "t": 1e308, "detections": [{"joints": {"neck": [960, 420]}}]}',
                "detections record 2: dt must be a finite number > 0, got inf",
            ),
            (
                '{"frame": 0, "t": 0.0, "detections": []}\n'
                '{"frame": 1, "t": 0.1, "detections": [{"joints": {"neck": [960, 5000]}}]}',
                "detections record 2: joint row 5000 is outside the image rows [0, 960]",
            ),
            (
                '{"frame": 0, "t": 0.0, "detections": [{"joints": {"left_ankle": [960, -0.5]}}]}',
                "detections record 1: joint row -0.5 is outside the image rows [0, 960]",
            ),
            # whitespace that JSON does not allow: a line of it is not blank
            ('{"frame": 0, "t": 0.0, "detections": []}\n\x0c', "bad.jsonl:2: invalid JSON: Expecting value"),
            ('\x1c{"frame": 0, "t": 0.0, "detections": []}', "bad.jsonl:1: invalid JSON: Expecting value"),
        ],
        ids=[
            "no_frame", "string_t", "not_an_object", "detections_object", "empty_joints",
            "repeated_frame", "decreasing_frame", "huge_integer_column", "repeated_t",
            "decreasing_t", "infinite_time_step", "row_below_image", "row_above_image",
            "form_feed_line", "file_separator_first",
        ],
    )
    def test_malformed_detections_record_exits_2(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["track", "--config", str(offline_config(tmp_path, bad)), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        # the bad record is never tracked: only the records before it are written
        assert len((out / "tracks.jsonl").read_text().splitlines()) == line.count("\n")

    @pytest.mark.parametrize("where", ["detections_line", "config_file"])
    def test_deep_nesting_that_only_json_reads_exits_2(self, tmp_path, capsys, where):
        # orjson rejects the NaN, and Python's json meets its recursion
        # limit in the 1200 nested arrays
        note = '"note": [NaN, ' + "[" * 1200 + "]" * 1200 + "]"
        bad = tmp_path / "bad.jsonl"
        cfg = tmp_path / "offline.json"
        if where == "detections_line":
            bad.write_text('{"frame": 0, "t": 0.0, "detections": [], ' + note + "}\n")
            cfg.write_text(json.dumps({"detections": str(bad), "camera": {}}))
            message = f"error: {bad}:1: invalid JSON: nested past the recursion limit\n"
        else:
            bad.write_text(json.dumps({"frame": 0, "t": 0.0, "detections": []}) + "\n")
            cfg.write_text(json.dumps({"detections": str(bad), "camera": {}})[:-1] + ", " + note + "}")
            message = f"error: {cfg}: invalid JSON: nested past the recursion limit\n"
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.endswith(message)

    def test_gaps_in_frame_numbers_are_allowed(self, tmp_path):
        records = tmp_path / "gaps.jsonl"
        records.write_text(
            "".join(
                json.dumps({"frame": frame, "t": frame / 30, "detections": []}) + "\n"
                for frame in (0, 2, 7)
            )
        )
        out = tmp_path / "out"
        assert main(["track", "--config", str(offline_config(tmp_path, records)), "--out", str(out)]) == 0
        frames = [r["frame"] for r in read_jsonl(str(out / "tracks.jsonl"))]
        assert frames == [0, 2, 7]

    @pytest.mark.parametrize(
        "camera",
        [
            {"image_width": "1920"},
            {"image_height": 960.0},
            {"image_width": True},
            {"mount_height": float("inf")},
            {"fov_h": "360"},
            {"fov_h": 180},
        ],
        ids=["string_width", "float_height", "bool_width", "inf_mount_height", "string_fov", "fov_180"],
    )
    def test_invalid_camera_exits_2(self, tmp_path, camera):
        scenario = short_scenario(tmp_path)
        first = tmp_path / "first"
        assert main(["track", "--scenario", str(scenario), "--out", str(first)]) == 0
        cfg = offline_config(tmp_path, first / "detections.jsonl", camera)
        out = tmp_path / "offline"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "tracks.jsonl").exists()
        assert not (out / "detections.jsonl").exists()

        camera_file = tmp_path / "camera.json"
        camera_file.write_text(json.dumps(camera))
        sens = tmp_path / "sens"
        assert main(["sensitivity", "--camera", str(camera_file), "--out", str(sens)]) == 2
        assert not (sens / "sensitivity.csv").exists()

    def test_both_inputs_rejected(self, tmp_path):
        scenario = short_scenario(tmp_path)
        cfg = tmp_path / "both.json"
        cfg.write_text(
            json.dumps({"scenario": str(scenario), "detections": "x.jsonl"})
        )
        assert main(["track", "--config", str(cfg)]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        scenario = short_scenario(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": str(scenario), "stratgey": "tiles"}))
        assert main(["track", "--config", str(cfg)]) == 2

    def test_tracker_overrides_apply(self, tmp_path):
        scenario = short_scenario(tmp_path)
        cfg = run_config(
            tmp_path,
            scenario,
            extra={"tracker": {"wrap_correction": False, "gate_px": 80.0}},
        )
        out = tmp_path / "custom"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "block, cls, strategy",
        [
            ("tiles", TilesConfig, "tiles"),
            ("roi", RoiConfig, "roi"),
            ("tracker", TrackerConfig, "tiles"),
        ],
    )
    def test_every_documented_config_key_accepted(self, tmp_path, block, cls, strategy):
        documented = readme_block(block)
        assert set(documented) == {f.name for f in dataclasses.fields(cls)}
        scenario = SCENARIOS / "seam_walker.json"
        cfg = run_config(tmp_path, scenario, strategy, extra={block: documented})
        out = tmp_path / "documented"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 0
        # the README shows the defaults, so the output matches a bare run
        bare = tmp_path / "bare"
        cfg = run_config(tmp_path, scenario, strategy)
        assert main(["track", "--config", str(cfg), "--out", str(bare)]) == 0
        for name in ("tracks.jsonl", "detections.jsonl"):
            assert (out / name).read_bytes() == (bare / name).read_bytes()

    def test_unknown_tracker_key_rejected(self, tmp_path):
        scenario = short_scenario(tmp_path)
        # the tracker block is flat: "ukf" is no key of it
        for tracker in ({"gate": 80.0}, {"ukf": {}}):
            cfg = run_config(tmp_path, scenario, extra={"tracker": tracker})
            assert main(["track", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("gate", ["9", True, -1.0])
    def test_invalid_mahalanobis_gate_exits_2(self, tmp_path, gate):
        scenario = short_scenario(tmp_path)
        cfg = run_config(tmp_path, scenario, extra={"tracker": {"mahalanobis_gate": gate}})
        out = tmp_path / "o"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "tracks.jsonl").exists()

    @pytest.mark.parametrize("flag", ["false", 1, None])
    def test_non_bool_wrap_correction_exits_2(self, tmp_path, flag):
        # a non-empty string is truthy: "false" used to run with the correction on
        scenario = short_scenario(tmp_path)
        cfg = run_config(tmp_path, scenario, extra={"tracker": {"wrap_correction": flag}})
        out = tmp_path / "o"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "tracks.jsonl").exists()

    def test_missing_detections_input_leaves_old_outputs(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        earlier = {"tracks.jsonl": b'{"frame": 0}\n', "detections.jsonl": b'{"frame": 1}\n'}
        for name, data in earlier.items():
            (out / name).write_bytes(data)
        cfg = tmp_path / "offline.json"
        cfg.write_text(json.dumps({"detections": str(tmp_path / "missing.jsonl")}))
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        for name, data in earlier.items():
            assert (out / name).read_bytes() == data

    @pytest.mark.parametrize(
        "tracker",
        [
            '{"initial_variance": [1e400, 1e400, 1e400, 1e400, 1e400]}',
            '{"process_noise": [1e400, 1e400, 1e400, 1e400, 1e400]}',
            '{"measurement_noise": 1e400}',
            '{"alpha": 1e400}',
            '{"initial_variance": [-1, -1, -1, -1, -1]}',
            '{"initial_variance": ["a", "a", "a", "a", "a"]}',
            '{"confirm_hits": 2.5}',
            '{"initial_variance": [1e100, 1e100, 1e100, 1e100, 1e100]}',
            '{"initial_variance": [1e300, 1e300, 1e300, 1e300, 1e300]}',
        ],
        ids=[
            "inf_initial_variance",
            "inf_process_noise",
            "inf_measurement_noise",
            "inf_alpha",
            "negative_initial_variance",
            "string_initial_variance",
            "fractional_confirm_hits",
            "initial_variance_1e100",
            "initial_variance_1e300",
        ],
    )
    def test_invalid_tracker_number_exits_2(self, tmp_path, tracker):
        # JSON reads 1e400 as infinity; the config text is written raw
        scenario = short_scenario(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"scenario": {json.dumps(str(scenario))}, "tracker": {tracker}}}')
        out = tmp_path / "o"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "tracks.jsonl").exists()
        for written in out.iterdir():
            text = written.read_text()
            assert "NaN" not in text and "Infinity" not in text

    def test_initial_variance_at_its_bound_runs(self, tmp_path):
        scenario = short_scenario(tmp_path)
        cfg = run_config(tmp_path, scenario, extra={"tracker": {"initial_variance": [1e6] * 5}})
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "roi", [{"roi_height": 2000}, {"roi_width": 4000}, {"full_width": 4000}]
    )
    @pytest.mark.parametrize("strategy", ["roi", "fullframe"])
    def test_roi_sizes_beyond_camera_exit_2(self, tmp_path, roi, strategy):
        scenario = short_scenario(tmp_path)
        cfg = run_config(tmp_path, scenario, strategy=strategy, extra={"roi": roi})
        out = tmp_path / "o"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "tracks.jsonl").exists()
        assert not (out / "detections.jsonl").exists()


class TestEval:
    def test_end_to_end_report(self, tmp_path, capsys):
        scenario = short_scenario(tmp_path, duration=3.0)
        sim_out = tmp_path / "sim"
        trk_out = tmp_path / "trk"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(sim_out)]) == 0
        cfg = run_config(tmp_path, scenario)
        assert main(["track", "--config", str(cfg), "--out", str(trk_out)]) == 0
        assert (
            main(
                [
                    "eval",
                    "--gt",
                    str(sim_out / "ground_truth.jsonl"),
                    "--tracks",
                    str(trk_out / "tracks.jsonl"),
                    "--out",
                    str(tmp_path / "eval"),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["m2"] == 1.0
        assert report["m1"] > 0.9  # warm-up frames are annotated in this scenario
        assert report["m3"] < 0.1
        csv = (tmp_path / "eval" / "error_vs_distance.csv").read_text().splitlines()
        assert csv[0] == "bin_center_m,mean_error_m,count,miss_rate"
        assert "m2=1.0000" in capsys.readouterr().out

    def test_frame_mismatch_exits_2(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            json.dumps(
                {"frame": 0, "t": 0.0, "agents": [{"id": 0, "x": 2, "y": 0, "is_target": True}]}
            )
            + "\n"
        )
        tracks = tmp_path / "tracks.jsonl"
        tracks.write_text(json.dumps({"frame": 5, "t": 0.1, "tracks": []}) + "\n")
        assert (
            main(["eval", "--gt", str(gt), "--tracks", str(tracks), "--out", str(tmp_path)])
            == 2
        )


class TestSensitivity:
    def test_curve_values(self, tmp_path):
        out = tmp_path / "sens"
        assert (
            main(
                [
                    "sensitivity",
                    "--distances",
                    "2,4,6",
                    "--pixel-errors",
                    "0,5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "distance_m,pixel_error_px,error_m"
        rows = [line.split(",") for line in lines[1:]]
        zero_rows = [r for r in rows if r[1] == "0.0"]
        assert all(abs(float(r[2])) < 1e-9 for r in zero_rows)
        five = {float(r[0]): float(r[2]) for r in rows if r[1] == "5.0"}
        assert five[2.0] == pytest.approx(0.0799, abs=0.0005)
        assert five[2.0] < five[4.0] < five[6.0]

    def test_bad_distances_exit_2(self, tmp_path):
        assert (
            main(["sensitivity", "--distances", "a,b", "--out", str(tmp_path)]) == 2
        )

    @pytest.mark.parametrize(
        "flag,values",
        [
            ("--distances", "1,nan,inf"),
            ("--distances", "2,inf"),
            ("--distances", "-1"),
            ("--distances", "0"),
            ("--pixel-errors", "-1"),
            ("--pixel-errors", "1,nan"),
            ("--pixel-errors", "inf"),
        ],
    )
    def test_bad_numbers_exit_2(self, tmp_path, flag, values):
        # a distance must be finite and > 0, a pixel error finite and >= 0
        out = tmp_path / "sens"
        assert main(["sensitivity", flag, values, "--out", str(out)]) == 2
        assert not (out / "sensitivity.csv").exists()


# one-field edits of circle_2m, made 1 s long: (key path, JSON value text)
TRAJECTORY = ("agents", 0, "trajectory")
SCENARIO_EDITS = {
    "occlusion_string": (("noise", "occlusion_enabled"), '"false"'),
    "nan_joint_sigma": (("noise", "joint_sigma"), "NaN"),
    "nan_min_person_pixels": (("detect_cfg", "min_person_pixels"), "NaN"),
    "inf_fps": (("fps",), "Infinity"),
    "nan_duration": (("duration",), "NaN"),
    # 0.3 frames at 30 fps: a duration > 0 that rounds to no frame
    "zero_frame_duration": (("duration",), "0.01"),
    "string_seed": (("seed",), '"x"'),
    "fractional_seed": (("seed",), "1.5"),
    "nan_radius": ((*TRAJECTORY, "radius"), "NaN"),
    "inf_angular_speed": ((*TRAJECTORY, "angular_speed"), "Infinity"),
    "fractional_annotate_every": (("annotate_every",), "1.5"),
    # a narrower image would mirror people across the camera
    "narrow_fov_h": (("cam", "fov_h"), "180"),
}
# run-config edits: (strategy, key path, JSON value text)
RUN_CONFIG_EDITS = {
    "string_run_seed": ("tiles", ("seed",), '"x"'),
    "fractional_run_seed": ("tiles", ("seed",), "1.7"),
    "nan_roi_width": ("roi", ("roi", "roi_width"), "NaN"),
    "nan_roi_height": ("roi", ("roi", "roi_height"), "NaN"),
    "nan_full_width": ("fullframe", ("roi", "full_width"), "NaN"),
    "bool_full_width": ("fullframe", ("roi", "full_width"), "true"),
    "int_scenario": ("tiles", ("scenario",), "7"),
    "list_scenario": ("tiles", ("scenario",), '["scenario.json"]'),
    "empty_scenario": ("tiles", ("scenario",), '""'),
    "int_detections": ("tiles", ("detections",), "3"),
    "list_detections": ("tiles", ("detections",), '["detections.jsonl"]'),
    "int_out": ("tiles", ("out",), "5"),
    "empty_out": ("tiles", ("out",), '""'),
}
OUTPUTS = {
    "track": ("tracks.jsonl", "detections.jsonl"),
    "simulate": ("ground_truth.jsonl", "scenario.json"),
}


def edited_json(d, path, value):
    """d as JSON text with the entry at the key path set to the raw
    JSON value text, which may be NaN or Infinity."""
    d = json.loads(json.dumps(d))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@@VALUE@@"
    return json.dumps(d).replace('"@@VALUE@@"', value)


def one_second_scenario(tmp_path, path=None, value=None, name="scenario.json"):
    d = json.loads((SCENARIOS / "circle_2m.json").read_text())
    d["duration"] = 1.0
    scenario = tmp_path / name
    scenario.write_text(json.dumps(d) if path is None else edited_json(d, path, value))
    return scenario


def run_cli(command, out, *args):
    return main([command, "--out", str(out), *args])


def outputs_written(command, out):
    return [name for name in OUTPUTS[command] if (out / name).exists()]


class TestConfigBoundary:
    """A bad config value exits 2 before any output file is opened."""

    @pytest.mark.parametrize("command", ["track", "simulate"])
    @pytest.mark.parametrize("edit", sorted(SCENARIO_EDITS))
    def test_bad_scenario_value_exits_2(self, tmp_path, command, edit):
        scenario = one_second_scenario(tmp_path, *SCENARIO_EDITS[edit])
        out = tmp_path / "out"
        assert run_cli(command, out, "--scenario", str(scenario)) == 2
        assert outputs_written(command, out) == []

    @pytest.mark.parametrize("command", ["track", "simulate"])
    def test_negative_seed_flag_exits_2(self, tmp_path, command):
        scenario = one_second_scenario(tmp_path)
        out = tmp_path / "out"
        assert run_cli(command, out, "--scenario", str(scenario), "--seed", "-1") == 2
        assert outputs_written(command, out) == []

    @pytest.mark.parametrize("edit", sorted(RUN_CONFIG_EDITS))
    def test_bad_run_config_value_exits_2(self, tmp_path, edit):
        strategy, path, value = RUN_CONFIG_EDITS[edit]
        scenario = str(one_second_scenario(tmp_path))
        d = {"scenario": scenario, "strategy": strategy, "roi": {}}
        if path == ("detections",):
            del d["scenario"]
        config = tmp_path / "config.json"
        config.write_text(edited_json(d, path, value))
        out = tmp_path / "out"
        # --scenario and --out override the config's values, which are
        # checked all the same (run_cli always passes --out)
        flags = ["--scenario", scenario] if path == ("scenario",) else []
        assert run_cli("track", out, "--config", str(config), *flags) == 2
        assert outputs_written("track", out) == []

    @pytest.mark.parametrize(
        "command,flag",
        [("simulate", "--scenario"), ("track", "--scenario"), ("track", "--config"), ("sensitivity", "--camera")],
    )
    def test_missing_json_file_exits_2(self, tmp_path, capsys, command, flag):
        # every JSON input names a missing file the same way
        missing = tmp_path / "missing.json"
        assert run_cli(command, tmp_path / "out", flag, str(missing)) == 2
        assert f"error: {missing}: no such file\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,kind",
        [
            ("eval", "--gt", "missing"),
            ("track", "detections", "missing"),
            ("sensitivity", "--camera", "directory"),
            ("eval", "--gt", "not_utf8"),
            ("sensitivity", "--camera", "not_utf8"),
            ("simulate", "--scenario", "not_utf8"),
            ("track", "--scenario", "not_utf8"),
            ("track", "detections", "not_utf8"),
        ],
    )
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, command, flag, kind):
        # every input file, JSON or JSONL, is named when it cannot be read
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"name": "\xff"}\n')
        args = [flag, str(path)]
        if flag == "detections":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"detections": str(path)}))
            args = ["--config", str(config)]
        elif command == "eval":
            args += ["--tracks", str(path)]
        assert run_cli(command, tmp_path / "out", *args) == 2
        reason = {"missing": "no such file", "directory": "is a directory", "not_utf8": "not UTF-8 text"}
        assert f"error: {path}: {reason[kind]}\n" in capsys.readouterr().err

    def test_camera_checked_with_scenario_input(self, tmp_path):
        # a scenario brings its own camera; the block is checked all the same
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "scenario": str(one_second_scenario(tmp_path)),
                    "camera": {"image_width": "bad", "nonsense": 1},
                }
            )
        )
        out = tmp_path / "out"
        assert run_cli("track", out, "--config", str(config)) == 2
        assert outputs_written("track", out) == []

    @pytest.mark.parametrize(
        "seed, flags", [('"x"', []), ("0", ["--seed", "-1"])], ids=["config", "flag"]
    )
    def test_seed_checked_with_detections_input(self, tmp_path, seed, flags):
        # detections need no seed; a bad one is rejected all the same
        detections = tmp_path / "detections.jsonl"
        detections.write_text(json.dumps({"frame": 0, "t": 0.0, "detections": []}) + "\n")
        config = tmp_path / "config.json"
        config.write_text(f'{{"detections": {json.dumps(str(detections))}, "seed": {seed}}}')
        out = tmp_path / "out"
        assert run_cli("track", out, "--config", str(config), *flags) == 2
        assert outputs_written("track", out) == []

    @pytest.mark.parametrize("text", ["5", "[]", "null"])
    def test_run_config_not_an_object_exits_2(self, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        scenario = str(one_second_scenario(tmp_path))
        assert run_cli("track", out, "--config", str(config), "--scenario", scenario) == 2
        assert outputs_written("track", out) == []

    @pytest.mark.parametrize("command", ["track", "simulate"])
    def test_overflowing_frame_count_exits_2(self, tmp_path, command):
        # fps and duration each pass alone; their product is infinite
        d = json.loads((SCENARIOS / "circle_2m.json").read_text())
        d.update(fps=1e300, duration=1e300)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert run_cli(command, out, "--scenario", str(scenario)) == 2
        assert outputs_written(command, out) == []

    @pytest.mark.parametrize("command", ["track", "simulate"])
    def test_null_camera_trajectory_is_the_default(self, tmp_path, command):
        # null is the JSON spelling of the default, no camera motion
        plain = one_second_scenario(tmp_path)
        null = one_second_scenario(tmp_path, ("camera_trajectory",), "null", name="null.json")
        assert run_cli(command, tmp_path / "plain", "--scenario", str(plain)) == 0
        assert run_cli(command, tmp_path / "null", "--scenario", str(null)) == 0
        for name in OUTPUTS[command]:
            assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def eval_inputs(tmp_path, gt_edit=None, track_edit=None):
    """One annotated frame and its tracks record, the target matched,
    each record changed in place by its edit."""
    gt = {"frame": 0, "t": 0.0, "agents": [{"id": 0, "x": 2.0, "y": 0.0, "is_target": True}]}
    tracks = {
        "frame": 0,
        "t": 0.0,
        "tracks": [{"id": 1, "x": 2.0, "y": 0.0, "h": 1.6, "is_target": True}],
    }
    for record, edit in ((gt, gt_edit), (tracks, track_edit)):
        if edit:
            edit(record)
    paths = tmp_path / "gt.jsonl", tmp_path / "tracks.jsonl"
    for path, record in zip(paths, (gt, tracks)):
        path.write_text(json.dumps(record) + "\n")
    return ["--gt", str(paths[0]), "--tracks", str(paths[1])]


EVAL_BOUNDARY = {
    "gt_without_frame": (
        dict(gt_edit=lambda r: r.pop("frame")),
        [],
        "ground-truth record 1: frame must be an integer, got None",
    ),
    "string_target_x": (
        dict(gt_edit=lambda r: r["agents"][0].update(x="a")),
        [],
        "ground-truth record 1 target: x must be a finite number, got 'a'",
    ),
    "string_track_x": (
        dict(track_edit=lambda r: r["tracks"][0].update(x="1")),
        [],
        "tracks record 1 target track: x must be a finite number, got '1'",
    ),
    "nan_radius": ({}, ["--radius", "nan"], "match radius must be a finite number > 0"),
    "inf_bin_width": ({}, ["--bin-width", "inf"], "bin width must be a finite number > 0"),
}


class TestEvalBoundary:
    """A malformed record or option exits 2, naming it, before the
    report is written."""

    def test_clean_inputs_match(self, tmp_path, capsys):
        assert run_cli("eval", tmp_path / "out", *eval_inputs(tmp_path)) == 0
        assert "m1=1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "stream, repeat, message",
        [
            ("gt", None, "ground-truth record 2: frame 0 repeats ground-truth record 1"),
            (
                "tracks",
                {"frame": 0, "t": 0.0, "tracks": []},
                "tracks record 2: frame 0 repeats tracks record 1",
            ),
        ],
        ids=["gt", "tracks"],
    )
    def test_repeated_frame_exits_2(self, tmp_path, capsys, stream, repeat, message):
        args = eval_inputs(tmp_path)
        path = Path(args[args.index(f"--{stream}") + 1])
        first = path.read_text()
        path.write_text(first + (json.dumps(repeat) + "\n" if repeat else first))
        out = tmp_path / "out"
        assert run_cli("eval", out, *args) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("case", sorted(EVAL_BOUNDARY))
    def test_bad_eval_input_exits_2(self, tmp_path, capsys, case):
        edits, flags, message = EVAL_BOUNDARY[case]
        out = tmp_path / "out"
        assert run_cli("eval", out, *eval_inputs(tmp_path, **edits), *flags) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


def under_camera_scenario(tmp_path, annotate_every=1):
    """circle_2m, 5 s long, its target walking from (2, 0) to (-2, 0)
    at 1 m/s: within 0.3 m of the camera axis from frame 52."""
    d = json.loads((SCENARIOS / "circle_2m.json").read_text())
    d["duration"] = 5.0
    d["annotate_every"] = annotate_every
    d["agents"][0]["trajectory"] = {
        "type": "waypoints", "points": [[2.0, 0.0], [-2.0, 0.0]], "speed": 1.0,
    }
    path = tmp_path / "under.json"
    path.write_text(json.dumps(d))
    return path


class TestUnderCamera:
    """An agent within 0.3 m of the camera axis exits 2 at its frame,
    naming the frame and the agent, whatever the annotation schedule;
    the frames before it are written."""

    MESSAGE = "error: frame 52: agent 0 at range 0.267 m is under the camera"

    def test_simulate_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", out, "--scenario", str(under_camera_scenario(tmp_path))) == 2
        assert self.MESSAGE in capsys.readouterr().err
        assert len(list(read_jsonl(str(out / "ground_truth.jsonl")))) == 52
        assert not (out / "scenario.json").exists()

    @pytest.mark.parametrize("annotate_every", [1, 1000], ids=["annotated", "sparse"])
    def test_track_exits_2(self, tmp_path, capsys, annotate_every):
        out = tmp_path / "out"
        scenario = under_camera_scenario(tmp_path, annotate_every)
        assert run_cli("track", out, "--scenario", str(scenario)) == 2
        assert self.MESSAGE in capsys.readouterr().err
        for name in ("tracks.jsonl", "detections.jsonl"):
            assert [r["frame"] for r in read_jsonl(str(out / name))] == list(range(52))


# drawn config values: the default, values of a wrong JSON type, values
# out of range (for some keys), null
ODD_VALUES = ("x", [], {}, True, [1, "a"], -1, 0, 1.5, -1e300, math.inf, math.nan, None)
CONFIG_BLOCKS = {"camera": CameraModel, "tiles": TilesConfig, "roi": RoiConfig, "tracker": TrackerConfig}


def config_values(valid):
    """The valid value half of the time, else an odd one."""
    return st.just(valid) | st.sampled_from(ODD_VALUES)


@st.composite
def config_blocks(draw, cls):
    defaults = {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(cls)
    }
    names = draw(st.lists(st.sampled_from([*defaults, "bogus"]), max_size=2, unique=True))
    return {name: draw(config_values(defaults.get(name))) for name in names}


@st.composite
def run_configs(draw, scenario):
    """A run config for ``scenario`` with up to three more top-level
    keys, each value valid, of a wrong type, out of range or null;
    ``bogus`` is an unknown key, at the top and in a block."""
    valid = {
        "strategy": draw(st.sampled_from(STRATEGIES)), "seed": 0, "out": None,
        "detections": None, "bogus": None, **dict.fromkeys(CONFIG_BLOCKS, {}),
    }
    config = {"scenario": scenario}
    for key in draw(st.lists(st.sampled_from(sorted(valid)), max_size=3, unique=True)):
        if key in CONFIG_BLOCKS:
            config[key] = draw(config_blocks(CONFIG_BLOCKS[key]) | config_values({}))
        else:
            config[key] = draw(config_values(valid[key]))
    return config


@st.composite
def short_scenarios(draw):
    """circle_2m with 6-10 frames at 10 fps and 1-3 agents, some of
    them circling or walking within 0.3 m of the camera axis."""
    d = json.loads((SCENARIOS / "circle_2m.json").read_text())
    d["fps"] = 10.0
    d["duration"] = draw(st.integers(6, 10)) / 10.0
    d["annotate_every"] = draw(st.sampled_from([1, 3, 1000]))
    d["agents"] = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            trajectory = {"type": "circle", "radius": draw(st.floats(0.1, 4.0))}
        else:  # a straight walk past the axis, `offset` m from it at x = 0
            offset, start = draw(st.floats(0.0, 1.0)), draw(st.floats(-1.0, 0.0))
            trajectory = {"type": "waypoints", "points": [[start, offset], [start + 1.0, offset]]}
        d["agents"].append({"id": i, "trajectory": trajectory})
    return d


class TestExitCodes:
    """The CLI ends every drawn run with 0, 2 or 3 and raises nothing."""

    @settings(max_examples=100, deadline=None)
    @given(short_scenarios(), st.data())
    def test_track_and_simulate_exit_0_2_or_3(self, scenario, data):
        s = scenario_from_dict(scenario)
        under = any(
            math.hypot(*agent.trajectory.pose(i / s.fps)) <= MIN_AGENT_RANGE
            for i in range(s.n_frames)
            for agent in s.agents
        )
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = tmp / "scenario.json"
            path.write_text(json.dumps(scenario))
            config = tmp / "config.json"
            config.write_text(json.dumps(data.draw(run_configs(str(path)))))
            assert run_cli("simulate", tmp / "sim", "--scenario", str(path)) == (2 if under else 0)
            assert run_cli("track", tmp / "track", "--config", str(config)) in (0, 2, 3)
