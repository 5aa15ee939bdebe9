"""Command-line entry point.

Subcommands:
    simulate     scenario JSON -> ground-truth JSONL (+ scenario snapshot)
    track        scenario or detections JSONL -> detections + tracks JSONL
    eval         ground truth + tracks -> report JSON + error curve CSV
    sensitivity  camera -> localization-error-vs-distance CSV

Exit codes: 0 success, 2 malformed input or configuration, 3 runtime
failure (e.g. filter divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .detect import RoiConfig, TilesConfig
from .exceptions import InputError, PanotrackError
from .geometry import CameraModel, check_number, from_dict, localization_sensitivity
from .io import (
    read_json,
    read_jsonl,
    write_error_curve_csv,
    write_jsonl,
    write_report,
    write_sensitivity_csv,
)
from .metrics import DEFAULT_BIN_WIDTH, DEFAULT_MATCH_RADIUS, evaluate
from .pipeline import (
    STRATEGIES,
    log_latency_percentiles,
    run_offline,
    run_simulated,
)
from .sim import load_scenario, scenario_to_dict
from .tracker import TrackerConfig

logger = logging.getLogger(__name__)

EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _out_dir(path: Optional[str]) -> Path:
    out = Path(path) if path else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    out = _out_dir(args.out)

    def gt_stream():
        from .sim import run_scenario

        for _, gt in run_scenario(scenario):
            if gt is not None:
                yield gt

    write_jsonl(str(out / "ground_truth.jsonl"), gt_stream())
    with open(out / "scenario.json", "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
    logger.info("wrote %s and %s", out / "ground_truth.jsonl", out / "scenario.json")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    config = read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise InputError(f"run config must be an object, got {config!r}")
    known = {
        "scenario",
        "detections",
        "strategy",
        "seed",
        "out",
        "camera",
        "tiles",
        "roi",
        "tracker",
    }
    unknown = set(config) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    # checked even where a flag overrides the value
    for key in ("scenario", "detections", "out"):
        value = config.get(key)
        if value is not None and not (isinstance(value, str) and value):
            raise InputError(f"{key} must be a non-empty string or null, got {value!r}")

    scenario_path = args.scenario or config.get("scenario")
    detections_path = config.get("detections")
    if bool(scenario_path) == bool(detections_path):
        raise InputError("config needs exactly one input: 'scenario' or 'detections'")

    strategy = args.strategy or config.get("strategy", "tiles")
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    # seed and camera are checked whichever input is given, though only
    # a scenario reads the seed and only detections read the camera
    seed = args.seed if args.seed is not None else config.get("seed")
    for value in (config.get("seed"), seed):
        if value is not None:
            check_number("seed", value, 0, integer=True)
    camera = CameraModel.from_dict(config.get("camera", {}))
    out = _out_dir(args.out or config.get("out"))
    tracker_cfg = from_dict(TrackerConfig, config.get("tracker", {}), "tracker")
    tiles_cfg = from_dict(TilesConfig, config.get("tiles", {}), "tiles")
    roi_cfg = from_dict(RoiConfig, config.get("roi", {}), "roi")

    # every check that needs no frame runs before the outputs open
    if scenario_path:
        scenario = load_scenario(scenario_path)
        if seed is not None:
            scenario = dataclasses.replace(scenario, seed=seed)
        frames = (
            output
            for output, _ in run_simulated(scenario, strategy, tracker_cfg, tiles_cfg, roi_cfg)
        )
    else:
        frames = run_offline(read_jsonl(detections_path), camera, tracker_cfg)

    detections_file = out / "detections.jsonl"
    tracks_file = out / "tracks.jsonl"
    latencies: list[float] = []
    partial_frames = 0

    with open(detections_file, "w", encoding="utf-8") as det_fh, open(
        tracks_file, "w", encoding="utf-8"
    ) as trk_fh:
        for output in frames:
            det_fh.write(json.dumps(output.detections) + "\n")
            trk_fh.write(json.dumps(output.tracks) + "\n")
            latencies.append(output.latency_s)
            partial_frames += int(output.partial)

    log_latency_percentiles(latencies)
    if partial_frames:
        logger.warning("%d frames returned partial detections", partial_frames)
    logger.info("wrote %s and %s", detections_file, tracks_file)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    gt = list(read_jsonl(args.gt))
    tracks = list(read_jsonl(args.tracks))
    report = evaluate(gt, tracks, match_radius=args.radius, bin_width=args.bin_width)
    out = _out_dir(args.out)
    write_report(str(out / "report.json"), report)
    write_error_curve_csv(str(out / "error_vs_distance.csv"), report.error_vs_distance)
    print(
        f"m1={report.m1:.4f} m2={report.m2:.4f} "
        f"m3={'n/a' if report.m3 is None else f'{report.m3:.4f}'} "
        f"fragments={report.fragments} "
        f"matched={report.matched_frames}/{report.total_frames}"
    )
    return 0


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated list of numbers: {text!r}") from exc


def cmd_sensitivity(args: argparse.Namespace) -> int:
    camera = (
        CameraModel.from_dict(read_json(args.camera)) if args.camera else CameraModel()
    )
    distances = _float_list(args.distances)
    pixel_errors = _float_list(args.pixel_errors)
    if not distances or not pixel_errors:
        raise InputError("need at least one distance and one pixel error")
    for d in distances:
        check_number("distance", d, 0.0, strict=True)
    for px in pixel_errors:
        check_number("pixel error", px, 0.0)
    rows = [
        (d, px, localization_sensitivity(d, px, camera))
        for px in pixel_errors
        for d in distances
    ]
    out = _out_dir(args.out)
    write_sensitivity_csv(str(out / "sensitivity.csv"), rows)
    logger.info("wrote %s", out / "sensitivity.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panotrack",
        description="Panoramic people detection and tracking pipeline",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate ground truth from a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run a detection strategy plus the tracker")
    p.add_argument("--config", default=None, help="run-config JSON file")
    p.add_argument("--scenario", default=None, help="scenario JSON (overrides config)")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score a tracks file against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth JSONL")
    p.add_argument("--tracks", required=True, help="tracks JSONL")
    p.add_argument("--radius", type=float, default=DEFAULT_MATCH_RADIUS, help="match radius in meters")
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH, help="distance bin width")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sensitivity", help="pixel-error localization sensitivity curves"
    )
    p.add_argument("--camera", default=None, help="camera JSON file (default camera otherwise)")
    p.add_argument("--distances", default="1,2,3,4,5,6,7,8", help="comma-separated meters")
    p.add_argument("--pixel-errors", default="0,1,3,5,10", help="comma-separated pixels")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except PanotrackError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
