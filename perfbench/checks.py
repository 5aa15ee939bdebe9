"""Correctness checks on the outputs of a run's check pass.

Computed without panotrack: true positions come in closed form from
each scenario file's trajectory parameters, and image positions from
the benchmark's own equirectangular projection. The thresholds and
their basis are listed in README.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MATCH_RADIUS_M = 0.5  # a guiding robot must keep the person this close
PROJECTION_TOL_PX = 1e-6  # same closed form evaluated twice; only rounding differs
SWEEP_HOLD_SHARE = 0.95  # tiles/roi: target kept in every 1 m bin up to 7 m
SWEEP_HOLD_MAX_M = 7.0
FULLFRAME_LOSS_SHARE = 0.5  # fullframe: target kept below this beyond 4 m
FULLFRAME_LOSS_FROM_M = 4.0
CIRCLE_MEAN_ERROR_M = 0.3
# confirmed track-frames within MATCH_RADIUS_M of some person, per crowd workload
CROWD_NEAR_PERSON_SHARE = {"crowd_offline": 0.85, "crowd_live": 0.7}


# --- closed-form truth -------------------------------------------------


def position(trajectory: dict, t: float) -> tuple[float, float]:
    """Agent position at time t: a constant-speed circle, or a
    constant-speed polyline that holds its last point."""
    if trajectory["type"] == "circle":
        cx, cy = trajectory.get("center", (0.0, 0.0))
        ang = math.radians(
            trajectory.get("start_angle", 0.0) + trajectory.get("angular_speed", 30.0) * t
        )
        r = trajectory["radius"]
        return cx + r * math.cos(ang), cy + r * math.sin(ang)
    points = trajectory["points"]
    remaining = trajectory.get("speed", 1.0) * t
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        if remaining <= seg:
            frac = remaining / seg if seg > 0 else 0.0
            return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
        remaining -= seg
    return tuple(points[-1])


def project(x: float, y: float, z: float, cam: dict) -> tuple[float, float]:
    """Equirectangular pixel of a world point for a camera orthogonal to
    the ground: column from azimuth (0 deg at the image centre, growing
    leftwards), row from elevation seen from the mount height."""
    width, height = cam["image_width"], cam["image_height"]
    azimuth = math.degrees(math.atan2(y, x))
    elevation = math.degrees(math.atan2(z - cam["mount_height"], math.hypot(x, y)))
    col = ((180.0 - azimuth) * width / cam["fov_h"]) % width
    row = (90.0 - elevation) * height / cam["fov_v"]
    return col, row


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


# --- per-stream evaluation ---------------------------------------------


class StreamReport:
    """Per-frame failures of one stream plus what the workload-level
    checks need: target matches on annotated frames and the crowd
    track-frame tally."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.failed: set[int] = set()
        self.reasons: dict[str, int] = {}
        self._seen: set[tuple[int, str]] = set()
        # annotated frames: (true target x, y, id of the target track held within
        # MATCH_RADIUS_M or None)
        self.target: list[tuple[float, float, int | None]] = []
        self.nearest_target_errors: list[float] = []
        self.confirmed = 0
        self.confirmed_near = 0

    def fail(self, frame: int, reason: str) -> None:
        """Record a failed frame; ``reasons`` counts frames per reason."""
        if (frame, reason) not in self._seen:
            self._seen.add((frame, reason))
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.failed.add(frame)


def check_stream(stream: dict, out_dir: Path, index: int, frames: int) -> StreamReport:
    scenario = json.loads(Path(stream["scenario"]).read_text("utf-8"))
    if "camera_trajectory" in scenario:
        raise ValueError("closed-form truth assumes a static camera")
    cam, fps = scenario["cam"], scenario["fps"]
    agents = scenario["agents"]
    every, first = scenario.get("annotate_every", 1), scenario.get("annotate_from", 0)
    report = StreamReport(stream["name"])
    det_path = out_dir / f"{index}.detections.jsonl"
    trk_path = out_dir / f"{index}.tracks.jsonl"
    with open(det_path, encoding="utf-8") as det_fh, open(trk_path, encoding="utf-8") as trk_fh:
        det_lines, trk_lines = det_fh.readlines(), trk_fh.readlines()
    previous: set[int] = set()
    ended: set[int] = set()  # ids that left the stream or were reported lost
    for i in range(frames):
        if i >= len(trk_lines) or i >= len(det_lines):
            report.fail(i, "missing frame")
            continue
        dets, tracks = json.loads(det_lines[i]), json.loads(trk_lines[i])
        t = i / fps
        for record in (dets, tracks):
            if record.get("frame") != i or not math.isclose(record.get("t", -1.0), t, abs_tol=1e-9):
                report.fail(i, "frame index or time out of sequence")
        if not (_all_finite(dets) and _all_finite(tracks)):
            report.fail(i, "non-finite value")
            continue
        ids = [tr["id"] for tr in tracks["tracks"]]
        if len(set(ids)) != len(ids):
            report.fail(i, "duplicate id in frame")
        current = set(ids)
        if current & ended:
            report.fail(i, "id reused")
        ended |= previous - current
        previous = current

        truth = [position(a["trajectory"], t) for a in agents]
        target_tracks = []
        for tr in tracks["tracks"]:
            if tr["status"] == "lost":
                ended.add(tr["id"])
            col, row = project(tr["x"], tr["y"], tr["h"], cam)
            dcol = abs(col - tr["img_x"]) % cam["image_width"]
            dcol = min(dcol, cam["image_width"] - dcol)
            if dcol > PROJECTION_TOL_PX or abs(row - tr["img_y"]) > PROJECTION_TOL_PX:
                report.fail(i, "img_x/img_y disagree with the projection")
            if tr["status"] == "confirmed":
                report.confirmed += 1
                if any(
                    math.hypot(tr["x"] - ax, tr["y"] - ay) <= MATCH_RADIUS_M for ax, ay in truth
                ):
                    report.confirmed_near += 1
            if tr["is_target"]:
                target_tracks.append(tr)

        if i >= first and (i - first) % every == 0:
            tx, ty = truth[0]  # agent 0 in declaration order is the target
            errors = sorted(
                (math.hypot(tr["x"] - tx, tr["y"] - ty), tr["id"]) for tr in target_tracks
            )
            if errors:
                report.nearest_target_errors.append(errors[0][0])
            held = errors[0][1] if errors and errors[0][0] <= MATCH_RADIUS_M else None
            report.target.append((tx, ty, held))
    return report


# --- workload-level checks ---------------------------------------------


def _range_bins(report: StreamReport) -> dict[int, list[bool]]:
    bins: dict[int, list[bool]] = {}
    for x, y, track_id in report.target:
        bins.setdefault(int(math.hypot(x, y)), []).append(track_id is not None)
    return bins


def _check_range_sweep(report: StreamReport, strategy: str) -> list[str]:
    problems = []
    for lower, hits in sorted(_range_bins(report).items()):
        share = sum(hits) / len(hits)
        if strategy in ("tiles", "roi") and lower + 1 <= SWEEP_HOLD_MAX_M:
            if share < SWEEP_HOLD_SHARE:
                problems.append(
                    f"{report.name}: target kept on {share:.3f} of frames at {lower}-{lower + 1} m"
                    f" (need >= {SWEEP_HOLD_SHARE})"
                )
        if strategy == "fullframe" and lower >= FULLFRAME_LOSS_FROM_M and share >= FULLFRAME_LOSS_SHARE:
            problems.append(
                f"{report.name}: fullframe keeps the target on {share:.3f} of frames at"
                f" {lower}-{lower + 1} m (need < {FULLFRAME_LOSS_SHARE})"
            )
    return problems


def _check_seam(report: StreamReport) -> list[str]:
    ids = {track_id for _, _, track_id in report.target if track_id is not None}
    if len(ids) > 1:
        return [f"{report.name}: target changed id across the seam: {sorted(ids)}"]
    # the walker crosses azimuth 180 deg (x < 0, y changing sign); when
    # the frames run include the crossing, the target must be held on both sides
    sides = {y > 0 for x, y, _ in report.target if x < 0}
    held = {y > 0 for x, y, track_id in report.target if x < 0 and track_id is not None}
    if len(sides) == 2 and len(held) < 2:
        return [f"{report.name}: target not held on both sides of the seam"]
    return []


def _check_circle(report: StreamReport) -> list[str]:
    errs = report.nearest_target_errors
    if not errs:
        return [f"{report.name}: no target track"]
    mean = sum(errs) / len(errs)
    if mean > CIRCLE_MEAN_ERROR_M:
        return [f"{report.name}: mean target error {mean:.3f} m > {CIRCLE_MEAN_ERROR_M} m"]
    return []


def _check_crowd(report: StreamReport, floor: float) -> list[str]:
    if report.confirmed == 0:
        return [f"{report.name}: no confirmed tracks"]
    share = report.confirmed_near / report.confirmed
    if share < floor:
        return [
            f"{report.name}: {share:.3f} of confirmed track-frames within"
            f" {MATCH_RADIUS_M} m of a person (need >= {floor})"
        ]
    return []


def check_workload(spec: dict, out_dir: Path, frame_limit: int | None):
    """Returns (stream reports, workload-level problems)."""
    reports, problems = [], []
    for index, stream in enumerate(spec["streams"]):
        frames = stream["frames"] if frame_limit is None else min(frame_limit, stream["frames"])
        report = check_stream(stream, out_dir, index, frames)
        reports.append(report)
        scenario_name, strategy = stream["name"].split("/")
        if scenario_name == "range_sweep":
            problems += _check_range_sweep(report, strategy)
        elif scenario_name == "seam_walker" and strategy in ("tiles", "roi"):
            problems += _check_seam(report)
        elif scenario_name == "circle_2m":
            problems += _check_circle(report)
        elif scenario_name in CROWD_NEAR_PERSON_SHARE:
            problems += _check_crowd(report, CROWD_NEAR_PERSON_SHARE[scenario_name])
    return reports, problems
