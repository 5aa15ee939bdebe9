"""File formats: detections / tracks / ground-truth JSONL, report JSON,
and CSV curves.

Detections JSONL is the plug-in boundary for a real skeleton detector:
one object per frame, `{"frame": int, "t": seconds, "detections":
[{"joints": {name: [x, y, conf]}}]}` with coordinates in the full-image
frame. The offline reader normalizes each record as it checks it:
joint names in sorted order, the confidence as a float (1.0 when
absent), the coordinates kept as given. Tracks JSONL mirrors the
tracker output: `{"frame", "t", "tracks": [{"id", "x", "y", "h",
"img_x", "img_y", "status", "is_target"}]}`.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .detect import NO_PIXEL, Skeleton, ankle_midpoint, check_joint, check_joint_names
from .exceptions import InputError, PanotrackError
from .geometry import CameraModel, world_to_image
from .metrics import ErrorBin, EvalReport
from .tracker import TrackSnapshot


def read_jsonl(path: str) -> Iterator[dict]:
    """The records of a JSONL file, one dict per non-blank line; a line
    that is not a JSON object raises InputError. The file is opened by
    this call, so a missing file fails here and not at the first
    record; the records are read as they are drawn."""
    return _records(open(path, "r", encoding="utf-8"), path)


def _records(fh: TextIO, path: str) -> Iterator[dict]:
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise InputError(f"{path}:{lineno}: expected a JSON object")
            yield record


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def detections_record(frame: int, t: float, dets: Sequence[Skeleton]) -> dict:
    return {
        "frame": frame,
        "t": t,
        "detections": [
            {
                "joints": {
                    name: [x, y, c]
                    for name, ((x, y), c) in sorted(sk.joints.items())
                }
            }
            for sk in dets
        ],
    }


def detections_from_record(record: dict, image_width: float) -> tuple[list[dict], np.ndarray]:
    """A record's detections, normalized to ``{"joints": {name: [x, y,
    conf]}}`` in name order, and their (m, 4) pixels for
    ``PanoTracker.step``, in one pass; a broken rule raises InputError."""
    try:
        dets = record["detections"]
        if not isinstance(dets, list):
            raise TypeError(f"detections must be a list, got {dets!r}")
        out, rows = [], []
        for d in dets:
            joints = d["joints"]
            check_joint_names(joints)
            norm = {n: [v[0], v[1], check_joint(*v)] for n, v in sorted(joints.items())}
            out.append({"joints": norm})
            ankle = ankle_midpoint(norm.get("left_ankle"), norm.get("right_ankle"), image_width)
            neck = norm.get("neck")
            rows.append((*(ankle or NO_PIXEL), *(neck[:2] if neck else NO_PIXEL)))
    except PanotrackError as exc:
        raise InputError(str(exc)) from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed detection record: {exc}") from exc
    return out, np.array(rows, dtype=float).reshape(-1, 4)


def tracks_record(
    frame: int, t: float, tracks: Sequence[TrackSnapshot], cam: CameraModel
) -> dict:
    out = []
    for tr in tracks:
        img = world_to_image(tr.world_position, cam)
        out.append(
            {
                "id": tr.id,
                "x": tr.mean[0],
                "y": tr.mean[1],
                "h": tr.mean[4],
                "img_x": img.x,
                "img_y": img.y,
                "status": tr.status.value,
                "is_target": tr.is_target,
            }
        )
    return {"frame": frame, "t": t, "tracks": out}


def write_report(path: str, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def write_error_curve_csv(path: str, bins: Sequence[ErrorBin]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_center_m,mean_error_m,count,miss_rate\n")
        for b in bins:
            mean = "" if b.mean_error is None else repr(b.mean_error)
            fh.write(f"{b.center},{mean},{b.count},{b.miss_rate}\n")


def write_sensitivity_csv(
    path: str, rows: Sequence[tuple[float, float, float]]
) -> None:
    """rows: (distance_m, pixel_error_px, localization_error_m)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("distance_m,pixel_error_px,error_m\n")
        for d, px, err in rows:
            fh.write(f"{d},{px},{err}\n")
