"""File formats: detections / tracks / ground-truth JSONL, report JSON,
and CSV curves.

Detections JSONL is the plug-in boundary for a real skeleton detector:
one object per frame, `{"frame": int, "t": seconds, "detections":
[{"joints": {name: [x, y, conf]}}]}` with coordinates in the full-image
frame. Each joints object is a detection in the one form the viewport
path holds it in, so the writer wraps it as it is. The offline reader
checks and normalizes each one with ``detect.check_detection``, as the
viewport path does the detector port's output: joint names in sorted
order, the confidence as a float (1.0 when absent), rows inside the
image, the coordinates kept as given. A detection already in that form
is kept, and written back, as read. Tracks JSONL mirrors the
tracker output: `{"frame", "t", "tracks": [{"id", "x", "y", "h",
"img_x", "img_y", "status", "is_target"}]}`.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
import orjson

from .detect import check_detection, pixel_row
from .exceptions import InputError, PanotrackError
from .geometry import CameraModel, column_range, row_at_height
from .metrics import ErrorBin, EvalReport
from .tracker import TrackTable


def _decode_json(text: str):
    """The JSON value of ``text``: ``orjson.loads``, or ``json.loads``
    for a text that orjson rejects. Only ``json`` reads ``NaN``,
    ``Infinity``, a number past the float range (``1e400``) and a lone
    surrogate escape, and an invalid text raises its
    ``json.JSONDecodeError``, so a text reads as with ``json`` alone,
    with two exceptions: orjson reads an integer literal outside
    [-2**63, 2**64) as the nearest float, and reads arrays and objects
    nested past Python's recursion limit, where ``json`` raises
    RecursionError. A text that orjson rejects and that nests that deep
    still raises RecursionError."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def read_json(path: str):
    """The JSON value in a file; a file that ``_lines`` cannot read, or
    invalid JSON, raises InputError naming the file."""
    text = "".join(_lines(path))
    try:
        return _decode_json(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: invalid JSON: nested past the recursion limit") from exc


def read_jsonl(path: str) -> Iterator[dict]:
    """The records of a JSONL file, one dict per non-blank line; a line
    that is not a JSON object raises InputError. A line is blank when it
    holds only JSON whitespace: space, tab, CR and LF. The records are
    read as they are drawn."""
    return _records(_lines(path), path)


def _lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are drawn. The file
    is opened by this call, so a missing file or a directory fails here
    and not at the first line; either, and bytes that are not UTF-8,
    raise InputError naming the file."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError as exc:
        raise InputError(f"{path}: no such file") from exc
    except IsADirectoryError as exc:
        raise InputError(f"{path}: is a directory") from exc
    return _decoded(fh, path)


def _decoded(fh: TextIO, path: str) -> Iterator[str]:
    with fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text") from exc


def _records(lines: Iterator[str], path: str) -> Iterator[dict]:
    for lineno, line in enumerate(lines, start=1):
        # blank: JSON whitespace only; lstrip returns a line that starts
        # with none as itself, with no copy
        if not line.lstrip(" \t\r\n"):
            continue
        try:
            record = _decode_json(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
        except RecursionError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: nested past the recursion limit") from exc
        if not isinstance(record, dict):
            raise InputError(f"{path}:{lineno}: expected a JSON object")
        yield record


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def detections_record(frame: int, t: float, dets: Sequence[dict]) -> dict:
    """A frame's detections record; each detection is a joints object
    in name order, as ``check_detection`` makes it."""
    return {"frame": frame, "t": t, "detections": [{"joints": d} for d in dets]}


def detections_from_record(record: dict, cam: CameraModel) -> tuple[list[dict], np.ndarray]:
    """A record's detections, normalized by ``check_detection`` to
    ``{"joints": {name: [x, y, conf]}}``, and their (m, 4) pixel rows
    for ``PanoTracker.step``, in one pass; a broken rule raises
    InputError. A detection that is that object already, its joints in
    normal form, is returned as read."""
    try:
        dets = record["detections"]
        if not isinstance(dets, list):
            raise TypeError(f"detections must be a list, got {dets!r}")
        width, height = cam.image_width, cam.image_height
        out, rows = [], []  # rows: the pixel rows, flat
        for d in dets:
            joints = check_detection(d["joints"], height)
            # a detection whose joints came back unchanged is kept as read
            out.append(d if joints is d["joints"] and len(d) == 1 else {"joints": joints})
            rows.extend(pixel_row(joints, width))
    except PanotrackError as exc:
        raise InputError(str(exc)) from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed detection record: {exc}") from exc
    return out, np.array(rows, dtype=float).reshape(-1, 4)


def tracks_record(frame: int, t: float, table: TrackTable, cam: CameraModel) -> dict:
    """A frame's tracks record, one entry per row of a step's table.
    The positions are the table's means, read with one ``.tolist()``,
    and each pixel is ``world_to_image`` of its position, computed by
    the same two calls."""
    out = []
    for track_id, (x, y, _, _, h), status, is_target in zip(
        table.ids, table.means.tolist(), table.statuses, table.is_target
    ):
        img_x, rho = column_range(x, y, cam)
        out.append(
            {
                "id": track_id,
                "x": x,
                "y": y,
                "h": h,
                "img_x": img_x,
                "img_y": row_at_height(rho, h, cam),
                "status": status,
                "is_target": is_target,
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
