"""Target-tracking evaluation: time-tracked ratio, id persistence,
localization error, and distance-binned error curves.

All metrics are computed over the annotated frames of a ground-truth
stream. A frame counts as matched when a target-flagged track lies
within a world-distance radius of the annotated target position; the
0.5 m default reflects the accuracy a guiding robot needs to keep a
person alongside. A record field the matching reads that is missing or
of the wrong type raises InputError naming the record's 1-based
position in its stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .exceptions import InputError
from .geometry import WorldPoint, _field, check_number

DEFAULT_MATCH_RADIUS = 0.5  # meters
DEFAULT_BIN_WIDTH = 1.0  # meters


@dataclass(frozen=True)
class FrameMatch:
    """One annotated frame: the target's position, and the matched
    track's id and estimate, both None when no track matched."""

    frame: int
    gt_pos: WorldPoint
    track_id: Optional[int] = None
    est_pos: Optional[WorldPoint] = None

    @property
    def matched(self) -> bool:
        return self.track_id is not None

    @property
    def gt_range(self) -> float:
        return math.hypot(self.gt_pos.x, self.gt_pos.y)

    @property
    def error(self) -> Optional[float]:
        if not self.matched:
            return None
        return math.hypot(
            self.est_pos.x - self.gt_pos.x, self.est_pos.y - self.gt_pos.y
        )


@dataclass(frozen=True)
class ErrorBin:
    center: float  # meters
    mean_error: Optional[float]  # None when the bin has no matched frames
    count: int  # matched frames in the bin
    miss_rate: float  # unmatched fraction over all annotated frames in the bin


@dataclass
class EvalReport:
    m1: float
    m2: float
    m3: Optional[float]
    fragments: int
    matched_frames: int
    total_frames: int
    error_vs_distance: list[ErrorBin] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "m1": self.m1,
            "m2": self.m2,
            "m3": self.m3,
            "fragments": self.fragments,
            "matched_frames": self.matched_frames,
            "total_frames": self.total_frames,
            "error_vs_distance": [
                {
                    "bin_center_m": b.center,
                    "mean_error_m": b.mean_error,
                    "count": b.count,
                    "miss_rate": b.miss_rate,
                }
                for b in self.error_vs_distance
            ],
        }


def _objects(record: dict, key: str, where: str) -> list[dict]:
    items = record.get(key, [])
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise InputError(f"{where}: {key} must be a list of objects, got {items!r}")
    return items


def match_frames(
    gt_records: Sequence[dict],
    track_records: Sequence[dict],
    match_radius: float = DEFAULT_MATCH_RADIUS,
) -> list[FrameMatch]:
    """Match each annotated ground-truth frame against the track stream.

    A frame is matched when a target-flagged track's (x, y) lies within
    match_radius of the annotated target; the nearest such track wins.
    Ground truth may be sparse, but every annotated frame must exist in
    the track stream. A frame number may appear once in each stream.
    """
    check_number("match radius", match_radius, 0.0, strict=True)
    tracks_by_frame: dict[int, tuple[int, dict]] = {}
    for n, r in enumerate(track_records, start=1):
        frame = _field(r, "frame", f"tracks record {n}", integer=True)
        if frame in tracks_by_frame:
            first = tracks_by_frame[frame][0]
            raise InputError(f"tracks record {n}: frame {frame} repeats tracks record {first}")
        tracks_by_frame[frame] = (n, r)
    gt_seen: dict[int, int] = {}
    matches = []
    for n, record in enumerate(gt_records, start=1):
        where = f"ground-truth record {n}"
        frame = _field(record, "frame", where, integer=True)
        if frame in gt_seen:
            raise InputError(
                f"{where}: frame {frame} repeats ground-truth record {gt_seen[frame]}"
            )
        gt_seen[frame] = n
        if frame not in tracks_by_frame:
            raise InputError(f"{where}: annotated frame {frame} missing from track stream")
        target = next(
            (a for a in _objects(record, "agents", where) if a.get("is_target")), None
        )
        if target is None:
            continue
        gt_pos = WorldPoint(
            float(_field(target, "x", f"{where} target")),
            float(_field(target, "y", f"{where} target")),
            0.0,
        )
        track_n, track_record = tracks_by_frame[frame]
        where_tr = f"tracks record {track_n} target track"
        best = None
        for tr in _objects(track_record, "tracks", f"tracks record {track_n}"):
            if not tr.get("is_target"):
                continue
            x, y = _field(tr, "x", where_tr), _field(tr, "y", where_tr)
            d = math.hypot(x - gt_pos.x, y - gt_pos.y)
            if d <= match_radius and (best is None or d < best[0]):
                best = (d, tr)
        if best is None:
            matches.append(FrameMatch(frame=frame, gt_pos=gt_pos))
        else:
            tr = best[1]
            matches.append(
                FrameMatch(
                    frame=frame,
                    gt_pos=gt_pos,
                    track_id=_field(tr, "id", where_tr, integer=True),
                    est_pos=WorldPoint(
                        float(tr["x"]),
                        float(tr["y"]),
                        float(_field(tr, "h", where_tr, default=0.0)),
                    ),
                )
            )
    return matches


def time_tracked_ratio(matches: Sequence[FrameMatch]) -> float:
    """Fraction of annotated frames on which the target is tracked."""
    if not matches:
        raise InputError("no annotated frames")
    return sum(1 for m in matches if m.matched) / len(matches)


def count_fragments(matches: Sequence[FrameMatch]) -> int:
    """Number of id runs over matched frames: 1 for an unbroken id,
    +1 for every change (re-acquisitions under a fresh id each count)."""
    ids = [m.track_id for m in matches if m.matched]
    if not ids:
        return 0
    return 1 + sum(1 for a, b in zip(ids, ids[1:]) if a != b)


def id_persistence(matches: Sequence[FrameMatch]) -> float:
    """1 / fragments; 0 when the target is never matched (the metric's
    ideal-case value is 1: a single id covering every matched frame)."""
    if not matches:
        raise InputError("no annotated frames")
    fragments = count_fragments(matches)
    return 1.0 / fragments if fragments else 0.0


def mean_position_error(matches: Sequence[FrameMatch]) -> float:
    """Mean ground-plane distance between estimate and annotation over
    matched frames."""
    errors = [m.error for m in matches if m.matched]
    if not errors:
        raise InputError("no matched frames; localization error undefined")
    return sum(errors) / len(errors)


def error_vs_distance(
    matches: Sequence[FrameMatch], bin_width: float = DEFAULT_BIN_WIDTH
) -> list[ErrorBin]:
    """Per-range-bin mean error, matched count, and miss rate."""
    check_number("bin width", bin_width, 0.0, strict=True)
    bins: dict[int, list[FrameMatch]] = {}
    for m in matches:
        bins.setdefault(int(m.gt_range // bin_width), []).append(m)
    out = []
    for idx in sorted(bins):
        group = bins[idx]
        errors = [m.error for m in group if m.matched]
        out.append(
            ErrorBin(
                center=(idx + 0.5) * bin_width,
                mean_error=sum(errors) / len(errors) if errors else None,
                count=len(errors),
                miss_rate=1.0 - len(errors) / len(group),
            )
        )
    return out


def evaluate(
    gt_records: Sequence[dict],
    track_records: Sequence[dict],
    match_radius: float = DEFAULT_MATCH_RADIUS,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> EvalReport:
    """Full report over a ground-truth/track stream pair."""
    matches = match_frames(gt_records, track_records, match_radius)
    if not matches:
        raise InputError("ground truth contains no annotated target frames")
    matched = [m for m in matches if m.matched]
    return EvalReport(
        m1=time_tracked_ratio(matches),
        m2=id_persistence(matches),
        m3=mean_position_error(matches) if matched else None,
        fragments=count_fragments(matches),
        matched_frames=len(matched),
        total_frames=len(matches),
        error_vs_distance=error_vs_distance(matches, bin_width),
    )
