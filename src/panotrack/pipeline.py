"""Frame-by-frame wiring of a viewport strategy and the tracker.

The pipeline streams: each frame is simulated (or read), run through
the chosen detection strategy, and fed to the tracker; one detections
record and one tracks record are emitted per frame. Memory use is
independent of the stream length.

Strategies:
    tiles      overlapping vertical tiles, fusion across the overlaps
    roi        downscaled full frame + full-resolution crop on the target
    fullframe  downscaled full frame only (the naive baseline)
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .detect import (
    DetectionResult,
    DetectorPort,
    RoiConfig,
    TilesConfig,
    build_tiles,
    detection_pixels,
    fullframe_viewport,
    roi_viewport,
    run_viewports,
)
from .exceptions import ConfigError, InputError, PanotrackError
from .geometry import CameraModel, ImagePoint, _field, check_number
from .io import detections_from_record, detections_record, tracks_record
from .sim import Scenario, SyntheticDetector, run_scenario
from .tracker import PanoTracker, TrackerConfig

logger = logging.getLogger(__name__)

STRATEGIES = ("tiles", "roi", "fullframe")
FIRST_FRAME_FPS = 30.0  # sets the time step of an offline run's first frame


@dataclass
class FrameOutput:
    """One frame's detections and tracks records, which hold its
    ``frame`` and ``t``, and its latency and partial flag."""

    detections: dict
    tracks: dict
    latency_s: float
    partial: bool


class StrategyRunner:
    """Picks each frame's viewports for one detection strategy and runs
    them through the detector: the tiles, the downscaled full frame
    then a crop on the target prediction (roi with a prediction), or
    the downscaled full frame alone. The tiles and the full frame are
    fixed, so they are made, and their sizes checked against the
    camera, once."""

    def __init__(
        self,
        strategy: str,
        cam: CameraModel,
        detector: DetectorPort,
        tiles_cfg: TilesConfig = TilesConfig(),
        roi_cfg: RoiConfig = RoiConfig(),
    ) -> None:
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        self.strategy = strategy
        self.cam = cam
        self.detector = detector
        self.roi_cfg = roi_cfg
        if strategy == "tiles":
            self.tiles = build_tiles(cam, tiles_cfg)
            self.merge_threshold = tiles_cfg.merge_threshold
        else:
            self.full = fullframe_viewport(cam, roi_cfg)
            self.merge_threshold = roi_cfg.merge_threshold

    def detect(self, frame, target_prediction: Optional[ImagePoint]) -> DetectionResult:
        if self.strategy == "tiles":
            viewports = self.tiles
        elif self.strategy == "roi" and target_prediction is not None:
            viewports = (self.full, roi_viewport(target_prediction, self.cam, self.roi_cfg))
        else:
            viewports = (self.full,)
        return run_viewports(frame, self.detector, viewports, self.cam, self.merge_threshold)


def target_prediction(record: dict) -> Optional[ImagePoint]:
    """Image position at which the roi strategy should center its crop:
    the target's projected neck, ``img_x`` and ``img_y`` of a
    ``tracks_record``, unless the target is lost."""
    for track in record["tracks"]:
        if track["is_target"] and track["status"] != "lost":
            return ImagePoint(track["img_x"], track["img_y"])
    return None


def run_simulated(
    scenario: Scenario,
    strategy: str,
    tracker_cfg: TrackerConfig = TrackerConfig(),
    tiles_cfg: TilesConfig = TilesConfig(),
    roi_cfg: RoiConfig = RoiConfig(),
) -> Iterator[tuple[FrameOutput, Optional[dict]]]:
    """Run strategy + tracker over a scenario, yielding per-frame
    outputs paired with the ground-truth record (None off-schedule).
    The runner and tracker are built, and their configs checked, when
    this is called; the frames are produced lazily."""
    detector = SyntheticDetector.for_scenario(scenario)
    runner = StrategyRunner(strategy, scenario.cam, detector, tiles_cfg, roi_cfg)
    return _simulated_frames(scenario, runner, PanoTracker(scenario.cam, tracker_cfg))


def _simulated_frames(
    scenario: Scenario, runner: StrategyRunner, tracker: PanoTracker
) -> Iterator[tuple[FrameOutput, Optional[dict]]]:
    cam = scenario.cam
    dt = 1.0 / scenario.fps
    prediction = None
    for snapshot, gt in run_scenario(scenario):
        start = time.perf_counter()
        result = runner.detect(snapshot, prediction)
        tracks = tracker.step(detection_pixels(result.detections, cam.image_width), dt)
        latency = time.perf_counter() - start
        record = tracks_record(snapshot.index, snapshot.t, tracks, cam)
        prediction = target_prediction(record)
        yield (
            FrameOutput(
                detections=detections_record(snapshot.index, snapshot.t, result.detections),
                tracks=record,
                latency_s=latency,
                partial=result.partial,
            ),
            gt,
        )


def run_offline(
    detection_records: Iterator[dict],
    cam: CameraModel,
    tracker_cfg: TrackerConfig = TrackerConfig(),
) -> Iterator[FrameOutput]:
    """Track over an externally produced detections JSONL stream. A
    malformed record, one whose frame number or timestamp is not
    greater than the previous record's, or one whose time step since
    that record is not finite, raises InputError naming its 1-based
    position in the stream; gaps in the frame numbers are allowed."""
    tracker = PanoTracker(cam, tracker_cfg)
    prev_frame: Optional[int] = None
    prev_t: Optional[float] = None
    for n, record in enumerate(detection_records, start=1):
        start = time.perf_counter()
        where = f"detections record {n}"
        frame = int(_field(record, "frame", where, integer=True))
        t = float(_field(record, "t", where))
        try:
            if prev_frame is not None and frame <= prev_frame:
                raise InputError(f"frame {frame} does not follow frame {prev_frame}")
            if prev_t is not None and t <= prev_t:
                raise InputError(f"t {t} does not follow t {prev_t}")
            dt = 1.0 / FIRST_FRAME_FPS if prev_t is None else t - prev_t
            check_number("dt", dt, 0.0, strict=True)
            dets, pix = detections_from_record(record, cam)
        except PanotrackError as exc:
            raise InputError(f"{where}: {exc}") from exc
        prev_frame, prev_t = frame, t
        tracks = tracker.step(pix, dt)
        latency = time.perf_counter() - start
        yield FrameOutput(
            detections={"frame": frame, "t": t, "detections": dets},
            tracks=tracks_record(frame, t, tracks, cam),
            latency_s=latency,
            partial=False,
        )


def log_latency_percentiles(latencies_s: Sequence[float]) -> None:
    if not latencies_s:
        return
    import numpy as np

    ms = np.asarray(latencies_s) * 1000.0
    logger.info(
        "per-frame latency ms: p50=%.3f p90=%.3f p99=%.3f",
        float(np.percentile(ms, 50)),
        float(np.percentile(ms, 90)),
        float(np.percentile(ms, 99)),
    )
