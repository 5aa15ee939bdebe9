"""Viewport planning and detection fusion for panoramic frames.

Two strategies reduce the cost of running a skeleton detector on a
large panorama:

* tiles: split the image into n equal, slightly overlapping vertical
  tiles (the last and first tile overlap across the seam) and run the
  detector once per tile, fusing duplicates found in overlap zones.
* roi: run one pass on a downscaled full frame plus one full-resolution
  pass on a crop centered on the tracked target, again fusing
  duplicates. Without a target prediction only the downscaled pass
  runs.

A plan is just its viewports, in order: ``run_viewports`` executes
any plan, and detections may be duplicates only between plan-order
neighbours, viewports i and i + 1 (mod n). That is the tiles' cyclic
overlap, and the (full frame, crop) pair of roi.

Duplicates are identified by the containment score of the torso
bounding boxes: intersection area over the smaller box area. Boxes of
the same person seen from two viewports contain each other almost
exactly, while different people at different ranges produce boxes of
very different size and placement.

The detector itself is injected through the ``DetectorPort`` protocol.
Frames are opaque handles interpreted only by the port. A detection
has one form from the port to the detections JSONL: a joints object
``{name: [x, y, confidence]}``. The port returns it viewport-local at
the processed scale; ``dereference`` maps it to full-image coordinates
and ``check_detection``, the one joint rule of the port's output and
of the offline reader, checks it: a detection already in normal form
is returned as itself, any other is normalized into a new object.
``pixel_row`` turns it into the tracker's measurement pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .exceptions import ConfigError, DegenerateSkeletonError
from .geometry import (
    CameraModel,
    ImagePoint,
    check_number,
    cyclic_interval_overlap,
    cyclic_neighbours,
)

JOINT_NAMES = (
    "neck",
    "left_ankle",
    "right_ankle",
    "left_shoulder",
    "right_shoulder",
    "left_hip",
    "right_hip",
)

_JOINT_NAME_SET = frozenset(JOINT_NAMES)

TORSO_JOINTS = ("neck", "left_shoulder", "right_shoulder", "left_hip", "right_hip")

DEFAULT_TILE_OVERLAP = 150  # px at 1920 width; scaled for other widths
DEFAULT_MERGE_THRESHOLD = 0.9
DEFAULT_TILE_FOV_BAND = 60.0  # tiles keep rows with |elevation| <= this
NO_PIXEL = (math.nan, math.nan)  # the column and row of an absent joint
Box = tuple[float, float, float, float]  # a torso box (x, y, w, h), x cyclic


def check_joint(x, y, confidence=1.0) -> float:
    """The joint rule, the confidence 1.0 when absent: finite coordinates
    and a confidence in [0, 1], which is returned as a float."""
    if not 0.0 <= confidence <= 1.0:
        raise ConfigError(f"confidence must be in [0, 1], got {confidence}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"joint coordinates must be finite, got {(x, y)}")
    return float(confidence)


def check_joint_names(names) -> None:
    """A detection's joints: at least one, each with a known name."""
    if not names:
        raise DegenerateSkeletonError("skeleton has no joints")
    if not _JOINT_NAME_SET.issuperset(names):
        unknown = set(names) - _JOINT_NAME_SET
        raise ConfigError(f"unknown joint names: {sorted(unknown)}")


def check_detection(joints, image_height: float) -> dict:
    """The detection rule, for the detector port's output and the
    offline reader alike: ``{name: (x, y[, confidence])}`` with known
    names, each joint passing ``check_joint`` and its row in
    [0, image_height]. A detection already in normal form, its names in
    order and each joint an ``[x, y, confidence]`` list with a float
    confidence, is returned itself; any other is returned normalized to
    that form as a new object, the coordinates as given. The input is
    never changed. A normal detection of floats that passes every rule
    is accepted in one pass; any other takes the full check, which
    raises the error of the first joint that breaks a rule."""
    if _normal_floats(joints, image_height):
        return joints
    check_joint_names(joints)
    ordered = sorted(joints) == list(joints)
    items = joints.items() if ordered else sorted(joints.items())
    normal = ordered
    for name, v in items:
        check_joint(*v)
        if not 0 <= v[1] <= image_height:
            raise ConfigError(f"joint row {v[1]} is outside the image rows [0, {image_height}]")
        normal = normal and type(v) is list and len(v) == 3 and type(v[2]) is float
    if normal:
        return joints
    return {name: [v[0], v[1], check_joint(*v)] for name, v in items}


def _normal_floats(joints, image_height: float) -> bool:
    """Whether ``joints`` is a non-empty dict of known names in order,
    each an ``[x, y, confidence]`` list of floats that passes the joint
    and row rules. Type tests come first, so no joint can raise here."""
    if type(joints) is not dict or not joints:
        return False
    previous = ""
    for name, v in joints.items():
        if not (name in _JOINT_NAME_SET and name > previous and type(v) is list and len(v) == 3):
            return False
        x, y, c = v
        if not (
            type(x) is float and type(y) is float and type(c) is float
            and math.isfinite(x) and 0.0 <= y <= image_height and 0.0 <= c <= 1.0
        ):
            return False
        previous = name
    return True


def pixel_row(joints: dict, image_width: float) -> tuple[float, float, float, float]:
    """A detection's ankle-midpoint column and row, then its neck column
    and row, NaN where the joints are absent. Two ankles more than half
    the width apart meet the short way round the seam, the column taken
    mod the width; one ankle alone is its own midpoint, as given. Two
    columns whose sum is past the largest float meet at ``ax / 2 + bx /
    2``, which is finite."""
    a, b = joints.get("left_ankle"), joints.get("right_ankle")
    neck = joints.get("neck") or NO_PIXEL
    if a is None or b is None:
        one = a or b or NO_PIXEL
        return (one[0], one[1], neck[0], neck[1])
    ax, bx = a[0], b[0]
    if abs(ax - bx) > image_width / 2:
        ax, bx = (ax + image_width, bx) if ax < bx else (ax, bx + image_width)
    try:
        mid = (ax + bx) / 2.0
        if math.isinf(mid):  # a float sum that overflows
            raise OverflowError
    except OverflowError:  # or an integer sum that no float holds
        mid = ax / 2 + bx / 2
    return (mid % image_width, (a[1] + b[1]) / 2.0, neck[0], neck[1])


def detection_pixels(dets: Sequence[dict], image_width: float) -> np.ndarray:
    """(m, 4) ``pixel_row``s of the detections, for ``PanoTracker.step``."""
    return np.array([pixel_row(d, image_width) for d in dets], dtype=float).reshape(-1, 4)


def reference_x(joints: dict) -> float:
    """Deterministic horizontal anchor: the neck column if present,
    otherwise the smallest joint column."""
    neck = joints.get("neck")
    return neck[0] if neck else min(v[0] for v in joints.values())


@dataclass(frozen=True)
class Viewport:
    """Sub-rectangle of the panorama processed at a given scale.

    origin_x is cyclic; a viewport whose x-range extends past the image
    width wraps around the seam. ``scale`` is the factor between full
    resolution and the resolution actually fed to the detector, so the
    processed viewport measures (width * scale) x (height * scale).
    """

    origin_x: float
    origin_y: float
    width: float
    height: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("viewport sides must be positive")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")

    def contains_column(self, x: float, image_width: float) -> bool:
        offset = (x - self.origin_x) % image_width
        return offset < self.width


class DetectorPort(Protocol):
    """Injected skeleton detector.

    ``detect`` receives an opaque frame handle plus the viewport to
    process and returns one joints object per person, ``{name: (x, y)}``
    or ``{name: (x, y, confidence)}`` in viewport-local coordinates at
    the processed scale; ``dereference`` maps each one to full-image
    ``[x, y, *rest]`` lists and checks it there with ``check_detection``,
    which keeps that object when its names are in order and each joint
    carries a float confidence, and normalizes a copy otherwise. No
    step converts the coordinates' type, so a port
    should return Python numbers, not numpy scalars (one ``.tolist()``
    converts an array): every later step does per-joint scalar
    arithmetic on them. Implementations must be deterministic for a
    fixed (frame, viewport, seed). Calls are sequential, one per
    viewport in plan order.
    """

    def detect(self, frame, viewport: Viewport) -> list[dict]: ...


@dataclass
class DetectionResult:
    """Fused detections, each a ``check_detection`` joints object in
    full-image coordinates, plus any per-viewport detector failures."""

    detections: list[dict]
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.errors)

    def __len__(self) -> int:
        return len(self.detections)


def default_row_range(cam: CameraModel) -> tuple[float, float]:
    """Row interval keeping elevations within +-DEFAULT_TILE_FOV_BAND
    degrees."""
    top = (90.0 - DEFAULT_TILE_FOV_BAND) / cam.deg_per_px_y
    bottom = (90.0 + DEFAULT_TILE_FOV_BAND) / cam.deg_per_px_y
    return (top, min(bottom, float(cam.image_height)))


def build_tiles(cam: CameraModel, cfg: TilesConfig) -> tuple[Viewport, ...]:
    """Plan ``cfg.n_tiles`` equal vertical tiles with cyclic pairwise
    overlap.

    Tile i spans columns [i * W/n, (i + 1) * W/n + overlap); the last
    tile wraps past the seam so that the (last, first) pair overlaps by
    the same amount as interior pairs. Rows are clipped to the row
    range (default: the +-60 degree elevation band, where people can
    appear).
    """
    n_tiles, overlap, row_range = cfg.n_tiles, cfg.overlap, cfg.row_range
    if overlap is None:
        overlap = DEFAULT_TILE_OVERLAP * cam.image_width / 1920.0
    if overlap >= cam.image_width / n_tiles:
        raise ConfigError(
            f"overlap {overlap} invalid for width {cam.image_width} and "
            f"{n_tiles} tiles"
        )
    if row_range is None:
        row_range = default_row_range(cam)
    y0, y1 = row_range
    if not 0 <= y0 < y1 <= cam.image_height:
        raise ConfigError(f"row range {row_range} outside image")
    step = cam.image_width / n_tiles
    return tuple(
        Viewport(
            origin_x=(i * step) % cam.image_width,
            origin_y=y0,
            width=step + overlap,
            height=y1 - y0,
            scale=1.0,
        )
        for i in range(n_tiles)
    )


def torso_bbox(joints: dict, image_width: float) -> Optional[Box]:
    """Tight wrap-aware box (x, y, w, h) over the present
    neck/shoulder/hip joints, x cyclic and in [0, W); None without the
    neck and at least one shoulder or hip.

    When the joint columns straddle the seam (x-spread over half the
    width), columns left of the midline are unwrapped by +width before
    taking min/max. Degenerate extents are clamped to 1 px.
    """
    pts = [joints[n] for n in TORSO_JOINTS if n in joints]
    if "neck" not in joints or len(pts) < 2:
        return None
    xs = [p[0] % image_width for p in pts]
    x0, x1 = min(xs), max(xs)
    if x1 - x0 > image_width / 2:
        xs = [x + image_width if x < image_width / 2 else x for x in xs]
        x0, x1 = min(xs), max(xs)
    ys = [p[1] for p in pts]
    y0 = min(ys)
    return x0 % image_width, y0, max(x1 - x0, 1.0), max(max(ys) - y0, 1.0)


def merge_score(a: Box, b: Box, image_width: float) -> float:
    """Containment score of two ``torso_bbox`` boxes: intersection area
    over the smaller box area.

    1.0 whenever one box contains the other; 0.0 for disjoint boxes.
    Horizontal extents intersect cyclically. The score is symmetric to
    the last bit: swapping the boxes never changes it.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = cyclic_interval_overlap(ax, aw, bx, bw, image_width)
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    return ix * iy / min(aw * ah, bw * bh)


def fuse_duplicates(
    dets: Sequence[tuple[dict, int]],
    n_viewports: int,
    image_width: float,
    sigma1: float = DEFAULT_MERGE_THRESHOLD,
) -> list[dict]:
    """Collapse duplicate detections from plan-order neighbours.

    Args:
        dets: (joints, source viewport index) pairs, each joints object
            a ``check_detection`` result in full-image coordinates.
        n_viewports: the number of viewports in the plan. Viewports i
            and i + 1 (mod n) may see the same person: the single pair
            (0, 1) when n is 2, and no pair when n is 1. Detections
            from any other pair never merge.
        image_width: panorama width, for wrap-aware torso boxes.
        sigma1: containment-score threshold in (0, 1] at or above which
            two boxes are considered the same person.

    Detection pairs whose torso boxes score >= sigma1 are grouped
    transitively (union-find) and each group keeps its most complete
    detection: most present joints, ties broken by higher mean
    confidence, then by (viewport index, anchor column) for
    determinism. Output is ordered by (viewport index, anchor column).

    Only pairs from neighbouring viewports are visited, and a box meets
    only the other viewport's boxes that ``cyclic_neighbours`` returns
    for its columns: every box whose columns may overlap its own, which
    is every box that can score above 0. That only pre-filters; each
    pair it returns takes the score, as an all-pairs loop would. The
    score is symmetric to the last bit, so it does not depend on which
    box of a pair comes first. The groups, the order of their members
    and of the survivors do not depend on the order in which pairs are
    visited.
    """
    check_number("sigma1", sigma1, 0.0, 1.0, strict=True)
    items = list(dets)
    # (n - 1, 0) is the pair (0, 1) again when n is 2
    n_pairs = n_viewports if n_viewports > 2 else n_viewports - 1
    pairs = [(v, (v + 1) % n_viewports) for v in range(n_pairs)]
    boxes = [torso_bbox(joints, image_width) for joints, _ in items]
    # viewport -> the item indices of its boxes, and their column spans
    by_viewport: dict[int, list[int]] = {}
    for i, box in enumerate(boxes):
        if box is not None:
            by_viewport.setdefault(items[i][1], []).append(i)
    spans = {v: [(boxes[i][0], boxes[i][2]) for i in idx] for v, idx in by_viewport.items()}

    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for va, vb in pairs:
        if va not in by_viewport or vb not in by_viewport:
            continue
        others = by_viewport[vb]
        near = cyclic_neighbours(spans[va], spans[vb], image_width)
        for i, window in zip(by_viewport[va], near):
            for k in window:
                j = others[k]
                if merge_score(boxes[i], boxes[j], image_width) >= sigma1:
                    r_i, r_j = find(i), find(j)
                    if r_i != r_j:
                        parent[r_j] = r_i

    groups: dict[int, list[int]] = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)

    def quality(i: int):
        joints, vp_idx = items[i]
        confidence = sum(v[2] for v in joints.values()) / len(joints)
        return (len(joints), confidence, -vp_idx, -reference_x(joints))

    survivors = [max(g, key=quality) for g in groups.values()]
    survivors.sort(key=lambda i: (items[i][1], reference_x(items[i][0])))
    return [items[i][0] for i in survivors]


def dereference(joints: dict, viewport: Viewport, cam: CameraModel) -> dict:
    """Convert a port detection's viewport-local joint coordinates (at
    the processed scale) to full-image coordinates, and check it there
    with ``check_detection``."""
    return check_detection(
        {
            name: [
                (viewport.origin_x + v[0] / viewport.scale) % cam.image_width,
                viewport.origin_y + v[1] / viewport.scale,
                *v[2:],
            ]
            for name, v in joints.items()
        },
        cam.image_height,
    )


def run_viewports(
    frame,
    detector: DetectorPort,
    viewports: Sequence[Viewport],
    cam: CameraModel,
    sigma1: float = DEFAULT_MERGE_THRESHOLD,
) -> DetectionResult:
    """Run the detector once per viewport, in plan order, and fuse
    duplicates between plan-order neighbours (see ``fuse_duplicates``).

    A viewport whose detect call or dereference raises, a detection
    that breaks ``check_detection`` included, is reported in
    ``errors``; the other viewports' detections are still returned. A
    single-viewport plan returns its detections in detector order,
    unfused.
    """
    tagged: list[tuple[dict, int]] = []
    errors: dict[int, str] = {}
    for i, vp in enumerate(viewports):
        try:
            found = [(dereference(d, vp, cam), i) for d in detector.detect(frame, vp)]
        except Exception as exc:  # noqa: BLE001 - surfaced per viewport
            errors[i] = f"{type(exc).__name__}: {exc}"
        else:
            tagged.extend(found)
    if len(viewports) == 1:
        return DetectionResult(detections=[d for d, _ in tagged], errors=errors)
    fused = fuse_duplicates(tagged, len(viewports), cam.image_width, sigma1)
    return DetectionResult(detections=fused, errors=errors)


@dataclass(frozen=True)
class TilesConfig:
    """Settings for the tiles strategy. ``overlap`` None means 150 px
    scaled to the image width; ``row_range`` None means the +-60 degree
    elevation band. Bounds that depend on the camera are checked by
    ``build_tiles``."""

    n_tiles: int = 3
    overlap: Optional[float] = None
    merge_threshold: float = DEFAULT_MERGE_THRESHOLD
    row_range: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        check_number("n_tiles", self.n_tiles, 2, integer=True)
        if self.overlap is not None:
            check_number("overlap", self.overlap, 0.0)
        check_number("merge_threshold", self.merge_threshold, 0.0, 1.0, strict=True)
        if self.row_range is not None:
            check_number("row_range", self.row_range, 0.0, length=2)


@dataclass(frozen=True)
class RoiConfig:
    """Sizes for the roi strategy: the full-resolution crop and the
    processed width of the downscaled full-frame pass (its height
    follows from the camera's aspect ratio)."""

    roi_width: int = 576
    roi_height: int = 192
    full_width: int = 640
    merge_threshold: float = DEFAULT_MERGE_THRESHOLD

    def __post_init__(self) -> None:
        for name in ("roi_width", "roi_height", "full_width"):
            check_number(name, getattr(self, name), 1, integer=True)
        check_number("merge_threshold", self.merge_threshold, 0.0, 1.0, strict=True)


def fullframe_viewport(cam: CameraModel, cfg: RoiConfig) -> Viewport:
    """The downscaled full-frame pass. Checks every roi size against
    the camera, so a run can make it once before its first frame."""
    scale = cfg.full_width / cam.image_width
    if scale > 1.0:
        raise ConfigError("processed full-frame size exceeds the native size")
    if cfg.roi_width > cam.image_width or cfg.roi_height > cam.image_height:
        raise ConfigError(
            f"roi crop {cfg.roi_width}x{cfg.roi_height} exceeds the "
            f"{cam.image_width}x{cam.image_height} image"
        )
    return Viewport(
        origin_x=0.0,
        origin_y=0.0,
        width=float(cam.image_width),
        height=float(cam.image_height),
        scale=scale,
    )


def roi_viewport(center: ImagePoint, cam: CameraModel, cfg: RoiConfig) -> Viewport:
    """Full-resolution crop centered (wrap-aware in x, clamped in y) on
    the predicted target position."""
    ox = (center.x - cfg.roi_width / 2.0) % cam.image_width
    oy = min(max(center.y - cfg.roi_height / 2.0, 0.0), cam.image_height - cfg.roi_height)
    return Viewport(
        origin_x=ox,
        origin_y=oy,
        width=float(cfg.roi_width),
        height=float(cfg.roi_height),
        scale=1.0,
    )
