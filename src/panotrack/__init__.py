"""People detection and tracking for equirectangular panoramic video.

The package splits into:

* ``geometry``: the equirectangular camera model and wrap-aware image math
* ``detect``: viewport planning (tiles / roi), dispatch and duplicate fusion
* ``tracker``: wrap-corrected UKF tracking with global-nearest-neighbour
  association and target maintenance
* ``sim``: synthetic scenarios acting as detector and ground-truth oracle
* ``metrics``: target-tracking evaluation and error-vs-distance curves
* ``pipeline`` / ``cli``: streaming runs and the command-line interface
"""

from .detect import (
    DetectionResult,
    DetectorPort,
    RoiConfig,
    TilesConfig,
    Viewport,
    build_tiles,
    detection_pixels,
    fuse_duplicates,
    merge_score,
    run_viewports,
    torso_bbox,
)
from .exceptions import (
    AboveHorizonError,
    ConfigError,
    DegenerateSkeletonError,
    FilterDivergenceError,
    GeometryError,
    InputError,
    PanotrackError,
)
from .geometry import (
    CameraModel,
    ImagePoint,
    PolarDirection,
    WorldPoint,
    estimate_height,
    ground_range,
    image_to_polar,
    localization_sensitivity,
    localize,
    signed_wrap_diff,
    world_to_image,
)
from .metrics import EvalReport, FrameMatch, evaluate, match_frames
from .sim import (
    Agent,
    Body,
    CircleTrajectory,
    DetectabilityConfig,
    NoiseModel,
    Scenario,
    SyntheticDetector,
    WaypointTrajectory,
    load_scenario,
    run_scenario,
)
from .tracker import (
    PanoTracker,
    Track,
    TrackerConfig,
    TrackTable,
    associate,
)

__version__ = "0.1.0"
