"""Synthetic scenes: scripted agents projected through the camera model
into noisy skeleton detections, with ground truth for evaluation.

The simulator plays the role of both the recorded video and the neural
skeleton detector. A frame is a world snapshot, not a rasterized image:
the synthetic detector projects the agents visible in a viewport into
joints objects ``{name: [x, y, 1.0]}``, the detector port's output,
which ``detect.dereference`` checks. It applies a resolution-dependent
detectability cutoff (people whose projected body height at the
processed scale is too small are missed, reproducing the way small
far-away people disappear from downscaled passes), optionally occludes
agents hidden behind nearer ones, and perturbs joints with Gaussian
pixel noise. A frame is projected once: each agent's skeleton, body
height and occlusion are computed on the frame snapshot the first time
they are needed, and every viewport and the ground truth read them from
there. A skeleton is a dict of ``(column, row)`` float pairs in joint
name order, which both read as stored, with no sort. An in-process
ground-truth record holds a copy of that dict, whose values are the
skeleton's own immutable tuples; JSON writes a tuple as a list, so the
ground-truth file is the ``{name: [x, y]}`` it always was.

Randomness is drawn from a substream keyed by (seed, frame index,
viewport), so a viewport's detections do not depend on which other
viewports the frame's plan holds or on their order.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

import numpy as np

from .detect import Viewport
from .exceptions import ConfigError, GeometryError, InputError
from .geometry import (
    CameraModel,
    check_flag,
    check_number,
    column_range,
    cyclic_interval_overlap,
    cyclic_neighbours,
    from_dict,
    row_at_height,
)
from .io import read_json

MIN_AGENT_RANGE = 0.3  # m; agents closer to the camera axis are degenerate


@dataclass(frozen=True)
class CircleTrajectory:
    """Constant-speed circular path around ``center``."""

    radius: float
    center: tuple[float, float] = (0.0, 0.0)
    angular_speed: float = 30.0  # deg/s, positive = counterclockwise
    start_angle: float = 0.0  # deg

    def __post_init__(self) -> None:
        check_number("radius", self.radius, 0.0, strict=True)
        check_number("center", self.center, length=2)
        check_number("angular_speed", self.angular_speed)
        check_number("start_angle", self.start_angle)

    def pose(self, t: float) -> tuple[float, float]:
        ang = math.radians(self.start_angle + self.angular_speed * t)
        x = self.center[0] + self.radius * math.cos(ang)
        y = self.center[1] + self.radius * math.sin(ang)
        return x, y


@dataclass(frozen=True)
class WaypointTrajectory:
    """Constant-speed polyline; the agent holds the last waypoint after
    reaching it. A single waypoint is a stationary agent; a repeated
    waypoint is a segment of length 0, which takes no time."""

    points: tuple[tuple[float, float], ...]
    speed: float = 1.0  # m/s

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple) or not self.points:
            raise ConfigError(f"points must be a list of at least one point, got {self.points!r}")
        for p in self.points:
            check_number("waypoint", p, length=2)
        check_number("speed", self.speed, 0.0, strict=True)

    def pose(self, t: float) -> tuple[float, float]:
        pts = self.points
        remaining = self.speed * t
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            seg = math.hypot(x1 - x0, y1 - y0)
            if remaining <= seg:
                frac = remaining / seg if seg > 0 else 0.0
                return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
            remaining -= seg
        return pts[-1][0], pts[-1][1]


Trajectory = Union[CircleTrajectory, WaypointTrajectory]


@dataclass(frozen=True)
class Body:
    """Simplified body dimensions used for joint placement."""

    height: float = 1.7
    ankle_height: float = 0.1
    shoulder_half_width: float = 0.2
    hip_half_width: float = 0.15
    neck_drop: float = 0.25  # m below the top of the head

    def __post_init__(self) -> None:
        check_number("height", self.height, 1.4, 2.1)
        for name in ("ankle_height", "shoulder_half_width", "hip_half_width", "neck_drop"):
            check_number(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class Agent:
    id: int
    trajectory: Trajectory
    body: Body = Body()

    def __post_init__(self) -> None:
        check_number("agent id", self.id, integer=True)


@dataclass(frozen=True)
class NoiseModel:
    """Per-joint detector noise, in pixels at the processed resolution
    of the viewport (a detector is about as precise as the image it
    actually sees, so full-frame downscaled passes are proportionally
    noisier in full-image coordinates)."""

    joint_sigma: float = 0.0
    miss_prob: float = 0.0
    occlusion_enabled: bool = False

    def __post_init__(self) -> None:
        check_number("joint_sigma", self.joint_sigma, 0.0)
        check_number("miss_prob", self.miss_prob, 0.0, 1.0)
        check_flag("occlusion_enabled", self.occlusion_enabled)


@dataclass(frozen=True)
class DetectabilityConfig:
    """Minimum projected body height, in pixels at the viewport's
    processed resolution, for an agent to be detectable. The default of
    48 is calibrated so that a 1.7 m person seen by a 1.2 m camera
    becomes undetectable between 3 and 4 m on a 640x320 full-frame pass
    while remaining detectable at full resolution well past 8 m."""

    min_person_pixels: float = 48.0

    def __post_init__(self) -> None:
        check_number("min_person_pixels", self.min_person_pixels, 0.0, strict=True)


@dataclass(frozen=True)
class Scenario:
    fps: float
    duration: float
    agents: tuple[Agent, ...]
    cam: CameraModel = CameraModel()
    noise: NoiseModel = NoiseModel()
    detect_cfg: DetectabilityConfig = DetectabilityConfig()
    seed: int = 0
    camera_trajectory: Optional[Trajectory] = None
    annotate_every: int = 1
    annotate_from: int = 0

    def __post_init__(self) -> None:
        check_number("fps", self.fps, 0.0, strict=True)
        check_number("duration", self.duration, 0.0, strict=True)
        check_number("fps * duration", self.fps * self.duration)
        if self.n_frames < 1:
            raise ConfigError(f"round(fps * duration) must be >= 1 frame, got {self.n_frames}")
        check_number("seed", self.seed, 0, integer=True)
        check_number("annotate_every", self.annotate_every, 1, integer=True)
        check_number("annotate_from", self.annotate_from, 0, integer=True)
        if not self.agents:
            raise ConfigError("scenario needs at least one agent")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigError("agent ids must be unique")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.fps))


@dataclass(frozen=True)
class AgentState:
    """An agent's position for one frame, in the camera-centered frame."""

    agent: Agent
    x: float
    y: float

    @cached_property
    def ground_range(self) -> float:
        return math.hypot(self.x, self.y)


def project_agent(state: AgentState, cam: CameraModel) -> dict[str, tuple[float, float]]:
    """Noise-free skeleton of an agent: each joint's full-resolution
    ``(column, row)`` pixel, by name, in name order.

    The neck sits on the body axis; paired joints are offset
    symmetrically in azimuth at the same ground range (half-widths
    measured sideways relative to the line of sight). Equal-range
    placement keeps the pixel midpoint of each joint pair an exact
    inverse of the axis projection, so localizing the ankle midpoint
    recovers the agent position without a stance-geometry bias.
    """
    rho = state.ground_range
    if rho <= MIN_AGENT_RANGE:
        raise GeometryError(f"agent {state.agent.id} at range {rho:.3f} m is under the camera")
    body = state.agent.body
    theta = math.atan2(state.y, state.x)

    neck_z = body.height - body.neck_drop
    hip_z = 0.55 * body.height

    # each joint's column and range; the hip and ankle on one side share them
    columns = []
    for lateral in (
        0.0, body.shoulder_half_width, -body.shoulder_half_width,
        body.hip_half_width, -body.hip_half_width,
    ):
        ang = theta + math.atan2(lateral, rho)
        columns.append(column_range(rho * math.cos(ang), rho * math.sin(ang), cam))
    (neck_x, neck_r), (ls_x, ls_r), (rs_x, rs_r), (lh_x, lh_r), (rh_x, rh_r) = columns
    return {
        "left_ankle": (lh_x, row_at_height(lh_r, body.ankle_height, cam)),
        "left_hip": (lh_x, row_at_height(lh_r, hip_z, cam)),
        "left_shoulder": (ls_x, row_at_height(ls_r, neck_z, cam)),
        "neck": (neck_x, row_at_height(neck_r, neck_z, cam)),
        "right_ankle": (rh_x, row_at_height(rh_r, body.ankle_height, cam)),
        "right_hip": (rh_x, row_at_height(rh_r, hip_z, cam)),
        "right_shoulder": (rs_x, row_at_height(rs_r, neck_z, cam)),
    }


def projected_body_height_px(state: AgentState, cam: CameraModel) -> float:
    """Full-resolution pixel height of the agent's body (ground to top
    of head) at its current range."""
    d = state.ground_range
    top = math.degrees(math.atan2(state.agent.body.height - cam.mount_height, d))
    bottom = math.degrees(math.atan2(-cam.mount_height, d))
    return (top - bottom) / cam.deg_per_px_y


def _azimuth_interval(state: AgentState) -> tuple[float, float]:
    """(start_deg, length_deg) of the agent's angular footprint."""
    theta = math.degrees(math.atan2(state.y, state.x))
    half = math.degrees(
        math.atan2(state.agent.body.shoulder_half_width, state.ground_range)
    )
    return theta - half, 2.0 * half


@dataclass(frozen=True)
class FrameSnapshot:
    """One simulated frame: the camera and the agents' poses, rendered
    once. The per-agent facts below, in ``agents`` order, are computed
    on first use and cached on the snapshot, so each viewport the
    detector runs on the frame and its ground-truth record read the
    same projection. ``run_scenario`` yields no frame with an agent
    under the camera; on a snapshot built with one, ``skeletons``
    raises GeometryError on every access."""

    index: int
    t: float
    cam: CameraModel
    agents: tuple[AgentState, ...]

    @cached_property
    def skeletons(self) -> tuple[dict[str, tuple[float, float]], ...]:
        """Each agent's noise-free ``project_agent`` joints at full
        resolution."""
        return tuple(project_agent(state, self.cam) for state in self.agents)

    @cached_property
    def body_heights_px(self) -> tuple[float, ...]:
        """Each agent's full-resolution projected body height."""
        return tuple(projected_body_height_px(state, self.cam) for state in self.agents)

    @cached_property
    def occluded(self) -> tuple[bool, ...]:
        """Whether a strictly nearer agent covers more than half of each
        agent's azimuth footprint. Only strictly nearer agents of
        another id are compared.

        An agent meets only the footprints that ``cyclic_neighbours``
        returns for its own: every footprint that may overlap it, and
        so every one that can cover more than half of a footprint of
        positive length. That only pre-filters; the range, id and
        overlap tests run unchanged on each footprint it returns, as in
        an all-pairs loop."""
        footprints = [
            (state.agent.id, state.ground_range, *_azimuth_interval(state))
            for state in self.agents
        ]
        intervals = [(start, length) for _, _, start, length in footprints]
        near = cyclic_neighbours(intervals, intervals, 360.0)
        return tuple(
            length > 0
            and any(
                o_range < a_range
                and o_id != a_id
                and cyclic_interval_overlap(start, length, o_start, o_length, 360.0) > 0.5 * length
                for o_id, o_range, o_start, o_length in map(footprints.__getitem__, window)
            )
            for (a_id, a_range, start, length), window in zip(footprints, near)
        )


def synthetic_detect(
    viewport: Viewport,
    snapshot: FrameSnapshot,
    noise: NoiseModel,
    detect_cfg: DetectabilityConfig,
    seed,
) -> list[dict]:
    """Detect agents visible in a viewport: one joints object ``{name:
    [x, y, 1.0]}`` per agent, in name order and in viewport-local
    processed coordinates.

    An agent is included iff its neck column lies inside the viewport
    (wrap-aware), its projected body height at the processed scale
    reaches min_person_pixels, and it is not occluded by a strictly
    nearer agent covering more than half of its angular footprint (when
    occlusion is enabled). Surviving joints get isotropic Gaussian
    noise; joints drop out with miss_prob, the two ankles jointly. Each
    joint's noise pair leaves numpy as Python floats (one ``.tolist()``),
    so every coordinate is a float, as ``DetectorPort`` asks.

    The draws come from ``np.random.default_rng(seed)``, built just
    before the first draw: a viewport in which nobody is visible builds
    no generator. A Generator as ``seed`` is drawn from as it is.
    """
    width = snapshot.cam.image_width
    origin_x, origin_y, scale = viewport.origin_x, viewport.origin_y, viewport.scale
    miss_prob, sigma = noise.miss_prob, noise.joint_sigma
    heights = snapshot.body_heights_px
    rng = None
    out = []
    for i, sk in enumerate(snapshot.skeletons):
        if not viewport.contains_column(sk["neck"][0], width):
            continue
        if heights[i] * scale < detect_cfg.min_person_pixels:
            continue
        if noise.occlusion_enabled and snapshot.occluded[i]:
            continue

        if rng is None:
            rng = np.random.default_rng(seed)
        drop_ankles = rng.random() < miss_prob
        local = {}
        for name, (x, y) in sk.items():
            if name in ("left_ankle", "right_ankle"):
                dropped = drop_ankles
            else:
                dropped = rng.random() < miss_prob
            nx, ny = rng.normal(0.0, sigma, 2).tolist() if sigma > 0 else (0.0, 0.0)
            if dropped:
                continue
            local[name] = [((x - origin_x) % width) * scale + nx, (y - origin_y) * scale + ny, 1.0]
        if local:
            out.append(local)
    return out


def _viewport_key(viewport: Viewport) -> int:
    packed = struct.pack(
        "<5d",
        viewport.origin_x,
        viewport.origin_y,
        viewport.width,
        viewport.height,
        viewport.scale,
    )
    return zlib.crc32(packed)


@dataclass(frozen=True)
class SyntheticDetector:
    """DetectorPort backed by the scenario's world snapshots.

    The random substream for each call is derived from (seed, frame
    index, viewport geometry), making the detector deterministic and
    independent of the order in which viewports are processed.
    """

    noise: NoiseModel
    detect_cfg: DetectabilityConfig
    seed: int

    def detect(self, frame: FrameSnapshot, viewport: Viewport) -> list[dict]:
        seed = [self.seed, frame.index, _viewport_key(viewport)]
        return synthetic_detect(viewport, frame, self.noise, self.detect_cfg, seed)

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "SyntheticDetector":
        return cls(scenario.noise, scenario.detect_cfg, scenario.seed)


def agent_states(scenario: Scenario, t: float) -> tuple[AgentState, ...]:
    """Agent poses at time t, offset into the camera frame when the
    scenario scripts a camera trajectory."""
    cam_x = cam_y = 0.0
    if scenario.camera_trajectory is not None:
        cam_x, cam_y = scenario.camera_trajectory.pose(t)
    states = []
    for agent in scenario.agents:
        x, y = agent.trajectory.pose(t)
        states.append(AgentState(agent=agent, x=x - cam_x, y=y - cam_y))
    return tuple(states)


def ground_truth_record(scenario: Scenario, snapshot: FrameSnapshot) -> dict:
    """One ground-truth JSONL record: camera-frame agent positions and
    noise-free joints; agent 0 in declaration order is the target. Each
    agent's ``joints`` is a new dict of the skeleton's ``(column, row)``
    tuples, so writing to it leaves the snapshot as it was."""
    target_id = scenario.agents[0].id
    agents = []
    for state, sk in zip(snapshot.agents, snapshot.skeletons):
        agents.append(
            {
                "id": state.agent.id,
                "x": state.x,
                "y": state.y,
                "joints": dict(sk),
                "is_target": state.agent.id == target_id,
            }
        )
    return {"frame": snapshot.index, "t": snapshot.t, "agents": agents}


def run_scenario(scenario: Scenario) -> Iterator[tuple[FrameSnapshot, Optional[dict]]]:
    """Stream (frame snapshot, ground-truth record) pairs.

    The ground-truth record is None on frames outside the scenario's
    annotation schedule. Deterministic given the scenario (randomness
    only enters through the detector port). A frame with an agent
    whose camera-frame position is not finite (a trajectory that
    overflows), or that is within ``MIN_AGENT_RANGE`` of the camera
    axis, raises InputError naming the frame and the agent; the frames
    before it are yielded."""
    for i in range(scenario.n_frames):
        t = i / scenario.fps
        agents = agent_states(scenario, t)
        for state in agents:
            if not (math.isfinite(state.x) and math.isfinite(state.y)):
                raise InputError(
                    f"frame {i}: agent {state.agent.id} position ({state.x!r}, {state.y!r})"
                    " is not finite"
                )
            if state.ground_range <= MIN_AGENT_RANGE:
                raise InputError(
                    f"frame {i}: agent {state.agent.id} at range {state.ground_range:.3f} m"
                    f" is under the camera (within {MIN_AGENT_RANGE} m of its axis)"
                )
        snapshot = FrameSnapshot(index=i, t=t, cam=scenario.cam, agents=agents)
        annotated = (
            i >= scenario.annotate_from
            and (i - scenario.annotate_from) % scenario.annotate_every == 0
        )
        gt = ground_truth_record(scenario, snapshot) if annotated else None
        yield snapshot, gt


# --- scenario (de)serialization -------------------------------------------


def _trajectory_to_dict(traj: Trajectory) -> dict:
    if isinstance(traj, CircleTrajectory):
        return {
            "type": "circle",
            "center": list(traj.center),
            "radius": traj.radius,
            "angular_speed": traj.angular_speed,
            "start_angle": traj.start_angle,
        }
    return {
        "type": "waypoints",
        "points": [list(p) for p in traj.points],
        "speed": traj.speed,
    }


def _trajectory_from_dict(d) -> Trajectory:
    kind = d.get("type") if isinstance(d, dict) else None
    if kind not in ("circle", "waypoints"):
        raise InputError(f"trajectory needs a type of 'circle' or 'waypoints', got {d!r}")
    cls = CircleTrajectory if kind == "circle" else WaypointTrajectory
    return from_dict(cls, {k: v for k, v in d.items() if k != "type"}, "trajectory")


def _agent_from_dict(d) -> Agent:
    return from_dict(
        Agent,
        d,
        "agent",
        trajectory=_trajectory_from_dict,
        body=lambda b: from_dict(Body, b, "body"),
    )


def _agents_from_json(agents) -> tuple[Agent, ...]:
    if not isinstance(agents, tuple):
        raise ConfigError(f"agents must be a list, got {agents!r}")
    return tuple(map(_agent_from_dict, agents))


def scenario_to_dict(s: Scenario) -> dict:
    d = {
        "cam": s.cam.to_dict(),
        "fps": s.fps,
        "duration": s.duration,
        "agents": [
            {
                "id": a.id,
                "trajectory": _trajectory_to_dict(a.trajectory),
                "body": asdict(a.body),
            }
            for a in s.agents
        ],
        "noise": asdict(s.noise),
        "detect_cfg": asdict(s.detect_cfg),
        "seed": s.seed,
        "annotate_every": s.annotate_every,
        "annotate_from": s.annotate_from,
    }
    if s.camera_trajectory is not None:
        d["camera_trajectory"] = _trajectory_to_dict(s.camera_trajectory)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    """Read a scenario object; ``camera_trajectory: null`` is the
    default, no camera motion."""
    return from_dict(
        Scenario,
        d,
        "scenario",
        cam=CameraModel.from_dict,
        agents=_agents_from_json,
        noise=lambda n: from_dict(NoiseModel, n, "noise"),
        detect_cfg=lambda c: from_dict(DetectabilityConfig, c, "detect_cfg"),
        camera_trajectory=lambda t: None if t is None else _trajectory_from_dict(t),
    )


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(read_json(path))
