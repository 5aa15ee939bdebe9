import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panotrack import detect, sim
from panotrack.detect import (
    JOINT_NAMES,
    RoiConfig,
    TilesConfig,
    Viewport,
    build_tiles,
    fullframe_viewport,
    pixel_row,
    roi_viewport,
)
from panotrack.exceptions import ConfigError, GeometryError, InputError
from panotrack.geometry import CameraModel, ImagePoint, cyclic_interval_overlap, from_dict, localize
from panotrack.pipeline import STRATEGIES, StrategyRunner, run_offline, run_simulated
from panotrack.sim import (
    Agent,
    AgentState,
    Body,
    CircleTrajectory,
    DetectabilityConfig,
    FrameSnapshot,
    NoiseModel,
    Scenario,
    SyntheticDetector,
    WaypointTrajectory,
    agent_states,
    project_agent,
    projected_body_height_px,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    synthetic_detect,
)


def make_state(x, y, height=1.7, agent_id=0):
    return AgentState(
        agent=Agent(id=agent_id, trajectory=WaypointTrajectory(points=((x, y),)), body=Body(height=height)),
        x=x,
        y=y,
    )


def snapshot(cam, *states, index=0, t=0.0):
    return FrameSnapshot(index=index, t=t, cam=cam, agents=tuple(states))


def full_vp(cam, scale=1.0):
    return Viewport(0, 0, cam.image_width, cam.image_height, scale)


class TestTrajectories:
    def test_circle_radius_constant(self):
        traj = CircleTrajectory(radius=2.0, angular_speed=45.0)
        for t in np.linspace(0, 8, 33):
            x, y = traj.pose(t)
            assert math.hypot(x, y) == pytest.approx(2.0, abs=1e-9)

    def test_waypoints_constant_speed(self):
        traj = WaypointTrajectory(points=((0, 0), (4, 0), (4, 4)), speed=2.0)
        assert traj.pose(1.0) == pytest.approx((2, 0))
        assert traj.pose(3.0) == pytest.approx((4, 2))
        # holds at the end
        assert traj.pose(100.0) == pytest.approx((4, 4))

    def test_repeated_waypoint_takes_no_time(self):
        # a segment of length 0 is passed at once, not held for good
        traj = WaypointTrajectory(points=((2, 0), (2, 0), (6, 0)), speed=1.0)
        assert traj.pose(0.0) == (2, 0)
        assert traj.pose(1.0) == (3, 0)
        assert traj.pose(10.0) == (6, 0)
        traj = WaypointTrajectory(points=((0, 0), (0, 3), (0, 3), (4, 3)), speed=2.0)
        assert traj.pose(2.0) == (1, 3)

    def test_stationary(self):
        traj = WaypointTrajectory(points=((1.5, -2.0),))
        assert traj.pose(10.0) == (1.5, -2.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            CircleTrajectory(radius=0.0)
        with pytest.raises(ConfigError):
            WaypointTrajectory(points=())


class TestProjectAgent:
    def test_reference_pose(self, cam):
        # neck height 1.4188 m at (1.1, 0) reproduces the geometry chain
        state = make_state(1.1, 0.0, height=1.4188036041176237 + 0.25)
        sk = project_agent(state, cam)
        neck_x, neck_y = sk["neck"]
        assert neck_x == pytest.approx(960.0)
        assert neck_y == pytest.approx(420.0, abs=1e-9)
        mid_x, mid_y, _, _ = pixel_row(sk, cam.image_width)
        assert mid_x == pytest.approx(960.0)
        assert mid_y == pytest.approx(720.0, abs=1e-9)

    def test_behind_camera_at_seam(self, cam):
        sk = project_agent(make_state(-2.0, 0.0), cam)
        # neck sits on the seam column (0 == 1920)
        assert min(sk["neck"][0], 1920 - sk["neck"][0]) == pytest.approx(0.0, abs=1e-9)

    def test_localize_round_trip(self, cam):
        state = make_state(2.2, -1.3)
        sk = project_agent(state, cam)
        ankle = ImagePoint(*pixel_row(sk, cam.image_width)[:2])
        w = localize(ankle, ImagePoint(*sk["neck"]), cam)
        assert w.x == pytest.approx(state.x, abs=1e-6)
        assert w.y == pytest.approx(state.y, abs=1e-6)

    def test_under_camera_rejected(self, cam):
        with pytest.raises(GeometryError):
            project_agent(make_state(0.1, 0.0), cam)

    def test_ankles_straddle_sight_line(self, cam):
        sk = project_agent(make_state(2.0, 0.0), cam)
        (la_x, la_y), (ra_x, ra_y) = sk["left_ankle"], sk["right_ankle"]
        assert la_x != pytest.approx(ra_x)
        assert la_y == pytest.approx(ra_y)  # equal range, equal row


def reference_skeleton(state, cam):
    """project_agent joint by joint: each joint placed on the ground
    and projected through the equirectangular model on its own."""
    body, rho = state.agent.body, state.ground_range
    theta = math.atan2(state.y, state.x)
    neck_z = body.height - body.neck_drop
    hip_z = 0.55 * body.height

    def at(lateral, z):
        ang = theta + math.atan2(lateral, rho)
        x, y = rho * math.cos(ang), rho * math.sin(ang)
        r = math.hypot(x, y)
        az = math.degrees(math.atan2(y, x))
        el = math.degrees(math.atan2(z - cam.mount_height, r))
        return (((180.0 - az) / cam.deg_per_px_x) % cam.image_width, (90.0 - el) / cam.deg_per_px_y)

    return {
        "neck": at(0.0, neck_z),
        "left_shoulder": at(body.shoulder_half_width, neck_z),
        "right_shoulder": at(-body.shoulder_half_width, neck_z),
        "left_hip": at(body.hip_half_width, hip_z),
        "right_hip": at(-body.hip_half_width, hip_z),
        "left_ankle": at(body.hip_half_width, body.ankle_height),
        "right_ankle": at(-body.hip_half_width, body.ankle_height),
    }


@settings(max_examples=300, deadline=None)
@given(
    rho=st.floats(0.31, 30.0),
    azimuth=st.floats(-180.0, 180.0),
    height=st.floats(1.4, 2.1),
    shoulder=st.floats(0.0, 0.4),
    hip=st.floats(0.0, 0.4),
)
def test_project_agent_equals_the_per_joint_reference(rho, azimuth, height, shoulder, hip):
    cam = CameraModel()
    a = math.radians(azimuth)
    body = Body(height=height, shoulder_half_width=shoulder, hip_half_width=hip)
    state = AgentState(
        agent=Agent(id=0, trajectory=WaypointTrajectory(points=((0.0, 0.0),)), body=body),
        x=rho * math.cos(a),
        y=rho * math.sin(a),
    )
    got = project_agent(state, cam)
    ref = reference_skeleton(state, cam)
    # name order, as the detector and the ground truth read it
    assert list(got) == sorted(JOINT_NAMES) == sorted(ref)
    for name, point in got.items():
        assert type(point) is tuple and len(point) == 2, name
        assert all(type(v) is float for v in point), name
        assert [v.hex() for v in point] == [v.hex() for v in ref[name]], name


class TestDetectability:
    def test_boundary_values(self, cam):
        # 1.7 m person: ~144 px at 3.5 m -> 48.1 at scale 1/3 (boundary);
        # ~127 px at 4.0 m -> 42.4 (dropped)
        assert projected_body_height_px(make_state(3.5, 0.0), cam) == pytest.approx(
            144.29, abs=0.01
        )
        assert projected_body_height_px(make_state(4.0, 0.0), cam) == pytest.approx(
            127.06, abs=0.01
        )

    def test_lowres_drops_far_person(self, cam):
        rng = np.random.default_rng(0)
        cfg = DetectabilityConfig(min_person_pixels=48)
        near = synthetic_detect(
            full_vp(cam, scale=1 / 3), snapshot(cam, make_state(3.5, 0.0)),
            NoiseModel(), cfg, rng,
        )
        far = synthetic_detect(
            full_vp(cam, scale=1 / 3), snapshot(cam, make_state(4.0, 0.0)),
            NoiseModel(), cfg, rng,
        )
        assert len(near) == 1 and len(far) == 0

    def test_fullres_keeps_far_person(self, cam):
        rng = np.random.default_rng(0)
        out = synthetic_detect(
            full_vp(cam, scale=1.0), snapshot(cam, make_state(4.0, 0.0)),
            NoiseModel(), DetectabilityConfig(min_person_pixels=48), rng,
        )
        assert len(out) == 1

    def test_roi_pass_sees_six_meter_target_fullframe_does_not(self, cam):
        state = make_state(6.0, 0.0)
        det = SyntheticDetector(NoiseModel(), DetectabilityConfig(48), seed=0)
        snap = snapshot(cam, state)
        neck = ImagePoint(*project_agent(state, cam)["neck"])
        runner = StrategyRunner("roi", cam, det)
        with_roi = runner.detect(snap, neck)
        without = runner.detect(snap, None)
        assert len(with_roi.detections) == 1
        assert len(without.detections) == 0


class TestSyntheticDetect:
    def test_zero_noise_exact(self, cam):
        rng = np.random.default_rng(0)
        state = make_state(2.0, 1.0)
        out = synthetic_detect(
            full_vp(cam), snapshot(cam, state), NoiseModel(),
            DetectabilityConfig(), rng,
        )
        exact = project_agent(state, cam)
        assert len(out) == 1
        assert out[0]["neck"] == pytest.approx([*exact["neck"], 1.0])
        assert list(out[0]) == sorted(exact)

    def test_column_filter_wrap_aware(self, cam):
        vp = Viewport(origin_x=1800, origin_y=0, width=300, height=960, scale=1.0)
        state = make_state(-2.0, -0.1)  # neck just past the seam
        out = synthetic_detect(
            vp, snapshot(cam, state), NoiseModel(), DetectabilityConfig(),
            np.random.default_rng(0),
        )
        assert len(out) == 1

    def test_outside_column_excluded(self, cam):
        vp = Viewport(origin_x=0, origin_y=0, width=300, height=960, scale=1.0)
        state = make_state(-2.0, 0.0)  # neck at the seam, column ~0 or 1920
        out = synthetic_detect(
            vp, snapshot(cam, make_state(0.0, 2.0)), NoiseModel(),
            DetectabilityConfig(), np.random.default_rng(0),
        )
        assert out == []  # person at theta=90 -> column 480, outside [0, 300)

    def test_duplicates_in_tile_overlap(self, cam):
        viewports = build_tiles(cam, TilesConfig())
        state = make_state(*_world_at_column(700, 2.0))
        det = SyntheticDetector(NoiseModel(), DetectabilityConfig(), seed=1)
        snap = snapshot(cam, state)
        per_tile = [det.detect(snap, vp) for vp in viewports]
        assert sum(len(d) for d in per_tile) == 2  # seen by tiles A and B

    def test_occlusion(self, cam):
        near = make_state(2.0, 0.0, agent_id=0)
        far = make_state(4.0, 0.0, agent_id=1)
        out = synthetic_detect(
            full_vp(cam), snapshot(cam, near, far),
            NoiseModel(occlusion_enabled=True), DetectabilityConfig(1.0),
            np.random.default_rng(0),
        )
        assert len(out) == 1
        out = synthetic_detect(
            full_vp(cam), snapshot(cam, near, far),
            NoiseModel(occlusion_enabled=False), DetectabilityConfig(1.0),
            np.random.default_rng(0),
        )
        assert len(out) == 2

    def test_ankles_drop_jointly(self, cam):
        rng = np.random.default_rng(3)
        state = make_state(2.0, 0.0)
        for _ in range(200):
            out = synthetic_detect(
                full_vp(cam), snapshot(cam, state),
                NoiseModel(miss_prob=0.5), DetectabilityConfig(1.0), rng,
            )
            for sk in out:
                has_l = "left_ankle" in sk
                has_r = "right_ankle" in sk
                assert has_l == has_r

    def test_no_generator_for_a_viewport_in_which_nobody_is_visible(self, cam, monkeypatch):
        calls, generators = [], []
        real_detect, real_rng = sim.synthetic_detect, np.random.default_rng

        def counted_detect(viewport, *args):
            calls.append(viewport)
            return real_detect(viewport, *args)

        def counted_rng(seed):
            generators.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(sim, "synthetic_detect", counted_detect)
        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        det = SyntheticDetector(NoiseModel(joint_sigma=1.0, miss_prob=0.1), DetectabilityConfig(), seed=4)
        snap = snapshot(cam, make_state(0.0, 2.0))  # the neck at column 480
        empty = Viewport(origin_x=1000, origin_y=0, width=300, height=960, scale=1.0)
        assert det.detect(snap, empty) == []
        assert (len(calls), generators) == (1, [])

        seen = Viewport(origin_x=300, origin_y=0, width=300, height=960, scale=1.0)
        out = det.detect(snap, seen)
        assert (len(calls), len(generators)) == (2, 1)
        # the draws are those of a generator seeded before the call
        rng = real_rng(np.random.SeedSequence([4, snap.index, sim._viewport_key(seen)]))
        assert len(out) == 1 and out == real_detect(seen, snap, det.noise, det.detect_cfg, rng)

    def test_noise_scale_in_local_pixels(self, cam):
        state = make_state(2.0, 0.0)
        exact = project_agent(state, cam)
        errs = []
        for seed in range(300):
            out = synthetic_detect(
                full_vp(cam, scale=1.0), snapshot(cam, state),
                NoiseModel(joint_sigma=2.0), DetectabilityConfig(1.0),
                np.random.default_rng(seed),
            )
            errs.append(out[0]["neck"][0] - exact["neck"][0])
        assert np.std(errs) == pytest.approx(2.0, rel=0.25)


def _world_at_column(column, rho, cam=CameraModel()):
    theta = math.radians(180.0 - cam.deg_per_px_x * column)
    return rho * math.cos(theta), rho * math.sin(theta)


class TestRunScenario:
    def make_scenario(self, **kwargs):
        defaults = dict(
            cam=CameraModel(),
            fps=30.0,
            duration=10.0,
            agents=(Agent(id=0, trajectory=CircleTrajectory(radius=2.0, angular_speed=30.0)),),
            seed=7,
        )
        defaults.update(kwargs)
        return Scenario(**defaults)

    def test_frame_and_record_counts(self):
        s = self.make_scenario()
        pairs = list(run_scenario(s))
        assert len(pairs) == 300
        assert sum(1 for _, gt in pairs if gt is not None) == 300

    def test_gt_ranges_on_circle(self):
        s = self.make_scenario()
        for _, gt in run_scenario(s):
            a = gt["agents"][0]
            assert math.hypot(a["x"], a["y"]) == pytest.approx(2.0, abs=1e-9)
            assert a["is_target"]

    def test_annotation_schedule(self):
        s = self.make_scenario(annotate_every=10, annotate_from=5)
        annotated = [i for i, (_, gt) in enumerate(run_scenario(s)) if gt is not None]
        assert annotated[:3] == [5, 15, 25]

    def test_deterministic(self):
        a = [gt for _, gt in run_scenario(self.make_scenario())]
        b = [gt for _, gt in run_scenario(self.make_scenario())]
        assert a == b

    def test_detector_deterministic_given_seed(self, cam):
        s = self.make_scenario(noise=NoiseModel(joint_sigma=1.0))
        det = SyntheticDetector.for_scenario(s)
        snap = next(run_scenario(s))[0]
        vp = full_vp(cam)
        assert det.detect(snap, vp) == det.detect(snap, vp)

    def test_ground_truth_joints_in_name_order(self):
        s = self.make_scenario(agents=crowd_scenario().agents, duration=0.5)
        for snap, gt in run_scenario(s):
            assert len(gt["agents"]) == 8
            for agent, state in zip(gt["agents"], snap.agents):
                joints = agent["joints"]
                assert list(joints) == sorted(JOINT_NAMES)
                assert joints == {k: list(v) for k, v in project_agent(state, s.cam).items()}

    def test_camera_trajectory_offsets(self):
        s = self.make_scenario(
            agents=(Agent(id=0, trajectory=WaypointTrajectory(points=((5.0, 0.0),))),),
            camera_trajectory=WaypointTrajectory(points=((0.0, 0.0), (3.0, 0.0)), speed=1.0),
        )
        states = agent_states(s, 3.0)
        assert states[0].x == pytest.approx(2.0)

    def test_round_trip_serialization(self):
        s = self.make_scenario(
            noise=NoiseModel(joint_sigma=1.5, miss_prob=0.1, occlusion_enabled=True),
            camera_trajectory=CircleTrajectory(radius=1.0),
            annotate_every=10,
        )
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_bad_trajectory_type(self):
        d = scenario_to_dict(self.make_scenario())
        d["agents"][0]["trajectory"]["type"] = "spline"
        with pytest.raises(InputError):
            scenario_from_dict(d)


CIRCLE_2M = Path(__file__).resolve().parent.parent / "scenarios" / "circle_2m.json"


@pytest.mark.parametrize(
    "level",
    ["scenario", "agent", "trajectory", "body", "noise", "detect_cfg", "camera", "tiles", "roi"],
)
def test_unknown_key_rejected_at_every_level(level):
    d = json.loads(CIRCLE_2M.read_text())
    agent = d["agents"][0]
    objects = {
        "scenario": d,
        "agent": agent,
        "trajectory": agent["trajectory"],
        "body": agent["body"],
        "noise": d["noise"],
        "detect_cfg": d["detect_cfg"],
        "camera": d["cam"],
        "tiles": {},
        "roi": {},
    }
    objects[level]["bogus"] = 1
    with pytest.raises(ConfigError, match=r"unknown \w+ keys: \['bogus'\]"):
        if level == "tiles":
            from_dict(TilesConfig, objects[level], level)
        elif level == "roi":
            from_dict(RoiConfig, objects[level], level)
        else:
            scenario_from_dict(d)


@pytest.mark.parametrize(
    "path",
    [("fps",), ("agents",), ("agents", 0, "id"), ("agents", 0, "trajectory", "radius")],
)
def test_missing_required_key_is_input_error(path):
    d = json.loads(CIRCLE_2M.read_text())
    target = d
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(InputError, match=f"missing required keys: \\['{path[-1]}'\\]"):
        scenario_from_dict(d)



def crowd_scenario(n_agents=8, **kwargs):
    """Circling agents at staggered ranges, with noise, dropout and
    occlusion, 10 frames long."""
    agents = tuple(
        Agent(
            id=i,
            trajectory=CircleTrajectory(
                radius=1.5 + 0.35 * i, angular_speed=30.0 * (-1) ** i, start_angle=20.0 * i
            ),
        )
        for i in range(n_agents)
    )
    defaults = dict(
        fps=10.0,
        duration=1.0,
        agents=agents,
        noise=NoiseModel(joint_sigma=1.5, miss_prob=0.1, occlusion_enabled=True),
        seed=3,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestFrameRenderedOnce:
    """Each frame is projected once, whatever the viewports and the
    annotation schedule."""

    @pytest.mark.parametrize("annotate_every", [1, 3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_projection_per_agent_per_frame(self, monkeypatch, strategy, annotate_every):
        projected, viewports = [], []

        def counted_project(state, cam):
            projected.append(state.agent.id)
            return project_agent(state, cam)

        def counted_detect(viewport, *args):
            viewports.append(viewport)
            return synthetic_detect(viewport, *args)

        monkeypatch.setattr(sim, "project_agent", counted_project)
        monkeypatch.setattr(sim, "synthetic_detect", counted_detect)
        scenario = crowd_scenario(annotate_every=annotate_every)
        frames = list(run_simulated(scenario, strategy))
        n = scenario.n_frames
        assert len(frames) == n == 10
        assert sum(gt is not None for _, gt in frames) == (10 if annotate_every == 1 else 4)
        # viewports per frame: three tiles; the full pass, plus the crop
        # once the target is tracked; the full pass alone
        if strategy == "roi":
            assert n < len(viewports) < 2 * n
        else:
            assert len(viewports) == {"tiles": 3 * n, "fullframe": n}[strategy]
        assert sorted(projected) == sorted(a.id for a in scenario.agents for _ in range(n))

    def test_viewports_read_the_same_render_in_any_order(self, cam):
        scenario = crowd_scenario(n_agents=12)
        det = SyntheticDetector.for_scenario(scenario)
        states = agent_states(scenario, 0.4)
        full = fullframe_viewport(cam, RoiConfig())
        crop = roi_viewport(ImagePoint(*project_agent(states[0], cam)["neck"]), cam, RoiConfig())
        viewports = [*build_tiles(cam, TilesConfig()), full, crop]

        def fresh():
            return FrameSnapshot(index=4, t=0.4, cam=cam, agents=states)

        alone = [det.detect(fresh(), vp) for vp in viewports]
        shared = fresh()
        forward = [det.detect(shared, vp) for vp in viewports]
        shared = fresh()
        backward = [det.detect(shared, vp) for vp in reversed(viewports)][::-1]
        assert forward == alone
        assert backward == alone
        # every rule is in play: some agent is tall enough for a
        # full-resolution pass but not for the 1/3 full-frame pass, and
        # some agent is occluded
        assert len(viewports) == 5 and all(alone)
        min_px = scenario.detect_cfg.min_person_pixels
        assert any(h * full.scale < min_px <= h for h in fresh().body_heights_px)
        assert any(fresh().occluded)


def test_roi_crop_centred_on_previous_target_pixel(monkeypatch):
    """Under roi, each frame runs the full frame, then, while the
    previous frame's tracks record holds a target that is not lost, the
    crop centred on that record's img_x and img_y, bit for bit. The
    target walks out of detection range, so its track is confirmed,
    followed and then lost."""
    calls = {}

    def recorded(viewport, snapshot, *args):
        calls.setdefault(snapshot.index, []).append(viewport)
        return synthetic_detect(viewport, snapshot, *args)

    monkeypatch.setattr(sim, "synthetic_detect", recorded)
    walker = Agent(id=0, trajectory=WaypointTrajectory(points=((2.0, 0.5), (16.0, 0.5)), speed=3.0))
    scenario = crowd_scenario(agents=(walker,), duration=5.0)
    cam, full = scenario.cam, fullframe_viewport(scenario.cam, RoiConfig())
    frames = [out for out, _ in run_simulated(scenario, "roi")]
    expected = {0: [full]}
    for previous, out in zip(frames, frames[1:]):
        targets = [
            ImagePoint(t["img_x"], t["img_y"])
            for t in previous.tracks["tracks"]
            if t["is_target"] and t["status"] != "lost"
        ]
        expected[out.tracks["frame"]] = [full] + [roi_viewport(p, cam, RoiConfig()) for p in targets]
    assert calls == expected
    assert sum(len(v) == 2 for v in expected.values()) > len(frames) // 2
    # the frame after the target is lost runs the full frame alone
    lost = [
        out.tracks["frame"]
        for out in frames[:-1]
        if any(t["is_target"] and t["status"] == "lost" for t in out.tracks["tracks"])
    ]
    assert lost and len(expected[lost[0] + 1]) == 1


def scalar_types(record) -> set[type]:
    """The exact types of every scalar in a nested JSON-like record."""
    if isinstance(record, dict):
        return set().union(*map(scalar_types, record.values()))
    if isinstance(record, (list, tuple)):
        return set().union(*map(scalar_types, record))
    return {type(record)}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_records_hold_plain_python_scalars(strategy):
    """A noisy crowd's detections, tracks and ground truth, live and
    re-tracked offline, hold no numpy scalar. ``type`` and not
    ``isinstance``: ``numpy.float64`` subclasses ``float``."""
    scenario = crowd_scenario()
    assert scenario.noise.joint_sigma > 0
    frames = list(run_simulated(scenario, strategy))
    records = [r for out, gt in frames for r in (out.detections, out.tracks, gt) if r is not None]
    detections = [out.detections for out, _ in frames]
    for out in run_offline(iter(detections), scenario.cam):
        records += [out.detections, out.tracks]
    assert sum(len(r["detections"]) for r in detections) > 0
    assert scalar_types(records) <= {int, float, str, bool}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_port_detections_are_already_normal(monkeypatch, strategy):
    """``check_detection`` returns each detection that the synthetic
    detector gives ``run_viewports`` as itself: its names in order and
    each joint an ``[x, y, 1.0]`` list of floats, so no frame pays for a
    normalized copy."""
    checked, real = [], detect.check_detection

    def recorded(joints, image_height):
        out = real(joints, image_height)
        checked.append(out is joints)
        return out

    monkeypatch.setattr(detect, "check_detection", recorded)
    scenario = crowd_scenario()
    assert scenario.noise.occlusion_enabled
    frames = list(run_simulated(scenario, strategy))
    assert len(frames) == 10 and len(checked) > 20
    assert all(checked)


def reference_occluded(states):
    """The occlusion rule, agent by agent, recomputing every range and
    interval: a strictly nearer agent of another id covers more than
    half of the agent's azimuth interval."""

    def interval(s):
        theta = math.degrees(math.atan2(s.y, s.x))
        half = math.degrees(math.atan2(s.agent.body.shoulder_half_width, math.hypot(s.x, s.y)))
        return theta - half, 2.0 * half

    flags = []
    for s in states:
        start, length = interval(s)
        flags.append(
            length > 0
            and any(
                o.agent.id != s.agent.id
                and math.hypot(o.x, o.y) < math.hypot(s.x, s.y)
                and cyclic_interval_overlap(start, length, *interval(o), 360.0) > 0.5 * length
                for o in states
            )
        )
    return tuple(flags)


# behind the camera, next to the +-180 degree seam
SEAM_POINTS = [(-2.0, 1e-3), (-2.0, -1e-3), (-2.5, 0.0), (-1.5, 0.2), (-3.0, -0.3)]


@st.composite
def crowds(draw):
    """Up to 25 agents: scattered ones, some beside the seam, mirror
    images, and agents whose footprint touches an earlier agent's, on
    either side, or covers half or all of the narrower one, to within
    1e-9 degrees."""
    coord = st.floats(-6.0, 6.0, allow_nan=False)
    point = st.one_of(st.sampled_from(SEAM_POINTS), st.tuples(coord, coord)).filter(
        lambda p: math.hypot(*p) > 0.5
    )
    points = draw(st.lists(point, min_size=1, max_size=7))
    # a mirror image across the x axis has exactly the same range, and
    # behind the camera it lies on the other side of the seam
    points += [(x, -y) for x, y in draw(st.lists(st.sampled_from(points), max_size=3))]
    widths = st.sampled_from([0.0, 0.2, 0.45])
    people = [(p, draw(widths)) for p in points]
    for _ in range(draw(st.integers(0, 25 - len(people)))):
        (x, y), width = draw(st.sampled_from(people))
        rho = math.hypot(x, y)
        other = draw(st.one_of(st.just(rho), st.floats(0.6, 15.0)))
        other_width = draw(widths)
        half = math.degrees(math.atan2(width, rho))
        other_half = math.degrees(math.atan2(other_width, other))
        # side by side, or covering half, all or some of the narrower footprint
        cover = draw(st.sampled_from([0.0, 0.0, 1.0, 2.0]) | st.floats(0.0, 2.0))
        offset = half + other_half - cover * min(half, other_half)
        offset += draw(st.sampled_from([-1e-9, 0.0, 1e-9]) | st.floats(-1e-9, 1e-9))
        theta = math.radians(math.degrees(math.atan2(y, x)) + draw(st.sampled_from([-1, 1])) * offset)
        people.append(((other * math.cos(theta), other * math.sin(theta)), other_width))
    return tuple(
        AgentState(
            agent=Agent(
                id=i,
                trajectory=WaypointTrajectory(points=(p,)),
                body=Body(shoulder_half_width=width),
            ),
            x=p[0],
            y=p[1],
            )
        for i, (p, width) in enumerate(people)
    )


@given(crowds())
@settings(max_examples=300, deadline=None)
def test_cached_occlusion_matches_reference(states):
    frame = FrameSnapshot(index=0, t=0.0, cam=CameraModel(), agents=states)
    assert frame.occluded == reference_occluded(states)


def ci_crowd200(occlusion_enabled):
    """The byte-identity CI step's 200-person crowd: 200 people circling
    from 200 start azimuths in [70, 289] degrees and four walkers
    crossing the edge of detection range, with 5 % joint dropout."""
    d = json.loads(CIRCLE_2M.read_text())
    body = d["agents"][0]["body"]
    d["duration"] = 2.0
    d["noise"] = {"joint_sigma": 1.0, "miss_prob": 0.05, "occlusion_enabled": occlusion_enabled}
    d["agents"] = [
        {
            "id": i,
            "body": body,
            "trajectory": {
                "type": "circle", "center": [0.0, 0.0], "radius": 1.5 + 0.0275 * i,
                "angular_speed": 15.0 * (-1) ** i, "start_angle": 70.0 + 1.1 * i,
            },
        }
        for i in range(200)
    ]
    for k in range(4):
        a = math.radians(20.0 * k - 30.0)
        start, end = (9.8, 12.8) if k % 2 else (12.8, 9.8)
        d["agents"].append({
            "id": 200 + k,
            "body": body,
            "trajectory": {
                "type": "waypoints",
                "points": [[r * math.cos(a), r * math.sin(a)] for r in (start, end)],
                "speed": 1.5,
            },
        })
    return scenario_from_dict(d)


@pytest.mark.parametrize("occlusion_enabled", [False, True], ids=["as_ci", "occlusion"])
def test_crowd_pair_tests_scale(monkeypatch, occlusion_enabled):
    """Occlusion and duplicate fusion test only the pairs that can
    touch: over 5 frames of the 200-person crowd under tiles, at most
    2,000 fusion ``merge_score`` and 4,000 occlusion
    ``cyclic_interval_overlap`` calls a frame, where testing every pair
    takes about 15,000 and 20,000."""
    calls = {"sim": 0, "detect": 0}

    def counter(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(sim, "cyclic_interval_overlap", counter("sim", sim.cyclic_interval_overlap))
    monkeypatch.setattr(detect, "merge_score", counter("detect", detect.merge_score))
    frames = list(itertools.islice(run_simulated(ci_crowd200(occlusion_enabled), "tiles"), 5))
    assert len(frames) == 5
    assert all(out.detections["detections"] for out, _ in frames)
    assert calls["detect"] <= 5 * 2000
    assert calls["sim"] <= 5 * 4000
    assert (calls["sim"] > 0) == occlusion_enabled


class TestUnderCamera:
    """An agent within MIN_AGENT_RANGE of the camera axis ends the run
    at its frame with InputError, whatever the annotation schedule; the
    frames before it are yielded."""

    def scenario(self, **kwargs):
        agents = (
            Agent(id=0, trajectory=CircleTrajectory(radius=2.0)),
            # range 1 - 0.2 i at frame i: under the camera from frame 4
            Agent(id=1, trajectory=WaypointTrajectory(points=((1.0, 0.0), (0.0, 0.0)), speed=2.0)),
        )
        return Scenario(fps=10.0, duration=0.8, agents=agents, **kwargs)

    MESSAGE = r"frame 4: agent 1 at range 0.200 m is under the camera \(within 0.3 m of its axis\)"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unannotated_frame_raises(self, strategy):
        # only frame 0 is annotated
        frames = run_simulated(self.scenario(annotate_every=100), strategy)
        assert [out.partial for out, _ in itertools.islice(frames, 4)] == [False] * 4
        with pytest.raises(InputError, match=self.MESSAGE):
            next(frames)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_annotated_frame_raises(self, strategy):
        frames = run_simulated(self.scenario(), strategy)
        assert [out.partial for out, _ in itertools.islice(frames, 4)] == [False] * 4
        with pytest.raises(InputError, match=self.MESSAGE):
            next(frames)
