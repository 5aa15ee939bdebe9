"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

These tests pin the system-level behaviour: geometry exactness, the
duplicate-fusion contract, seam-robust tracking, assignment optimality,
the sensitivity curve shape, the detection-range behaviour of the three
strategies, end-to-end consistency, the tracking latency budget, and
bytewise determinism.
"""

import dataclasses
import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from panotrack.cli import main as cli_main
from panotrack.detect import (
    TilesConfig,
    build_tiles,
    check_detection,
    detection_pixels,
    fuse_duplicates,
)
from panotrack.geometry import (
    CameraModel,
    WorldPoint,
    ground_range,
    image_to_polar,
    localization_sensitivity,
    signed_wrap_diff,
    world_to_image,
)
from panotrack.metrics import (
    error_vs_distance,
    evaluate,
    id_persistence,
    match_frames,
)
from panotrack.pipeline import run_simulated
from panotrack.sim import (
    Agent,
    AgentState,
    NoiseModel,
    SyntheticDetector,
    WaypointTrajectory,
    load_scenario,
    project_agent,
)
from panotrack.tracker import PanoTracker, TrackerConfig, _neck_pixels, associate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CAM = CameraModel()


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {label}")
                raise
            print(f"[criterion {number}] PASS  {label}")

        return wrapper

    return deco


def run_strategy(scenario, strategy, tracker_cfg=TrackerConfig()):
    gt, tracks = [], []
    for output, gt_rec in run_simulated(scenario, strategy, tracker_cfg):
        tracks.append(output.tracks)
        if gt_rec is not None:
            gt.append(gt_rec)
    return gt, tracks


def scenario_with(path, **overrides):
    scenario = load_scenario(str(path))
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


@criterion(1, "geometry round-trip: 1e4 poses, <1e-6 relative error, <1 s")
def test_criterion_1_geometry_round_trip():
    rng = np.random.default_rng(12345)
    thetas = rng.uniform(-180.0, 180.0, 10_000)
    rhos = rng.uniform(0.5, 10.0, 10_000)
    start = time.perf_counter()
    for theta, rho in zip(thetas, rhos):
        t = math.radians(theta)
        w = WorldPoint(rho * math.cos(t), rho * math.sin(t), CAM.ankle_height)
        p = world_to_image(w, CAM)
        pol = image_to_polar(p, CAM)
        r = ground_range(pol.phi, CAM)
        assert abs(r - rho) / rho < 1e-6
        assert abs(signed_wrap_diff(pol.theta, theta, 360.0)) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"round-trip took {elapsed:.2f} s"


@criterion(2, "duplicate fusion: overlap-zone duplicates collapse; idempotent x1000")
def test_criterion_2_fusion():
    # a person standing in the first tile overlap is detected twice and
    # fused to exactly one detection at the 0.9 threshold
    viewports = build_tiles(CAM, TilesConfig())
    theta = math.radians(180.0 - CAM.deg_per_px_x * 700.0)  # column 700
    state = AgentState(
        agent=Agent(id=0, trajectory=WaypointTrajectory(points=((0, 0),))),
        x=2.0 * math.cos(theta),
        y=2.0 * math.sin(theta),
    )
    detector = SyntheticDetector(
        NoiseModel(joint_sigma=1.0), dataclasses.replace(load_scenario(str(SCENARIOS / "circle_2m.json")).detect_cfg), seed=3
    )

    from panotrack.detect import dereference, run_viewports
    from panotrack.sim import FrameSnapshot

    snap = FrameSnapshot(index=0, t=0.0, cam=CAM, agents=(state,))
    raw = [
        (dereference(sk, vp, CAM), i)
        for i, vp in enumerate(viewports)
        for sk in detector.detect(snap, vp)
    ]
    assert len(raw) == 2, "expected duplicate detections in the overlap zone"
    result = run_viewports(snap, detector, viewports, CAM, 0.9)
    assert len(result.detections) == 1

    # idempotence over randomized detection sets
    rng = np.random.default_rng(99)
    for _ in range(1000):
        dets = []
        for _ in range(rng.integers(0, 7)):
            cx = rng.uniform(0, 1920)
            cy = rng.uniform(150, 700)
            w = rng.uniform(6, 140)
            h = rng.uniform(20, 180)
            sk = check_detection(
                {
                    "neck": ((cx + rng.normal(0, 2)) % 1920, cy),
                    "left_shoulder": ((cx - w / 2) % 1920, cy + 5),
                    "right_shoulder": ((cx + w / 2) % 1920, cy + 5),
                    "left_hip": ((cx - w / 4) % 1920, cy + h),
                    "right_hip": ((cx + w / 4) % 1920, cy + h),
                },
                CAM.image_height,
            )
            dets.append((sk, int(rng.integers(0, 3))))
        once = fuse_duplicates(dets, len(viewports), 1920, 0.9)
        survivors = [(sk, next(v for s, v in dets if s is sk)) for sk in once]
        twice = fuse_duplicates(survivors, len(viewports), 1920, 0.9)
        assert twice == once


def _seam_m2(seed: int, wrap_correction: bool) -> float:
    scenario = scenario_with(SCENARIOS / "seam_walker.json", seed=seed)
    cfg = TrackerConfig(wrap_correction=wrap_correction)
    gt, tracks = run_strategy(scenario, "tiles", cfg)
    return id_persistence(match_frames(gt, tracks))


@criterion(3, "wrap-around tracking: M2=1 corrected vs M2<=0.5 naive, 20 seeds")
def test_criterion_3_wrap_around_tracking():
    for seed in range(20):
        m2_on = _seam_m2(seed, wrap_correction=True)
        m2_off = _seam_m2(seed, wrap_correction=False)
        assert m2_on == 1.0, f"seed {seed}: corrected tracker fragmented (M2={m2_on})"
        assert m2_off <= 0.5, f"seed {seed}: naive tracker survived the seam (M2={m2_off})"


def wrap_distance(p1, p2, image_width):
    """Reference image distance between two pixels, the column measured
    the short way around the seam."""
    dx = abs(p1[0] - p2[0]) % image_width
    dx = min(dx, image_width - dx)
    return math.hypot(dx, p1[1] - p2[1])


def _brute_force(cost: np.ndarray, gate: float):
    n, m = cost.shape
    best = (0, 0.0)

    def rec(i, used, count, total):
        nonlocal best
        if i == n:
            if count > best[0] or (count == best[0] and total < best[1] - 1e-12):
                best = (count, total)
            return
        rec(i + 1, used, count, total)
        for j in range(m):
            if j not in used and cost[i, j] <= gate:
                rec(i + 1, used | {j}, count + 1, total + cost[i, j])

    rec(0, frozenset(), 0, 0.0)
    return best


@criterion(4, "GNN assignment equals brute force on 500 random seam-heavy instances")
def test_criterion_4_gnn_optimality():
    rng = np.random.default_rng(2024)
    gate = 300.0
    for _ in range(500):
        n, m = rng.integers(0, 6, 2)
        # half the columns in each instance hug the seam
        def column():
            if rng.random() < 0.5:
                return float(rng.uniform(-40, 40) % 1920)
            return float(rng.uniform(0, 1920))

        means = np.empty((n, 5))
        for k in range(n):
            col, rho = column(), rng.uniform(1.0, 6.0)
            theta = math.radians(180.0 - CAM.deg_per_px_x * col)
            means[k] = [rho * math.cos(theta), rho * math.sin(theta), 0, 0, 1.45]
        dets = []
        for _ in range(m):
            col, rho = column(), rng.uniform(1.0, 6.0)
            theta = math.radians(180.0 - CAM.deg_per_px_x * col)
            state = AgentState(
                agent=Agent(id=0, trajectory=WaypointTrajectory(points=((0, 0),))),
                x=rho * math.cos(theta),
                y=rho * math.sin(theta),
            )
            dets.append(project_agent(state, CAM))

        necks = detection_pixels(dets, CAM.image_width)[:, 2:]
        res = associate(_neck_pixels(means, CAM), necks, CAM.image_width, gate)
        pairs = list(zip(res.tracks.tolist(), res.dets.tolist()))
        cost = np.zeros((n, m))
        for i, mean in enumerate(means):
            pred = world_to_image(WorldPoint(mean[0], mean[1], mean[4]), CAM)
            for j, det in enumerate(dets):
                cost[i, j] = wrap_distance(pred, det["neck"], CAM.image_width)
        total = sum(cost[i, j] for i, j in pairs)
        assert all(cost[i, j] <= gate for i, j in pairs)
        best_count, best_total = _brute_force(cost, gate)
        assert len(pairs) == best_count
        assert total == pytest.approx(best_total, abs=1e-9)


@criterion(5, "sensitivity curve: ~0.08 m at (2 m, 5 px), increasing, 7 m >= 5x 2 m")
def test_criterion_5_sensitivity_shape():
    at_2m = localization_sensitivity(2.0, 5.0, CAM)
    assert at_2m == pytest.approx(0.08, rel=0.20)
    values = [localization_sensitivity(d, 5.0, CAM) for d in (1, 2, 3, 4, 5, 6, 7, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert localization_sensitivity(7.0, 5.0, CAM) >= 5.0 * at_2m


def _sweep_match_rates(strategy):
    scenario = load_scenario(str(SCENARIOS / "range_sweep.json"))
    gt, tracks = run_strategy(scenario, strategy)
    matches = match_frames(gt, tracks)
    return error_vs_distance(matches, bin_width=1.0)


@criterion(6, "range sweep: fullframe dies beyond 4 m; tiles/roi hold M1>=0.95 to 7 m")
def test_criterion_6_detection_range():
    full_bins = _sweep_match_rates("fullframe")
    far = [b for b in full_bins if b.center > 4.0]
    assert far, "sweep must reach past 4 m"
    for b in far:
        assert 1.0 - b.miss_rate < 0.5, f"fullframe still tracking at {b.center} m"

    for strategy in ("tiles", "roi"):
        bins = _sweep_match_rates(strategy)
        reached = [b.center for b in bins if b.center <= 7.0]
        assert max(reached) >= 6.5, f"{strategy} sweep did not cover 7 m"
        for b in bins:
            if b.center <= 7.0:
                rate = 1.0 - b.miss_rate
                assert rate >= 0.95, f"{strategy} match rate {rate:.3f} at {b.center} m"


@criterion(7, "end-to-end: zero noise exact (M1=M2=1, M3<1e-3); 1 px at 2 m within 0.3 m")
def test_criterion_7_end_to_end_consistency():
    line = scenario_with(
        SCENARIOS / "seam_walker.json",
        agents=(
            Agent(
                id=0,
                trajectory=WaypointTrajectory(points=((1.8, -2.2), (1.8, 2.2)), speed=1.0),
            ),
        ),
        duration=4.4,  # the walk itself; the filter is not scored on the abrupt stop
        noise=NoiseModel(joint_sigma=0.0),
        annotate_from=60,  # evaluate after the velocity estimate has settled
        seed=1,
    )
    gt, tracks = run_strategy(line, "tiles")
    report = evaluate(gt, tracks)
    assert report.m1 == 1.0
    assert report.m2 == 1.0
    assert report.m3 < 1e-3

    noisy = scenario_with(SCENARIOS / "circle_2m.json", annotate_from=15, seed=2)
    gt, tracks = run_strategy(noisy, "tiles")
    report = evaluate(gt, tracks)
    assert report.m3 <= 0.3
    assert report.m2 == 1.0


@criterion(8, "latency: tracker step (predict+associate+update) <= 1 ms median, 10 tracks")
def test_criterion_8_latency():
    rng = np.random.default_rng(0)
    tracker = PanoTracker(CAM, TrackerConfig())

    def detections(step):
        out = []
        for k in range(10):
            ang = 2 * math.pi * k / 10 + 0.02 * step
            state = AgentState(
                agent=Agent(id=k, trajectory=WaypointTrajectory(points=((0, 0),))),
                x=3 * math.cos(ang),
                y=3 * math.sin(ang),
            )
            det = project_agent(state, CAM)
            out.append(
                {name: (x + rng.normal(0, 1), y + rng.normal(0, 1)) for name, (x, y) in det.items()}
            )
        return out

    for i in range(10):
        tracker.step(detection_pixels(detections(i), CAM.image_width), 1 / 30)
    assert len(tracker.tracks) == 10
    frames = [detections(10 + i) for i in range(300)]
    latencies = []
    for dets in frames:
        t0 = time.perf_counter()
        tracker.step(detection_pixels(dets, CAM.image_width), 1 / 30)
        latencies.append(time.perf_counter() - t0)
    median_ms = float(np.median(latencies) * 1000)
    assert median_ms <= 1.0, f"median step latency {median_ms:.3f} ms"


@criterion(9, "determinism: byte-identical outputs across reruns")
def test_criterion_9_determinism(tmp_path):
    scenario_path = SCENARIOS / "circle_2m.json"
    with open(scenario_path) as fh:
        short = json.load(fh)
    short["duration"] = 2.0
    sc = tmp_path / "short.json"
    sc.write_text(json.dumps(short))

    blobs = []
    for name in ("a", "b", "c"):
        cfg = tmp_path / f"cfg_{name}.json"
        cfg.write_text(json.dumps({"scenario": str(sc), "strategy": "tiles"}))
        out = tmp_path / name
        assert cli_main(["track", "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
        assert (
            cli_main(
                ["simulate", "--scenario", str(sc), "--out", str(out), "--seed", "11"]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "eval",
                    "--gt",
                    str(out / "ground_truth.jsonl"),
                    "--tracks",
                    str(out / "tracks.jsonl"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        blobs.append(
            (out / "detections.jsonl").read_bytes()
            + (out / "tracks.jsonl").read_bytes()
            + (out / "report.json").read_bytes()
        )
    assert blobs[0] == blobs[1] == blobs[2]
