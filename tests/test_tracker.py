import math

import numpy as np
import pytest

from panotrack.detect import skeleton
from panotrack.exceptions import ConfigError
from panotrack.geometry import ImagePoint, localize, wrap_distance
from panotrack.sim import Agent, AgentState, Body, WaypointTrajectory, project_agent
from panotrack.tracker import (
    FullBodyMeasurement,
    NeckOnlyMeasurement,
    PanoTracker,
    Track,
    TrackerConfig,
    TrackState,
    TrackStatus,
    UkfParams,
    associate,
    measurement_from_detection,
    predict,
    predicted_measurement,
    project_to_image,
    unwrap_columns,
    update,
    wrap_correct,
)
from panotrack.tracker import _measurement_matrix  # dual-path consistency check

BODY = Body(height=1.7, ankle_height=0.1, neck_drop=0.25)
NECK_Z = BODY.height - BODY.neck_drop


def make_track(x, y, vx=0.0, vy=0.0, h_n=NECK_Z, var=(0.01, 0.01, 0.04, 0.04, 0.001)):
    return Track(
        id=1,
        mean=np.array([x, y, vx, vy, h_n], dtype=float),
        covariance=np.diag(var).astype(float),
    )


def agent_detection(x, y, cam, height=1.7):
    state = AgentState(
        agent=Agent(id=0, trajectory=WaypointTrajectory(points=((x, y),)), body=Body(height=height)),
        x=x,
        y=y,
        heading=0.0,
    )
    return project_agent(state, cam)


def world_at_column(column, rho, cam):
    theta = math.radians(180.0 - cam.deg_per_px_x * column)
    return rho * math.cos(theta), rho * math.sin(theta)


class TestWrapCorrect:
    def test_seam_split_shifts_low_side(self):
        pts = [ImagePoint(1900, 0), ImagePoint(1910, 0), ImagePoint(10, 0)]
        shifted, mean = wrap_correct(pts, 1920)
        assert [p.x for p in shifted] == [1900, 1910, 1930]
        assert mean.x == pytest.approx(5740 / 3)

    def test_mean_reduced_modulo_width(self):
        pts = [ImagePoint(1910, 0), ImagePoint(1915, 0), ImagePoint(5, 0)]
        shifted, mean = wrap_correct(pts, 1920)
        assert [p.x for p in shifted] == [1910, 1915, 1925]
        assert mean.x == pytest.approx(5750 / 3)
        # a cloud past the seam wraps its mean back into [0, W)
        pts = [ImagePoint(1918, 0), ImagePoint(1919, 0), ImagePoint(4, 0)]
        _, mean = wrap_correct(pts, 1920)
        assert mean.x == pytest.approx((1918 + 1919 + 1924) / 3 % 1920)

    def test_no_split_untouched(self):
        pts = [ImagePoint(900, 1), ImagePoint(950, 2), ImagePoint(1000, 3)]
        shifted, mean = wrap_correct(pts, 1920)
        assert [p.x for p in shifted] == [900, 950, 1000]
        assert mean == pytest.approx((950, 2))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            wrap_correct([], 1920)

    def test_unwrap_columns_rule(self):
        xs = np.array([1900.0, 1910.0, 10.0])
        assert unwrap_columns(xs, 1920).tolist() == [1900, 1910, 1930]
        xs = np.array([100.0, 200.0])
        assert unwrap_columns(xs, 1920).tolist() == [100, 200]


class TestProjectToImage:
    def test_reference_state(self, cam):
        meas = project_to_image(TrackState(1.1, 0, 0, 0, 1.4188036041176237), cam)
        assert meas.ankle_mid.x == pytest.approx(960)
        assert meas.ankle_mid.y == pytest.approx(720)
        assert meas.neck.y == pytest.approx(420, abs=1e-9)

    def test_side_axis(self, cam):
        meas = project_to_image(TrackState(0, 2.0, 0, 0, 1.5), cam)
        assert meas.neck.x == pytest.approx(480)

    def test_round_trips_with_localize(self, cam):
        state = TrackState(1.7, -2.3, 0, 0, 1.52)
        meas = project_to_image(state, cam)
        w = localize(meas.ankle_mid, meas.neck, cam)
        assert w.x == pytest.approx(state.x, abs=1e-9)
        assert w.y == pytest.approx(state.y, abs=1e-9)
        assert w.z == pytest.approx(state.h_n, abs=1e-9)

    def test_matches_vectorized_model(self, cam):
        states = np.array(
            [
                [1.1, 0.0, 0.0, 0.0, 1.42],
                [-2.0, -0.03, 0.5, 0.0, 1.45],
                [0.5, 3.0, -1.0, 0.2, 1.7],
                [-4.0, 2.0, 0.0, 0.0, 0.9],
            ]
        )
        z = _measurement_matrix(states, cam, neck_only=False)
        for i, row in enumerate(states):
            meas = project_to_image(TrackState.from_array(row), cam)
            assert z[i, 0] == pytest.approx(meas.ankle_mid.x, abs=1e-9)
            assert z[i, 1] == pytest.approx(meas.ankle_mid.y, abs=1e-9)
            assert z[i, 2] == pytest.approx(meas.neck.x, abs=1e-9)
            assert z[i, 3] == pytest.approx(meas.neck.y, abs=1e-9)


class TestBatchedPathsMatchScalar:
    """step() runs vectorized predict/update over all tracks; they must
    agree with the scalar reference operations."""

    def _random_tracks(self, rng, n):
        tracks = []
        for k in range(n):
            mean = np.array(
                [
                    rng.uniform(-4, 4),
                    rng.uniform(-4, 4),
                    rng.normal(0, 0.5),
                    rng.normal(0, 0.5),
                    rng.uniform(1.2, 1.8),
                ]
            )
            if math.hypot(mean[0], mean[1]) < 1.0:
                mean[0] += 2.0
            a = rng.normal(0, 0.1, (5, 5))
            cov = np.diag([0.02, 0.02, 0.1, 0.1, 0.01]) + 0.001 * (a @ a.T)
            tracks.append(Track(id=k + 1, mean=mean, covariance=cov))
        return tracks

    def test_predict_equivalence(self, cam):
        from panotrack.tracker import _batched_predict

        rng = np.random.default_rng(9)
        scalar = self._random_tracks(rng, 6)
        batched = [
            Track(id=t.id, mean=t.mean.copy(), covariance=t.covariance.copy())
            for t in scalar
        ]
        for t in scalar:
            predict(t, 1 / 30, UkfParams())
        assert _batched_predict(batched, 1 / 30, UkfParams(), 1e-9) == []
        for s, b in zip(scalar, batched):
            assert b.mean == pytest.approx(s.mean, abs=1e-10)
            assert np.allclose(b.covariance, s.covariance, atol=1e-12)

    def test_update_equivalence(self, cam):
        from panotrack.tracker import _batched_predict, _batched_update_fullbody

        rng = np.random.default_rng(10)
        scalar = self._random_tracks(rng, 6)
        batched = [
            Track(id=t.id, mean=t.mean.copy(), covariance=t.covariance.copy())
            for t in scalar
        ]
        for t in scalar:
            predict(t, 1 / 30, UkfParams())
        _batched_predict(batched, 1 / 30, UkfParams(), 1e-9)
        measurements = []
        for t in scalar:
            det = agent_detection(
                t.mean[0] + rng.normal(0, 0.05), t.mean[1] + rng.normal(0, 0.05), cam
            )
            measurements.append(measurement_from_detection(det, cam.image_width))
        for t, m in zip(scalar, measurements):
            assert update(t, m, cam, UkfParams())
        accepted, diverged = _batched_update_fullbody(
            batched, measurements, cam, UkfParams(), True, None, 1e-9
        )
        assert accepted == [True] * len(batched) and diverged == []
        for s, b in zip(scalar, batched):
            assert b.mean == pytest.approx(s.mean, abs=1e-9)
            assert np.allclose(b.covariance, s.covariance, atol=1e-10)

    def test_update_equivalence_at_seam(self, cam):
        from panotrack.tracker import _batched_update_fullbody

        seam_tracks = []
        for k, col in enumerate([1918.0, 2.0, 1910.0]):
            x, y = world_at_column(col, 2.0 + k, cam)
            tr = make_track(x, y, var=(0.02, 0.02, 0.1, 0.1, 0.01))
            tr.id = k + 1
            seam_tracks.append(tr)
        copies = [
            Track(id=t.id, mean=t.mean.copy(), covariance=t.covariance.copy())
            for t in seam_tracks
        ]
        meas = []
        for t, col_shift in zip(seam_tracks, [6.0, -5.0, 14.0]):
            base = project_to_image(t.state, cam).neck.x + col_shift
            x, y = world_at_column(base % 1920, math.hypot(t.mean[0], t.mean[1]), cam)
            meas.append(
                measurement_from_detection(agent_detection(x, y, cam), cam.image_width)
            )
        for t, m in zip(seam_tracks, meas):
            predict(t, 1 / 30, UkfParams())
            update(t, m, cam, UkfParams())
        from panotrack.tracker import _batched_predict

        _batched_predict(copies, 1 / 30, UkfParams(), 1e-9)
        _batched_update_fullbody(copies, meas, cam, UkfParams(), True, None, 1e-9)
        for s, b in zip(seam_tracks, copies):
            assert b.mean == pytest.approx(s.mean, abs=1e-9)


class TestPredict:
    def test_stationary_position_unchanged(self):
        tr = make_track(2.0, 1.0)
        before = tr.covariance.copy()
        predict(tr, 0.5, UkfParams())
        assert tr.mean[:2] == pytest.approx([2.0, 1.0], abs=1e-12)
        assert np.trace(tr.covariance) > np.trace(before)

    def test_constant_velocity(self):
        tr = make_track(1.0, 0.0, vx=0.5, vy=0.0)
        predict(tr, 1.0, UkfParams())
        assert tr.mean[0] == pytest.approx(1.5, abs=1e-12)
        assert tr.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_trace_strictly_increases_over_time(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tr = make_track(*rng.uniform(-4, 4, 2), h_n=1.6)
            trace = np.trace(tr.covariance)
            for _ in range(10):
                predict(tr, 1 / 30, UkfParams())
                new_trace = np.trace(tr.covariance)
                assert new_trace > trace
                trace = new_trace

    def test_covariance_spd_after_predict(self):
        tr = make_track(3.0, -1.0, vx=1.0)
        for _ in range(50):
            predict(tr, 1 / 30, UkfParams())
            assert np.linalg.eigvalsh(tr.covariance).min() > 0

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            predict(make_track(1, 1), 0.0, UkfParams())


class TestUpdate:
    def test_zero_innovation_keeps_state(self, cam):
        tr = make_track(2.0, 1.0)
        z = predicted_measurement(tr, cam, UkfParams())
        meas = FullBodyMeasurement(
            ankle_mid=ImagePoint(z[0], z[1]), neck=ImagePoint(z[2], z[3])
        )
        before = tr.mean.copy()
        diag_before = np.diag(tr.covariance).copy()
        assert update(tr, meas, cam, UkfParams())
        assert tr.mean == pytest.approx(before, abs=1e-9)
        assert np.all(np.diag(tr.covariance) <= diag_before + 1e-15)

    def test_innovation_uses_signed_wrap_difference(self, cam):
        # track projecting to column ~1915 observed at column ~5
        x, y = world_at_column(1915.0, 2.0, cam)
        tr = make_track(x, y)
        det = agent_detection(*world_at_column(5.0, 2.0, cam), cam)
        meas = measurement_from_detection(det, cam.image_width)
        before = tr.mean.copy()
        assert update(tr, meas, cam, UkfParams(), wrap_correction=True)
        moved = np.linalg.norm(tr.mean[:2] - before[:2])
        assert moved < 0.2  # a 10 px innovation nudges, not flings
        after = project_to_image(tr.state, cam).neck
        assert wrap_distance(after, det.neck, cam.image_width) < 10.0

    def test_naive_difference_wrecks_the_state(self, cam):
        x, y = world_at_column(1915.0, 2.0, cam)
        tr = make_track(x, y)
        det = agent_detection(*world_at_column(5.0, 2.0, cam), cam)
        meas = measurement_from_detection(det, cam.image_width)
        before = tr.mean.copy()
        update(tr, meas, cam, UkfParams(), wrap_correction=False)
        moved = np.linalg.norm(tr.mean[:2] - before[:2])
        assert moved > 1.0  # the -1910 px innovation drags the state away

    def test_neck_only_update(self, cam):
        tr = make_track(2.05, 0.0, h_n=NECK_Z)
        det = agent_detection(2.0, 0.0, cam)
        neck_meas = NeckOnlyMeasurement(neck=det.neck)
        before = abs(tr.mean[0] - 2.0)
        assert update(tr, neck_meas, cam, UkfParams())
        assert abs(tr.mean[0] - 2.0) < before

    def test_mahalanobis_gate_rejects(self, cam):
        tr = make_track(2.0, 0.0)
        det = agent_detection(2.0, 1.5, cam)  # far off prediction
        meas = measurement_from_detection(det, cam.image_width)
        before = tr.mean.copy()
        accepted = update(tr, meas, cam, UkfParams(), mahalanobis_gate=9.0)
        assert not accepted
        assert tr.mean == pytest.approx(before)

    def test_covariance_spd_after_updates(self, cam):
        rng = np.random.default_rng(11)
        tr = make_track(2.0, 0.5)
        for i in range(40):
            predict(tr, 1 / 30, UkfParams())
            det = agent_detection(
                2.0 + rng.normal(0, 0.01), 0.5 + rng.normal(0, 0.01), cam
            )
            update(tr, measurement_from_detection(det, cam.image_width), cam, UkfParams())
            assert np.linalg.eigvalsh(tr.covariance).min() > 0


def brute_force_assignment(cost: np.ndarray, gate: float):
    """All injective partial matchings; maximize matches then minimize
    total cost. Returns (n_matched, total_cost)."""
    n, m = cost.shape
    best = (0, 0.0)

    def rec(i, used, count, total):
        nonlocal best
        if i == n:
            cand = (count, total)
            if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1] - 1e-12):
                best = cand
            return
        rec(i + 1, used, count, total)  # track i unmatched
        for j in range(m):
            if j not in used and cost[i, j] <= gate:
                rec(i + 1, used | {j}, count + 1, total + cost[i, j])

    rec(0, frozenset(), 0, 0.0)
    return best


class TestAssociate:
    def test_single_pair_within_gate(self, cam):
        tr = make_track(2.0, 0.0)
        det = agent_detection(2.02, 0.0, cam)
        res = associate([tr], [det], cam, gate=150.0)
        assert res.pairs == [(0, 0)]
        assert res.unmatched_tracks == [] and res.unmatched_dets == []

    def test_out_of_gate_unmatched(self, cam):
        tr = make_track(2.0, 0.0)
        det = agent_detection(-2.0, 0.0, cam)  # opposite side of the camera
        res = associate([tr], [det], cam, gate=150.0)
        assert res.pairs == []
        assert res.unmatched_tracks == [0] and res.unmatched_dets == [0]

    def test_seam_pair_matches_cheaply(self, cam):
        x, y = world_at_column(1915.0, 2.0, cam)
        tr = make_track(x, y, h_n=NECK_Z)
        det = agent_detection(*world_at_column(5.0, 2.0, cam), cam)
        res = associate([tr], [det], cam, gate=150.0)
        assert res.pairs == [(0, 0)]
        pred = project_to_image(tr.state, cam).neck
        assert wrap_distance(pred, det.neck, cam.image_width) == pytest.approx(
            10.0, abs=0.5
        )

    def test_neckless_detection_never_matches(self, cam):
        tr = make_track(2.0, 0.0)
        det = skeleton({"left_ankle": (960, 700), "right_ankle": (965, 700)})
        res = associate([tr], [det], cam, gate=150.0)
        assert res.pairs == []
        assert res.unmatched_dets == [0]

    def test_swap_configuration_is_optimal(self, cam):
        t1 = make_track(2.0, 0.1)
        t2 = make_track(2.0, -0.1)
        d1 = agent_detection(2.0, -0.12, cam)
        d2 = agent_detection(2.0, 0.12, cam)
        res = associate([t1, t2], [d1, d2], cam, gate=150.0)
        assert sorted(res.pairs) == [(0, 1), (1, 0)]

    def test_matches_brute_force_on_random_instances(self, cam):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n, m = rng.integers(0, 5, 2)
            tracks = [
                make_track(*world_at_column(rng.uniform(0, 1920), rng.uniform(1.0, 5.0), cam))
                for _ in range(n)
            ]
            dets = [
                agent_detection(*world_at_column(rng.uniform(0, 1920), rng.uniform(1.0, 5.0), cam), cam)
                for _ in range(m)
            ]
            assert_matches_brute_force(tracks, dets, cam, gate=300.0)

    def test_matches_brute_force_across_seam_with_neckless(self, cam):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n, m = rng.integers(0, 6, 2)
            tracks = [
                make_track(*world_at_column(rng.uniform(-40, 40) % 1920, rng.uniform(1.5, 4.0), cam))
                for _ in range(n)
            ]
            dets = []
            for _ in range(m):
                det = agent_detection(
                    *world_at_column(rng.uniform(-40, 40) % 1920, rng.uniform(1.5, 4.0), cam), cam
                )
                if rng.random() < 0.3:
                    det = skeleton(
                        {k: (j.point.x, j.point.y, 1.0) for k, j in det.joints.items() if k != "neck"}
                    )
                dets.append(det)
            assert_matches_brute_force(tracks, dets, cam, gate=100.0)

    def test_no_tracks(self, cam):
        dets = [agent_detection(2.0, 0.0, cam), agent_detection(-2.0, 0.0, cam)]
        res = associate([], dets, cam, gate=150.0)
        assert res.pairs == [] and res.unmatched_tracks == []
        assert res.unmatched_dets == [0, 1]

    def test_no_detections(self, cam):
        res = associate([make_track(2.0, 0.0), make_track(-2.0, 0.0)], [], cam, gate=150.0)
        assert res.pairs == [] and res.unmatched_dets == []
        assert res.unmatched_tracks == [0, 1]

    def test_all_detections_neckless(self, cam):
        tracks = [make_track(2.0, 0.0), make_track(-2.0, 0.0)]
        dets = [
            skeleton({"left_ankle": (960, 700), "right_ankle": (965, 700)}),
            skeleton({"left_hip": (0, 600), "right_hip": (1915, 600)}),
        ]
        res = associate(tracks, dets, cam, gate=150.0)
        assert res.pairs == []
        assert res.unmatched_tracks == [0, 1] and res.unmatched_dets == [0, 1]


def assert_matches_brute_force(tracks, dets, cam, gate):
    """associate against exhaustive search over a cost matrix built with
    the scalar projection and scalar wrap distance; neckless detections
    cost infinity."""
    n, m = len(tracks), len(dets)
    res = associate(tracks, dets, cam, gate)
    cost = np.full((n, m), math.inf)
    for i, tr in enumerate(tracks):
        pred = project_to_image(tr.state, cam).neck
        for j, det in enumerate(dets):
            if det.neck is not None:
                cost[i, j] = wrap_distance(pred, det.neck, cam.image_width)
    assert all(cost[i, j] <= gate for i, j in res.pairs)
    best = brute_force_assignment(cost, gate)
    assert len(res.pairs) == best[0]
    assert sum(cost[i, j] for i, j in res.pairs) == pytest.approx(best[1], abs=1e-9)
    assert res.unmatched_tracks == sorted(set(range(n)) - {i for i, _ in res.pairs})
    assert res.unmatched_dets == sorted(set(range(m)) - {j for _, j in res.pairs})


def run_walker(
    cam,
    positions,
    cfg,
    fps=30.0,
    noise_sigma=0.0,
    seed=0,
    height=1.7,
):
    """Feed per-frame exact detections (plus optional pixel noise) of a
    single walker to a fresh tracker; returns the per-frame track lists."""
    rng = np.random.default_rng(seed)
    tracker = PanoTracker(cam, cfg)
    history = []
    for x, y in positions:
        det = agent_detection(x, y, cam, height=height)
        if noise_sigma > 0:
            joints = {
                name: (
                    j.point.x + rng.normal(0, noise_sigma),
                    j.point.y + rng.normal(0, noise_sigma),
                    1.0,
                )
                for name, j in det.joints.items()
            }
            det = skeleton(joints)
        history.append(tracker.step([det], 1.0 / fps))
    return history


def circle_positions(radius, start_deg, omega_deg_s, fps, n_frames):
    return [
        (
            radius * math.cos(math.radians(start_deg + omega_deg_s * i / fps)),
            radius * math.sin(math.radians(start_deg + omega_deg_s * i / fps)),
        )
        for i in range(n_frames)
    ]


def seam_walker_positions(fps, speed=1.0):
    """Walker at 1 m/s crossing the panorama seam (the -x axis) at a
    shallow angle, so its image column lingers near the seam while it
    crosses: from (-3, 0.4) to (-9, -0.4)."""
    start = np.array([-3.0, 0.4])
    end = np.array([-9.0, -0.4])
    length = float(np.linalg.norm(end - start))
    n_frames = int(length / speed * fps) + 1
    return [
        tuple(start + (end - start) * min(speed * i / fps / length, 1.0))
        for i in range(n_frames)
    ]


class TestStep:
    def test_spawn_confirm_promote(self, cam):
        history = run_walker(cam, [(2.0, 0.0)] * 5, TrackerConfig())
        assert history[0][0].status == TrackStatus.TENTATIVE
        assert not history[0][0].is_target
        confirmed_frame = next(
            i for i, tracks in enumerate(history) if tracks[0].status == TrackStatus.CONFIRMED
        )
        assert confirmed_frame == 2  # third consecutive hit
        assert history[confirmed_frame][0].is_target

    def test_all_lost_after_k_empty_frames(self, cam):
        cfg = TrackerConfig()
        tracker = PanoTracker(cam, cfg)
        tracker.step([agent_detection(2.0, 0.0, cam)], 1 / 30)
        last = []
        for _ in range(cfg.lose_after_misses):
            last = tracker.step([], 1 / 30)
        assert all(t.status == TrackStatus.LOST for t in last)
        assert tracker.tracks == []

    def test_stationary_convergence(self, cam):
        history = run_walker(cam, [(2.0, 1.0)] * 20, TrackerConfig())
        final = history[-1][0]
        assert math.hypot(final.mean[0] - 2.0, final.mean[1] - 1.0) < 1e-3

    def test_track_ids_unique_and_not_reused(self, cam):
        cfg = TrackerConfig(lose_after_misses=2)
        tracker = PanoTracker(cam, cfg)
        seen = []
        for i in range(30):
            dets = [agent_detection(2.0, 0.0, cam)] if (i // 5) % 2 == 0 else []
            for t in tracker.step(dets, 1 / 30):
                seen.append(t.id)
        ids = set(seen)
        assert len(ids) > 1  # the gaps force re-spawns
        # ids strictly increase in first-appearance order
        first_seen = []
        for tid in seen:
            if tid not in first_seen:
                first_seen.append(tid)
        assert first_seen == sorted(first_seen)

    def test_duplicate_detection_does_not_spawn_ghost(self, cam):
        tracker = PanoTracker(cam, TrackerConfig())
        det = agent_detection(2.0, 0.0, cam)
        for _ in range(5):
            tracker.step([det], 1 / 30)
        assert len(tracker.tracks) == 1
        # a near-identical duplicate (fusion miss) must not create a track
        dup = skeleton(
            {n: (j.point.x + 2.0, j.point.y + 1.0, 1.0) for n, j in det.joints.items()}
        )
        tracker.step([det, dup], 1 / 30)
        assert len(tracker.tracks) == 1

    def test_distant_detection_still_spawns(self, cam):
        tracker = PanoTracker(cam, TrackerConfig())
        det = agent_detection(2.0, 0.0, cam)
        for _ in range(5):
            tracker.step([det], 1 / 30)
        other = agent_detection(-3.0, 1.0, cam)
        tracker.step([det, other], 1 / 30)
        assert len(tracker.tracks) == 2

    def test_seam_duplicate_suppressed_and_distant_one_spawns(self, cam):
        det = agent_detection(*world_at_column(1918.0, 2.0, cam), cam)
        tracker = PanoTracker(cam, TrackerConfig())
        for _ in range(5):
            tracker.step([det], 1 / 30)
        assert len(tracker.tracks) == 1
        assert project_to_image(tracker.tracks[0].state, cam).neck.x == pytest.approx(
            1918.0, abs=0.5
        )

        def shifted(dx):
            return skeleton(
                {
                    n: ((j.point.x + dx) % cam.image_width, j.point.y, 1.0)
                    for n, j in det.joints.items()
                }
            )

        # a residual duplicate across the seam, at column 2, must not spawn
        dup = shifted(4.0)
        assert dup.neck.x == pytest.approx(2.0, abs=0.5)
        tracker.step([det, dup], 1 / 30)
        assert len(tracker.tracks) == 1
        # 40 px away is beyond the 30 px suppression radius
        tracker.step([det, shifted(40.0)], 1 / 30)
        assert len(tracker.tracks) == 2

    @pytest.mark.parametrize("ankle_row", [480.0, 400.0])
    def test_ankles_at_or_above_horizon_spawn_nothing(self, cam, ankle_row):
        # row 480 is the horizon of the default camera
        det = skeleton(
            {
                "neck": (960.0, 300.0),
                "left_ankle": (955.0, ankle_row),
                "right_ankle": (965.0, ankle_row),
            }
        )
        tracker = PanoTracker(cam, TrackerConfig())
        assert tracker.step([det], 1 / 30) == []
        assert tracker.tracks == []

    def test_neck_only_keeps_track_confirmed(self, cam):
        cam_w = cam.image_width
        cfg = TrackerConfig()
        tracker = PanoTracker(cam, cfg)
        full = agent_detection(2.0, 0.0, cam)
        for _ in range(4):
            tracker.step([full], 1 / 30)
        neckonly = skeleton(
            {"neck": (full.neck.x, full.neck.y, 1.0)}
        )
        for _ in range(10):
            out = tracker.step([neckonly], 1 / 30)
        tr = out[0]
        assert tr.status == TrackStatus.CONFIRMED
        assert tr.frames_since_update == 0

    def test_seam_crossing_keeps_single_id(self, cam):
        history = run_walker(
            cam,
            seam_walker_positions(30.0),
            TrackerConfig(wrap_correction=True),
            noise_sigma=1.0,
            seed=5,
        )
        target_ids = {t.id for tracks in history for t in tracks if t.is_target}
        assert len(target_ids) == 1

    def test_seam_crossing_without_correction_fragments(self, cam):
        history = run_walker(
            cam,
            seam_walker_positions(30.0),
            TrackerConfig(wrap_correction=False),
            noise_sigma=1.0,
            seed=5,
        )
        target_ids = {t.id for tracks in history for t in tracks if t.is_target}
        assert len(target_ids) >= 2
