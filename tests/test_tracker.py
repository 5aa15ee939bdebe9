import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from panotrack import detect
from panotrack.detect import detection_pixels
from panotrack.exceptions import ConfigError
import panotrack.tracker
from panotrack.geometry import (
    CameraModel,
    ImagePoint,
    WorldPoint,
    localize,
    world_to_image,
)
from panotrack.sim import Agent, AgentState, Body, WaypointTrajectory, project_agent
from panotrack.tracker import (
    H_N_RANGE,
    MAX_INITIAL_VARIANCE,
    PanoTracker,
    TrackerConfig,
    associate,
    innovation_stage,
    predict,
    unwrap_columns,
    update,
)
# dual-path consistency check
from panotrack.tracker import _column_range, _neck_pixels, _row_at_height
from panotrack.tracker import _sigma_points, _store_posterior, _wrap_distances
from panotrack.tracker import _FORBIDDEN, _gated_distances, _windowed_distances

BODY = Body(height=1.7, ankle_height=0.1, neck_drop=0.25)
NECK_Z = BODY.height - BODY.neck_drop


@dataclass
class Row:
    """One track's filter state, as a row of the tracker's arrays holds
    it: the mean, the covariance and the Cholesky factor that predict
    and update require."""

    id: int
    mean: np.ndarray
    covariance: np.ndarray
    cov_factor: np.ndarray

    @property
    def world_position(self):
        x, y, _, _, h = self.mean.tolist()
        return WorldPoint(x, y, h)


def new_track(track_id, mean, cov):
    return Row(track_id, mean, cov, np.linalg.cholesky(cov))


def stacked(rows):
    """The (n, 5) means, (n, 5, 5) covariances and factors of the rows."""
    return (
        np.array([r.mean for r in rows]).reshape(-1, 5),
        np.array([r.covariance for r in rows]).reshape(-1, 5, 5),
        np.array([r.cov_factor for r in rows]).reshape(-1, 5, 5),
    )


def store_rows(rows, kept):
    """Write the states a batch returns back to the rows, as step does."""
    for r, mean, cov, root in zip(rows, *kept):
        r.mean, r.covariance, r.cov_factor = mean, cov, root


def predict_rows(rows, dt, cfg):
    """The batched predict on the rows; returns the diverged indices."""
    kept, predicted = predict(*stacked(rows), dt, cfg)
    store_rows(rows, kept)
    return np.flatnonzero(~predicted).tolist()


def update_rows(rows, z_obs, cam, cfg):
    """The batched update on the rows against (n, 4) measurement rows,
    or (n, 2) neck rows, given to update with NaN ankles; returns the
    acceptance flags and the indices of accepted rows that diverged."""
    if z_obs.shape[1] == 2:
        z_obs = np.concatenate([np.full_like(z_obs, np.nan), z_obs], axis=1)
    means, covs, factors = stacked(rows)
    stage = innovation_stage(means, factors, cam, cfg)
    kept, accepted, updated = update(means, covs, factors, z_obs, stage, cam, cfg)
    store_rows(rows, kept)
    return accepted.tolist(), np.flatnonzero(accepted & ~updated).tolist()


def pairs(assignment):
    return list(zip(assignment.tracks.tolist(), assignment.dets.tolist()))


def make_track(x, y, vx=0.0, vy=0.0, h_n=NECK_Z, var=(0.01, 0.01, 0.04, 0.04, 0.001)):
    return new_track(1, np.array([x, y, vx, vy, h_n], dtype=float), np.diag(var).astype(float))


def pixel_row(det, cam):
    """The (4,) ankle-midpoint and neck pixel row of one detection, as
    step reads it; the full-body measurement of a detection that has
    both joints."""
    return detection_pixels([det], cam.image_width)[0]


def necks(dets, cam):
    """The (m, 2) neck pixels that step passes to associate."""
    return detection_pixels(dets, cam.image_width)[:, 2:]


def track_necks(rows, cam):
    """The (n, 2) predicted neck pixels of the rows, which step reads
    from the innovation stage and passes to associate."""
    return _neck_pixels(stacked(rows)[0], cam)


def update_one(track, z, cam, cfg):
    """The batched update on one track; returns its acceptance flag."""
    accepted, diverged = update_rows([track], np.asarray(z, dtype=float)[None], cam, cfg)
    assert diverged == []
    return accepted[0]


def wrap_distance(p1, p2, image_width):
    """Reference image distance between two pixels, the column measured
    the short way around the seam."""
    dx = abs(p1[0] - p2[0]) % image_width
    dx = min(dx, image_width - dx)
    return math.hypot(dx, p1[1] - p2[1])


# --- test-only reference: a plain per-track UKF ----------------------------


def ref_sigma_points(mean, cov, cfg):
    wm, wc, scale = cfg.weights
    offsets = scale * np.linalg.cholesky(cov).T
    return np.vstack([mean, mean + offsets, mean - offsets]), wm, wc


def ref_predict(mean, cov, dt, cfg):
    pts, wm, wc = ref_sigma_points(mean, cov, cfg)
    pts[:, 0] += pts[:, 2] * dt
    pts[:, 1] += pts[:, 3] * dt
    m = wm @ pts
    d = pts - m
    p = d.T @ (wc[:, None] * d) + np.diag(cfg.process_noise) * dt
    m[4] = min(max(m[4], H_N_RANGE[0]), H_N_RANGE[1])
    return m, p


def ref_measure(state, cam, dim):
    """Scalar measurement model: (ankle column, ankle row, neck column,
    neck row) for dim 4, the neck alone for dim 2."""
    neck = world_to_image(WorldPoint(state[0], state[1], state[4]), cam)
    if dim == 2:
        return [neck.x, neck.y]
    ankle = world_to_image(WorldPoint(state[0], state[1], cam.ankle_height), cam)
    return [ankle.x, ankle.y, neck.x, neck.y]


def ref_predicted_measurement(mean, cov, cam, cfg, dim):
    """(sigma points, their measurements, predicted measurement); with
    the config's wrap correction, sigma columns that straddle the seam
    are unwrapped first."""
    pts, wm, _ = ref_sigma_points(mean, cov, cfg)
    z_pts = np.array([ref_measure(p, cam, dim) for p in pts])
    half = cam.image_width / 2
    for c in range(0, dim, 2) if cfg.wrap_correction else ():
        col = z_pts[:, c]
        if col.max() - col.min() > half:
            z_pts[:, c] = np.where(col < half, col + cam.image_width, col)
    return pts, z_pts, wm @ z_pts


def ref_update(mean, cov, z, cam, cfg):
    """(posterior mean, posterior covariance, squared Mahalanobis
    distance of the innovation)."""
    dim = len(z)
    wc = cfg.weights[1]
    pts, z_pts, z_pred = ref_predicted_measurement(mean, cov, cam, cfg, dim)
    dz = z_pts - z_pred
    s = dz.T @ (wc[:, None] * dz) + cfg.measurement_noise * np.eye(dim)
    t = (pts - mean).T @ (wc[:, None] * dz)
    nu = np.asarray(z, dtype=float) - z_pred
    if cfg.wrap_correction:
        w = cam.image_width
        nu[::2] = (nu[::2] + w / 2) % w - w / 2
    gain = t @ np.linalg.inv(s)
    m = mean + gain @ nu
    m[4] = min(max(m[4], H_N_RANGE[0]), H_N_RANGE[1])
    p = cov - gain @ s @ gain.T
    return m, 0.5 * (p + p.T), float(nu @ np.linalg.solve(s, nu))


def agent_detection(x, y, cam, height=1.7):
    state = AgentState(
        agent=Agent(id=0, trajectory=WaypointTrajectory(points=((x, y),)), body=Body(height=height)),
        x=x,
        y=y,
    )
    return project_agent(state, cam)


def world_at_column(column, rho, cam):
    theta = math.radians(180.0 - cam.deg_per_px_x * column)
    return rho * math.cos(theta), rho * math.sin(theta)


class TestWrapCorrect:
    def test_unwrap_columns_rule(self):
        xs = np.array([1900.0, 1910.0, 10.0])
        assert unwrap_columns(xs, 1920).tolist() == [1900, 1910, 1930]
        xs = np.array([100.0, 200.0])
        assert unwrap_columns(xs, 1920).tolist() == [100, 200]
        # along the last axis: each row is unwrapped on its own spread
        xs = np.array([[1900.0, 1910.0, 10.0], [100.0, 200.0, 300.0]])
        assert unwrap_columns(xs, 1920).tolist() == [[1900, 1910, 1930], [100, 200, 300]]


def track_pixels(mean, cam):
    """(ankle midpoint, neck) pixels of a track mean: the ankle midpoint
    at the camera's ankle-plane height and the neck at h_n."""
    x, y, _, _, h = mean
    return world_to_image(WorldPoint(x, y, cam.ankle_height), cam), world_to_image(WorldPoint(x, y, h), cam)


class TestProjectToImage:
    def test_reference_state(self, cam):
        ankle, neck = track_pixels([1.1, 0, 0, 0, 1.4188036041176237], cam)
        assert ankle.x == pytest.approx(960)
        assert ankle.y == pytest.approx(720)
        assert neck.y == pytest.approx(420, abs=1e-9)

    def test_side_axis(self, cam):
        _, neck = track_pixels([0, 2.0, 0, 0, 1.5], cam)
        assert neck.x == pytest.approx(480)

    def test_round_trips_with_localize(self, cam):
        ankle, neck = track_pixels([1.7, -2.3, 0, 0, 1.52], cam)
        w = localize(ankle, neck, cam)
        assert w.x == pytest.approx(1.7, abs=1e-9)
        assert w.y == pytest.approx(-2.3, abs=1e-9)
        assert w.z == pytest.approx(1.52, abs=1e-9)

    def test_target_key_is_the_pixel_height_then_the_column(self, cam):
        # bit for bit the world_to_image pixels of the mean, seam columns included
        tracker = PanoTracker(cam, TrackerConfig())
        tracker.means = np.array(
            [
                [1.1, 0.0, 0.3, 0.0, 1.42],
                [-2.0, -1e-12, 0.5, 0.0, 1.45],
                [-2.0, 0.0, 0.0, 0.0, 1.45],
                [0.5, 3.0, -1.0, 0.2, 1.7],
                [-4.0, 2.0, 0.0, 0.0, 0.9],
            ]
        )
        for row, mean in enumerate(tracker.means.tolist()):
            ankle, neck = track_pixels(mean, cam)
            assert tracker._prominence(row) == (-abs(ankle.y - neck.y), neck.x)

    def test_matches_vectorized_model(self, cam):
        states = np.array(
            [
                [1.1, 0.0, 0.0, 0.0, 1.42],
                [-2.0, -0.03, 0.5, 0.0, 1.45],
                [0.5, 3.0, -1.0, 0.2, 1.7],
                [-4.0, 2.0, 0.0, 0.0, 0.9],
            ]
        )
        col, rho = _column_range(states[:, 0], states[:, 1], cam)
        ankle_rows = _row_at_height(rho, cam.ankle_height, cam)
        z = _neck_pixels(states, cam)
        for i, row in enumerate(states):
            ankle, neck = track_pixels(row.tolist(), cam)
            assert col[i] == pytest.approx(ankle.x, abs=1e-9)
            assert ankle_rows[i] == pytest.approx(ankle.y, abs=1e-9)
            assert z[i, 0] == pytest.approx(neck.x, abs=1e-9)
            assert z[i, 1] == pytest.approx(neck.y, abs=1e-9)


class TestBatchedPathsMatchScalar:
    """step() runs the batched predict/update over all tracks; they
    must agree with the plain per-track reference above."""

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
            tracks.append(new_track(k + 1, mean, cov))
        return tracks

    @staticmethod
    def _measurements(tracks, cam, dim, rng=None, col_shifts=None):
        """Detections near each track (a world offset drawn from rng, or
        a column shift in pixels), as (n, dim) measurement rows."""
        rows = []
        for k, t in enumerate(tracks):
            if col_shifts is None:
                x, y = t.mean[0] + rng.normal(0, 0.05), t.mean[1] + rng.normal(0, 0.05)
            else:
                col = world_to_image(t.world_position, cam).x + col_shifts[k]
                x, y = world_at_column(col % 1920, math.hypot(t.mean[0], t.mean[1]), cam)
            z = pixel_row(agent_detection(x, y, cam), cam)
            rows.append(z if dim == 4 else z[2:])
        return np.array(rows)

    def _assert_update_matches(self, tracks, z_obs, cam, gate=None):
        cfg = TrackerConfig(mahalanobis_gate=gate)
        before = [(t.mean.copy(), t.covariance.copy()) for t in tracks]
        accepted, diverged = update_rows(tracks, z_obs, cam, cfg)
        assert diverged == []
        for t, (mean0, cov0), z, ok in zip(tracks, before, z_obs, accepted):
            mean, cov, maha = ref_update(mean0, cov0, z, cam, cfg)
            assert ok == (gate is None or maha <= gate)
            if ok:
                assert t.mean == pytest.approx(mean, abs=1e-9)
                assert np.allclose(t.covariance, cov, atol=1e-10)
                assert np.allclose(t.cov_factor @ t.cov_factor.T, t.covariance, atol=1e-12)
            else:
                assert np.array_equal(t.mean, mean0)
                assert np.array_equal(t.covariance, cov0)
        return accepted

    def test_predict_equivalence(self, cam):
        rng = np.random.default_rng(9)
        tracks = self._random_tracks(rng, 6)
        expected = [ref_predict(t.mean, t.covariance, 1 / 30, TrackerConfig()) for t in tracks]
        assert predict_rows(tracks, 1 / 30, TrackerConfig()) == []
        for t, (mean, cov) in zip(tracks, expected):
            assert t.mean == pytest.approx(mean, abs=1e-10)
            assert np.allclose(t.covariance, cov, atol=1e-12)

    def test_update_equivalence(self, cam):
        rng = np.random.default_rng(10)
        tracks = self._random_tracks(rng, 6)
        predict_rows(tracks, 1 / 30, TrackerConfig())
        z_obs = self._measurements(tracks, cam, 4, rng)
        assert self._assert_update_matches(tracks, z_obs, cam) == [True] * len(tracks)

    def test_neck_only_update_equivalence(self, cam):
        rng = np.random.default_rng(12)
        tracks = self._random_tracks(rng, 6)
        predict_rows(tracks, 1 / 30, TrackerConfig())
        z_obs = self._measurements(tracks, cam, 2, rng)
        assert z_obs.shape == (6, 2)
        assert self._assert_update_matches(tracks, z_obs, cam) == [True] * len(tracks)

    def test_update_equivalence_at_seam(self, cam):
        for dim in (4, 2):
            seam_tracks = []
            for k, col in enumerate([1918.0, 2.0, 1910.0]):
                x, y = world_at_column(col, 2.0 + k, cam)
                tr = make_track(x, y, var=(0.02, 0.02, 0.1, 0.1, 0.01))
                tr.id = k + 1
                seam_tracks.append(tr)
            z_obs = self._measurements(seam_tracks, cam, dim, col_shifts=[6.0, -5.0, 14.0])
            predict_rows(seam_tracks, 1 / 30, TrackerConfig())
            # the sigma columns of the track at 1918 straddle the seam
            _, z_pts, _ = ref_predicted_measurement(
                seam_tracks[0].mean, seam_tracks[0].covariance, cam, TrackerConfig(), dim
            )
            assert z_pts[:, 0].max() > 1920
            self._assert_update_matches(seam_tracks, z_obs, cam)

    def test_mixed_batch_gate_rejects_only_failing_track(self, cam):
        rng = np.random.default_rng(13)
        for dim in (4, 2):
            tracks = self._random_tracks(rng, 4)
            z_obs = self._measurements(tracks, cam, dim, rng)
            # track 2's detection is 60 px off its prediction
            z_obs[2, ::2] = (z_obs[2, ::2] + 60.0) % 1920
            accepted = self._assert_update_matches(tracks, z_obs, cam, gate=9.0)
            assert accepted == [True, True, False, True]


class TestPredict:
    def test_stationary_position_unchanged(self):
        tr = make_track(2.0, 1.0)
        before = tr.covariance.copy()
        predict_rows([tr], 0.5, TrackerConfig())
        assert tr.mean[:2] == pytest.approx([2.0, 1.0], abs=1e-12)
        assert np.trace(tr.covariance) > np.trace(before)

    def test_constant_velocity(self):
        tr = make_track(1.0, 0.0, vx=0.5, vy=0.0)
        predict_rows([tr], 1.0, TrackerConfig())
        assert tr.mean[0] == pytest.approx(1.5, abs=1e-12)
        assert tr.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_trace_strictly_increases_over_time(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tr = make_track(*rng.uniform(-4, 4, 2), h_n=1.6)
            trace = np.trace(tr.covariance)
            for _ in range(10):
                predict_rows([tr], 1 / 30, TrackerConfig())
                new_trace = np.trace(tr.covariance)
                assert new_trace > trace
                trace = new_trace

    def test_covariance_spd_after_predict(self):
        tr = make_track(3.0, -1.0, vx=1.0)
        for _ in range(50):
            predict_rows([tr], 1 / 30, TrackerConfig())
            assert np.linalg.eigvalsh(tr.covariance).min() > 0

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            predict_rows([make_track(1, 1)], 0.0, TrackerConfig())

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ConfigError, match="dt must be a finite number"):
            predict_rows([make_track(1, 1)], dt, TrackerConfig())

    def test_non_finite_posterior_diverges_and_is_not_stored(self):
        tracks = [make_track(2.0, 1.0), make_track(1.0, -2.0, vx=1e308)]
        before = tracks[1].mean.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            assert predict_rows(tracks, 10.0, TrackerConfig()) == [1]
        assert tracks[0].mean[:2] == pytest.approx([2.0, 1.0], abs=1e-12)
        assert np.array_equal(tracks[1].mean, before)

    def test_infinite_height_diverges_rather_than_clamped(self):
        # the height clamp would map inf into range; finiteness is read first
        track = make_track(2.0, 1.0)
        before = track.mean.copy()
        means = np.array([[2.0, 1.0, 0.0, 0.0, math.inf]])
        kept, stored = _store_posterior(
            stacked([track]), means, track.covariance[None], np.array([True]), 1e-9
        )
        assert np.flatnonzero(~stored).tolist() == [0]
        store_rows([track], kept)
        assert np.array_equal(track.mean, before)


class TestUpdate:
    def test_zero_innovation_keeps_state(self, cam):
        tr = make_track(2.0, 1.0)
        _, _, z = ref_predicted_measurement(tr.mean, tr.covariance, cam, TrackerConfig(), 4)
        z[::2] %= cam.image_width
        before = tr.mean.copy()
        diag_before = np.diag(tr.covariance).copy()
        assert update_one(tr, z, cam, TrackerConfig())
        assert tr.mean == pytest.approx(before, abs=1e-9)
        assert np.all(np.diag(tr.covariance) <= diag_before + 1e-15)

    def test_innovation_uses_signed_wrap_difference(self, cam):
        # track projecting to column ~1915 observed at column ~5
        x, y = world_at_column(1915.0, 2.0, cam)
        tr = make_track(x, y)
        det = agent_detection(*world_at_column(5.0, 2.0, cam), cam)
        meas = pixel_row(det, cam)
        before = tr.mean.copy()
        assert update_one(tr, meas, cam, TrackerConfig(wrap_correction=True))
        moved = np.linalg.norm(tr.mean[:2] - before[:2])
        assert moved < 0.2  # a 10 px innovation nudges, not flings
        after = world_to_image(tr.world_position, cam)
        assert wrap_distance(after, det["neck"], cam.image_width) < 10.0

    def test_naive_difference_wrecks_the_state(self, cam):
        x, y = world_at_column(1915.0, 2.0, cam)
        tr = make_track(x, y)
        det = agent_detection(*world_at_column(5.0, 2.0, cam), cam)
        meas = pixel_row(det, cam)
        before = tr.mean.copy()
        update_one(tr, meas, cam, TrackerConfig(wrap_correction=False))
        moved = np.linalg.norm(tr.mean[:2] - before[:2])
        assert moved > 1.0  # the -1910 px innovation drags the state away

    def test_neck_only_update(self, cam):
        tr = make_track(2.05, 0.0, h_n=NECK_Z)
        det = agent_detection(2.0, 0.0, cam)
        neck_meas = list(det["neck"])
        before = abs(tr.mean[0] - 2.0)
        assert update_one(tr, neck_meas, cam, TrackerConfig())
        assert abs(tr.mean[0] - 2.0) < before

    def test_mahalanobis_gate_rejects(self, cam):
        tr = make_track(2.0, 0.0)
        det = agent_detection(2.0, 1.5, cam)  # far off prediction
        meas = pixel_row(det, cam)
        before = tr.mean.copy()
        accepted = update_one(tr, meas, cam, TrackerConfig(mahalanobis_gate=9.0))
        assert not accepted
        assert tr.mean == pytest.approx(before)

    def test_config_jitter_floor_repairs_the_posterior(self, cam):
        # the gain comes from the Cholesky factor alone, so a stored
        # covariance below the one the factor implies lowers the
        # posterior by the same amount: here to an eigenvalue of -1e-6
        z = pixel_row(agent_detection(2.02, 0.48, cam), cam)
        probe = make_track(2.0, 0.5)
        assert update_one(probe, z, cam, TrackerConfig())
        evals, evecs = np.linalg.eigh(probe.covariance)
        drop = (evals[0] + 1e-6) * np.outer(evecs[:, 0], evecs[:, 0])
        tr = make_track(2.0, 0.5)
        tr.covariance = tr.covariance - drop
        assert update_one(tr, z, cam, TrackerConfig(jitter_floor=1e-3))
        # the default floor would need only 1e-5 of the 1e-9 * 100**k steps
        expected = probe.covariance - drop + 1e-3 * np.eye(5)
        assert np.allclose(tr.covariance, expected, rtol=0, atol=1e-12)
        assert np.allclose(tr.cov_factor @ tr.cov_factor.T, tr.covariance, atol=1e-12)

    def test_unrepairable_posterior_leaves_its_row_and_the_batch_is_stored(self, cam):
        # the second covariance lies far below the one its factor implies,
        # so its posterior fails the batched factorization and every jitter
        z = pixel_row(agent_detection(2.02, 0.48, cam), cam)
        alone, good, bad = make_track(2.0, 0.5), make_track(2.0, 0.5), make_track(-1.0, 2.0)
        bad.covariance = -1e6 * np.eye(5)
        z_bad = pixel_row(agent_detection(-1.0, 2.02, cam), cam)
        before = bad.mean.copy(), bad.covariance.copy(), bad.cov_factor.copy()
        assert update_one(alone, z, cam, TrackerConfig())
        assert update_rows([good, bad], np.array([z, z_bad]), cam, TrackerConfig()) == (
            [True, True], [1]
        )
        for got, want in zip(
            (good.mean, good.covariance, good.cov_factor),
            (alone.mean, alone.covariance, alone.cov_factor),
        ):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip((bad.mean, bad.covariance, bad.cov_factor), before):
            assert np.array_equal(got, want)

    def test_covariance_spd_after_updates(self, cam):
        rng = np.random.default_rng(11)
        tr = make_track(2.0, 0.5)
        for i in range(40):
            predict_rows([tr], 1 / 30, TrackerConfig())
            det = agent_detection(
                2.0 + rng.normal(0, 0.01), 0.5 + rng.normal(0, 0.01), cam
            )
            update_one(tr, pixel_row(det, cam), cam, TrackerConfig())
            assert np.linalg.eigvalsh(tr.covariance).min() > 0


def brute_force_assignment(cost: np.ndarray, gate: float):
    """All injective partial matchings; maximize matches then minimize
    total cost. Returns (n_matched, total_cost). Tracks that share no
    gated detection, even through others, cannot compete, so each
    connected component of the gate graph is searched on its own."""
    gated = cost <= gate
    unseen = set(range(cost.shape[0]))
    matched, total = 0, 0.0
    while unseen:
        stack, rows = [unseen.pop()], []
        while stack:
            i = stack.pop()
            rows.append(i)
            linked = {k for k in unseen if (gated[i] & gated[k]).any()}
            unseen -= linked
            stack.extend(linked)
        rows.sort()
        cols = np.flatnonzero(gated[rows].any(axis=0))
        count, cost_sum = _exhaustive_assignment(cost[np.ix_(rows, cols)], gate)
        matched, total = matched + count, total + cost_sum
    return matched, total


def _exhaustive_assignment(cost: np.ndarray, gate: float):
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
        res = associate(track_necks([tr], cam), necks([det], cam), cam.image_width, gate=150.0)
        assert pairs(res) == [(0, 0)]
        assert res.unmatched_tracks == [] and res.unmatched_dets == []

    def test_out_of_gate_unmatched(self, cam):
        tr = make_track(2.0, 0.0)
        det = agent_detection(-2.0, 0.0, cam)  # opposite side of the camera
        res = associate(track_necks([tr], cam), necks([det], cam), cam.image_width, gate=150.0)
        assert pairs(res) == []
        assert res.unmatched_tracks == [0] and res.unmatched_dets == [0]

    def test_seam_pair_matches_cheaply(self, cam):
        x, y = world_at_column(1915.0, 2.0, cam)
        tr = make_track(x, y, h_n=NECK_Z)
        det = agent_detection(*world_at_column(5.0, 2.0, cam), cam)
        res = associate(track_necks([tr], cam), necks([det], cam), cam.image_width, gate=150.0)
        assert pairs(res) == [(0, 0)]
        pred = world_to_image(tr.world_position, cam)
        assert wrap_distance(pred, det["neck"], cam.image_width) == pytest.approx(
            10.0, abs=0.5
        )

    def test_neckless_detection_never_matches(self, cam):
        tr = make_track(2.0, 0.0)
        det = {"left_ankle": (960, 700), "right_ankle": (965, 700)}
        res = associate(track_necks([tr], cam), necks([det], cam), cam.image_width, gate=150.0)
        assert pairs(res) == []
        assert res.unmatched_dets == [0]

    def test_swap_configuration_is_optimal(self, cam):
        t1 = make_track(2.0, 0.1)
        t2 = make_track(2.0, -0.1)
        d1 = agent_detection(2.0, -0.12, cam)
        d2 = agent_detection(2.0, 0.12, cam)
        res = associate(track_necks([t1, t2], cam), necks([d1, d2], cam), cam.image_width, gate=150.0)
        assert sorted(pairs(res)) == [(0, 1), (1, 0)]

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
                    det = {k: p for k, p in det.items() if k != "neck"}
                dets.append(det)
            assert_matches_brute_force(tracks, dets, cam, gate=100.0)

    def test_matches_brute_force_on_a_50_person_crowd(self, cam):
        rng = np.random.default_rng(50)
        tracks, dets = [], []
        for _ in range(50):
            x, y = world_at_column(rng.uniform(0, 1920), rng.uniform(1.5, 6.0), cam)
            tracks.append(make_track(x + rng.normal(0, 0.1), y + rng.normal(0, 0.1)))
            dets.append(agent_detection(x, y, cam))
        # at this gate the people fall into gate-graph components of up
        # to 6 tracks, 11 of them contested, which exhaustive search can
        # still cover
        assert_matches_brute_force(tracks, dets, cam, gate=40.0)

    def test_no_tracks(self, cam):
        dets = [agent_detection(2.0, 0.0, cam), agent_detection(-2.0, 0.0, cam)]
        res = associate(track_necks([], cam), necks(dets, cam), cam.image_width, gate=150.0)
        assert pairs(res) == [] and res.unmatched_tracks == []
        assert res.unmatched_dets == [0, 1]

    def test_no_detections(self, cam):
        tracks = [make_track(2.0, 0.0), make_track(-2.0, 0.0)]
        res = associate(track_necks(tracks, cam), necks([], cam), cam.image_width, gate=150.0)
        assert pairs(res) == [] and res.unmatched_dets == []
        assert res.unmatched_tracks == [0, 1]

    def test_all_detections_neckless(self, cam):
        tracks = [make_track(2.0, 0.0), make_track(-2.0, 0.0)]
        dets = [
            {"left_ankle": (960, 700), "right_ankle": (965, 700)},
            {"left_hip": (0, 600), "right_hip": (1915, 600)},
        ]
        res = associate(track_necks(tracks, cam), necks(dets, cam), cam.image_width, gate=150.0)
        assert pairs(res) == []
        assert res.unmatched_tracks == [0, 1] and res.unmatched_dets == [0, 1]

    def test_crowd_scores_only_the_window(self, cam, monkeypatch):
        """A 200-track, 200-detection call builds no dense distance
        matrix, and its assignment is the dense cost matrix's."""
        rng = np.random.default_rng(200)
        tracks, dets = [], []
        for _ in range(200):
            x, y = world_at_column(rng.uniform(0, 1920), rng.uniform(1.5, 7.0), cam)
            tracks.append(make_track(x + rng.normal(0, 0.1), y + rng.normal(0, 0.1)))
            det = agent_detection(x, y, cam)
            if rng.random() < 0.05:
                det = {k: p for k, p in det.items() if k != "neck"}
            dets.append(det)
        means, det_necks = stacked(tracks)[0], necks(dets, cam)
        dist = _wrap_distances(_neck_pixels(means, cam), det_necks, cam.image_width, 150.0)
        rows, cols = linear_sum_assignment(np.where(dist <= 150.0, dist, _FORBIDDEN))
        within = dist[rows, cols] <= 150.0
        calls = []

        def counted(*args):
            calls.append(args)
            return _wrap_distances(*args)

        monkeypatch.setattr(panotrack.tracker, "_wrap_distances", counted)
        res = associate(_neck_pixels(means, cam), det_necks, cam.image_width, gate=150.0)
        assert calls == []
        assert pairs(res) == list(zip(rows[within].tolist(), cols[within].tolist()))
        assert res.unmatched_tracks == sorted(set(range(200)) - set(rows[within].tolist()))
        assert res.unmatched_dets == sorted(set(range(200)) - set(cols[within].tolist()))


W = 1920


@st.composite
def gated_distance_case(draw):
    """(a, b, limit, pairs at the limit): two pixel lists mixing columns
    anywhere in [-W, 2W), columns either side of the seam and neckless
    (NaN) rows, plus integer pairs whose distance is the limit exactly,
    straight or across the seam."""
    limit = draw(st.integers(1, 400))
    column = st.one_of(
        st.floats(-W, 2 * W, exclude_max=True),
        st.floats(W - 60, W),
        st.floats(0, 60),
    )
    point = st.one_of(st.tuples(column, st.floats(0, 960)), st.just((math.nan, math.nan)))
    a = draw(st.lists(point, min_size=1, max_size=6))
    b = draw(st.lists(point, max_size=6))
    at_limit = []
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(-W, 2 * W - 1)), draw(st.integers(0, 960))
        dx, dy = draw(
            st.sampled_from([(limit, 0), (-limit, 0), (0, limit), (0, -limit)])
            | st.sampled_from([(W - limit, 0), (limit - W, 0)])  # across the seam
        )
        at_limit.append((len(a), len(b)))
        a.append((float(x), float(y)))
        b.append((float(x + dx), float(y + dy)))
    return a, b, float(limit), at_limit


@st.composite
def predicted_states(draw):
    """(means, factors, cfg, subset): 1-40 predicted states at any
    azimuth, with columns either side of the seam among them, and the
    Cholesky factors of random covariances wide enough that the sigma
    columns of a state near the seam straddle it; a config with the wrap
    correction on or off; and a subset of the rows, in any order."""
    cam = CameraModel()
    column = st.one_of(
        st.floats(0, W, exclude_max=True), st.floats(W - 25, W, exclude_max=True), st.floats(0, 25)
    )
    spots = draw(st.lists(st.tuples(column, st.floats(1.0, 8.0)), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means, factors = [], []
    for col, rho in spots:
        x, y = world_at_column(col, rho, cam)
        means.append([x, y, *rng.normal(0.0, 0.5, 2), rng.uniform(1.2, 1.8)])
        a = rng.normal(0.0, 0.1, (5, 5))
        cov = np.diag(rng.uniform(0.005, 0.3, 5)) + a @ a.T
        factors.append(np.linalg.cholesky(cov))
    n = len(spots)
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    cfg = TrackerConfig(wrap_correction=draw(st.booleans()))
    return np.array(means), np.array(factors), cfg, np.array(subset)


@st.composite
def seam_states(draw):
    """(means, factors, cfg): 1-30 states at ground ranges of 0.31-50 m
    and neck heights in H_N_RANGE, about half of them across the seam
    (x < 0, |y| < 1e-6, some with y = +0.0 or -0.0, so that their
    columns fall just either side of it), and the Cholesky factors of
    diagonal covariances whose variances run from 1e-6 to
    MAX_INITIAL_VARIANCE, wide enough that unwrap_columns shifts the
    sigma columns of many seam states, the centre one included; a
    config with the wrap correction on or off."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(0.31, 50.0, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    seam = rng.random(n) < 0.5
    x[seam] = -rho[seam]
    y_seam = rng.uniform(-1e-6, 1e-6, seam.sum())
    signed_zero = rng.random(len(y_seam)) < 0.2
    y_seam[signed_zero] = np.copysign(0.0, y_seam[signed_zero])
    y[seam] = y_seam
    means = np.column_stack([x, y, rng.uniform(-3.0, 3.0, (n, 2)), rng.uniform(*H_N_RANGE, n)])
    variances = 10.0 ** rng.uniform(-6.0, math.log10(MAX_INITIAL_VARIANCE), (n, 5))
    factors = np.sqrt(variances)[:, :, None] * np.eye(5)
    return means, factors, TrackerConfig(wrap_correction=draw(st.booleans()))


def direct_neck_moments(means, factors, cam, cfg):
    """The d = 2 (neck) z_pred, S and T of the states, computed on
    their own: sigma points, the neck projection of each, the unwrap of
    their columns and the weighted moments."""
    wm, wc, scale = cfg.weights
    offsets = scale * factors.transpose(0, 2, 1)
    center = means[:, None, :]
    pts = np.concatenate([center, center + offsets, center - offsets], axis=1)
    flat = pts.reshape(-1, 5)
    x, y, h_n = flat[:, 0], flat[:, 1], flat[:, 4]
    rho = np.hypot(x, y)
    col = ((180.0 - np.degrees(np.arctan2(y, x))) / cam.deg_per_px_x) % cam.image_width
    row = (90.0 - np.degrees(np.arctan2(h_n - cam.mount_height, rho))) / cam.deg_per_px_y
    z_pts = np.stack([col, row], axis=1).reshape(len(means), pts.shape[1], 2)
    if cfg.wrap_correction:
        cols = z_pts[:, :, 0]
        split = cols.max(axis=1) - cols.min(axis=1) > cam.image_width / 2
        low = cols < cam.image_width / 2
        z_pts[:, :, 0] = np.where(split[:, None] & low, cols + cam.image_width, cols)
    z_pred = np.einsum("w,nwd->nd", wm, z_pts)
    dz = z_pts - z_pred[:, None, :]
    s_cov = np.einsum("w,nwi,nwj->nij", wc, dz, dz) + cfg.measurement_noise * np.eye(2)
    t_cov = np.einsum("w,nwi,nwj->nij", wc, pts - center, dz)
    return z_pred, s_cov, t_cov


class TestInnovationStage:
    @settings(max_examples=200, deadline=None)
    @given(predicted_states())
    def test_neck_slices_and_subsets_are_exact(self, case):
        means, factors, cfg, subset = case
        cam = CameraModel()
        stage = innovation_stage(means, factors, cam, cfg)
        assert stage.z_pred.shape == (len(means), 4)
        assert stage.s_cov.shape == (len(means), 4, 4)
        assert stage.t_cov.shape == (len(means), 5, 4)
        # bit for bit: the neck slices are the d = 2 moments
        z_pred, s_cov, t_cov = direct_neck_moments(means, factors, cam, cfg)
        assert np.array_equal(stage.z_pred[:, 2:], z_pred)
        assert np.array_equal(stage.s_cov[:, 2:, 2:], s_cov)
        assert np.array_equal(stage.t_cov[:, :, 2:], t_cov)
        # and the stage of a subset of rows is that subset of the stage
        alone = innovation_stage(means[subset], factors[subset], cam, cfg)
        for got, ref in zip(stage.take(subset), alone):
            assert np.array_equal(got, ref)

    @settings(max_examples=300, deadline=None)
    @given(seam_states())
    def test_centre_necks_are_the_neck_pixels_bit_for_bit(self, case):
        """The stage's necks, which association reads, are the raw
        centre projections: ``_neck_pixels`` of the states to the bit,
        never a column unwrap_columns shifted."""
        means, factors, cfg = case
        cam = CameraModel()
        necks = innovation_stage(means, factors, cam, cfg).necks
        assert np.array_equal(necks.view(np.uint64), _neck_pixels(means, cam).view(np.uint64))

    def test_sigma_columns_at_the_seam_are_unwrapped_once(self, cam):
        x, y = world_at_column(1918.0, 2.0, cam)
        tr = make_track(x, y, var=(0.02, 0.02, 0.1, 0.1, 0.01))
        means, _, factors = stacked([tr])
        stage = innovation_stage(means, factors, cam, TrackerConfig())
        # the ankle midpoint and the neck share the unwrapped column
        assert stage.z_pred[0, 0] == stage.z_pred[0, 2]
        _, z_pts, ref = ref_predicted_measurement(tr.mean, tr.covariance, cam, TrackerConfig(), 4)
        assert z_pts[:, 0].max() > cam.image_width  # the sigma columns straddle the seam
        assert stage.z_pred[0] == pytest.approx(ref, abs=1e-9)


class TestSigmaPointLayout:
    @pytest.mark.parametrize("n", [1, 3])
    def test_strides_are_pinned(self, n):
        """``einsum`` sums in an order that follows the strides, so the
        sigma points' layout is part of the output: a C-contiguous array
        with bit-equal values changes the tracks files. From C-contiguous
        means and factors the points of one state lie point-fastest."""
        means = np.zeros((n, 5))
        factors = np.broadcast_to(np.eye(5), (n, 5, 5)).copy()
        pts = _sigma_points(means, factors, 1.5)
        size = pts.itemsize
        assert pts.shape == (n, 11, 5)
        assert pts.strides == (55 * size, size, 11 * size)


@st.composite
def crowd_distance_case(draw):
    """(a, b, limit): 150-250 pixels a side, the size of a crowd frame,
    from a seeded generator: columns in [0, W), anywhere in [-W, 2W) or
    within 20 px of the seam, and about 5 % neckless (NaN) rows; and a
    limit from 1 px to past half the width, integer or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, W]))  # columns up to one width past either end

    def pixels():
        k = int(rng.integers(150, 251))
        columns = np.where(
            rng.random(k) < 0.2, rng.uniform(-20.0, 20.0, k) % W, rng.uniform(-spread, W + spread, k)
        )
        points = np.stack([columns, rng.uniform(0.0, 960.0, k)], axis=1)
        points[rng.random(k) < 0.05] = math.nan
        return points

    limit = draw(st.integers(1, 400).map(float) | st.floats(1.0, 0.6 * W))
    return pixels(), pixels(), limit


def gated(dense, limit):
    """``_gated_distances``' matrix, from the dense ``_wrap_distances``."""
    return np.where(dense <= limit, dense, _FORBIDDEN)


class TestWrapDistances:
    @settings(max_examples=300, deadline=None)
    @given(gated_distance_case())
    def test_exact_inside_the_limit_and_above_it_outside(self, case):
        a, b, limit, at_limit = case
        pixels = [np.array(points, dtype=float).reshape(-1, 2) for points in (a, b)]
        got = _wrap_distances(*pixels, W, limit)
        assert got.shape == (len(a), len(b))
        # the column windows give the dense values, bit for bit
        windowed = _windowed_distances(*pixels, W, limit, _FORBIDDEN)
        assert windowed.tobytes() == gated(got, limit).tobytes()
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                ref = wrap_distance(ImagePoint(*p), ImagePoint(*q), W)
                if ref <= limit:  # NaN (neckless) is never within the limit
                    # np.hypot and math.hypot may differ in the last bit
                    assert got[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12)
                else:
                    assert got[i, j] > limit
        for i, j in at_limit:
            assert got[i, j] == limit

    def test_column_gap_beyond_the_width_is_reduced(self):
        # 2000 lies outside [0, W]: the gap 1990 is 70 the short way round
        got = _wrap_distances(np.array([[10.0, 5.0]]), np.array([[2000.0, 5.0]]), W, 100.0)
        assert got.tolist() == [[70.0]]

    # about 0.6 s on a 2-CPU VM
    @settings(max_examples=100, deadline=None)
    @given(crowd_distance_case())
    def test_crowd_windows_equal_the_dense_matrix(self, case):
        a, b, limit = case
        dense = gated(_wrap_distances(a, b, W, limit), limit)
        assert _windowed_distances(a, b, W, limit, _FORBIDDEN).tobytes() == dense.tobytes()
        with mock.patch.object(
            panotrack.tracker, "_windowed_distances", wraps=_windowed_distances
        ) as windowed:
            got = _gated_distances(a, b, W, limit, _FORBIDDEN)
        assert got.tobytes() == dense.tobytes()
        # the windows unless they would span half the panorama
        assert windowed.called == (2.0 * limit < W)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 400),
        st.lists(
            st.tuples(
                st.floats(-W, 2 * W),
                st.sampled_from([-W, 0.0, W]),
                st.sampled_from([-1, 1]),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_windows_hold_pairs_a_rounding_step_from_the_limit(self, limit, draws):
        # row i of b lies the limit from row i of a, either way, possibly a
        # width off, to within a few rounding steps; the reductions of the
        # columns mod W round, and the windows' padding must cover that
        limit = float(limit)
        a, b = [], []
        for column, shift, side, steps in draws:
            other = column + side * limit + shift
            for _ in range(abs(steps)):
                other = math.nextafter(other, math.copysign(math.inf, steps))
            a.append((column, 5.0))
            b.append((other, 5.0))
        a, b = np.array(a), np.array(b)
        dense = gated(_wrap_distances(a, b, W, limit), limit)
        assert _windowed_distances(a, b, W, limit, _FORBIDDEN).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("far", [3.0 * W + 1.0, -2.0 * W - 1.0, 1e9])
    def test_a_column_far_outside_takes_the_dense_form(self, far):
        rng = np.random.default_rng(5)
        a = np.stack([rng.uniform(0.0, W, 120), rng.uniform(0.0, 960.0, 120)], axis=1)
        b = a[::-1] + rng.normal(0.0, 20.0, a.shape)
        b[7, 0] = far
        dense = gated(_wrap_distances(a, b, W, 150.0), 150.0)
        with mock.patch.object(
            panotrack.tracker, "_windowed_distances", wraps=_windowed_distances
        ) as windowed:
            got = _gated_distances(a, b, W, 150.0, _FORBIDDEN)
        assert not windowed.called
        assert got.tobytes() == dense.tobytes()


# columns anywhere in [0, W], and near either side of the seam; rows
# anywhere in the image; integer or float, as a detections file holds them
pixel_point = st.tuples(
    st.one_of(
        st.integers(0, W), st.floats(0, W), st.floats(W - 30, W), st.floats(0, 30)
    ),
    st.one_of(st.integers(0, 960), st.floats(0, 960)),
)
partial_skeleton = (
    st.fixed_dictionaries(
        {},
        optional={
            name: pixel_point for name in ("neck", "left_ankle", "right_ankle", "left_hip")
        },
    )
    .filter(bool)
)


class TestDetectionPixels:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(partial_skeleton, max_size=6))
    # ankles either side of the seam, midpoint on column 0
    @example([{"neck": (2, 300), "left_ankle": (1915, 700), "right_ankle": (5, 702)}])
    def test_rows_equal_the_scalar_joints(self, dets):
        pix = detection_pixels(dets, W)
        assert pix.shape == (len(dets), 4)
        for row, det in zip(pix, dets):
            # each row is the detection's scalar ``pixel_row``, to the bit
            scalar = detect.pixel_row(det, W)
            assert [v.hex() for v in row.tolist()] == [float(v).hex() for v in scalar]
            neck = det.get("neck")
            if neck is None:
                assert np.isnan(row[2:]).all()
            else:
                assert row[2:].tolist() == [float(neck[0]), float(neck[1])]


def assert_matches_brute_force(tracks, dets, cam, gate):
    """associate against exhaustive search over a cost matrix built with
    the scalar projection and scalar wrap distance; neckless detections
    cost infinity."""
    n, m = len(tracks), len(dets)
    res = associate(track_necks(tracks, cam), necks(dets, cam), cam.image_width, gate)
    cost = np.full((n, m), math.inf)
    for i, tr in enumerate(tracks):
        pred = world_to_image(tr.world_position, cam)
        for j, det in enumerate(dets):
            if "neck" in det:
                cost[i, j] = wrap_distance(pred, det["neck"], cam.image_width)
    assert all(cost[i, j] <= gate for i, j in pairs(res))
    best = brute_force_assignment(cost, gate)
    assert len(pairs(res)) == best[0]
    assert sum(cost[i, j] for i, j in pairs(res)) == pytest.approx(best[1], abs=1e-9)
    assert res.unmatched_tracks == sorted(set(range(n)) - {i for i, _ in pairs(res)})
    assert res.unmatched_dets == sorted(set(range(m)) - {j for _, j in pairs(res)})


def copy_table(table):
    """Copies of a step's table's means and covariances, then of its
    ids, statuses and target flags."""
    return [
        table.means.copy(), table.covs.copy(),
        list(table.ids), list(table.statuses), list(table.is_target),
    ]


def assert_table_is(table, frozen):
    """The table holds, to the bit, what ``copy_table`` copied."""
    means, covs, *lists = frozen
    assert table.means.tobytes() == means.tobytes() and table.covs.tobytes() == covs.tobytes()
    assert [table.ids, table.statuses, table.is_target] == lists


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
            det = {
                name: (x + rng.normal(0, noise_sigma), y + rng.normal(0, noise_sigma))
                for name, (x, y) in det.items()
            }
        history.append(tracker.step(detection_pixels([det], cam.image_width), 1.0 / fps))
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
        assert history[0].statuses[0] == "tentative"
        assert not history[0].is_target[0]
        confirmed_frame = next(
            i for i, table in enumerate(history) if table.statuses[0] == "confirmed"
        )
        assert confirmed_frame == 2  # third consecutive hit
        assert history[confirmed_frame].is_target[0]

    def test_steady_state_step_takes_no_rows(self, cam, monkeypatch):
        """With every track predicted and matched in order, the step hands
        its own arrays and the whole stage to update and ends on copies:
        no gather, scatter or compaction. A missed track brings the
        gather back."""
        tracker = PanoTracker(cam, TrackerConfig())
        spots = [(2.0, 0.0), (0.0, 3.0)]

        def pix(k, seen=spots):
            dets = [agent_detection(x + 0.01 * k, y, cam) for x, y in seen]
            return detection_pixels(dets, cam.image_width)

        for k in range(3):
            tracker.step(pix(k), 1 / 30)
        assert len(tracker.tracks) == 2
        real_stage, real_update = panotrack.tracker.innovation_stage, panotrack.tracker.update
        seen, gathers = {}, []

        def stage(means, factors, *args):
            seen["stage_args"] = (means is tracker.means, factors is tracker.factors)
            seen["stage"] = real_stage(means, factors, *args)
            return seen["stage"]

        def counted_update(means, covs, factors, z_obs, stage, *args):
            own = (means is tracker.means, covs is tracker.covs, factors is tracker.factors)
            seen["update_args"] = (*own, stage is seen["stage"])
            return real_update(means, covs, factors, z_obs, stage, *args)

        def counted(real, name):
            def gather(*args):
                gathers.append(name)
                return real(*args)
            return gather

        monkeypatch.setattr(panotrack.tracker, "innovation_stage", stage)
        monkeypatch.setattr(panotrack.tracker, "update", counted_update)
        Innovation = panotrack.tracker.Innovation
        monkeypatch.setattr(Innovation, "take", counted(Innovation.take, "Innovation.take"))
        monkeypatch.setattr(PanoTracker, "_rows", counted(PanoTracker._rows, "PanoTracker._rows"))
        table = tracker.step(pix(3), 1 / 30)
        assert seen["stage_args"] == (True, True)
        assert seen["update_args"] == (True, True, True, True)
        assert gathers == []
        assert not np.shares_memory(table.means, tracker.means)
        assert not np.shares_memory(table.covs, tracker.covs)

        tracker.step(pix(4, spots[:1]), 1 / 30)
        assert gathers == ["PanoTracker._rows", "Innovation.take"]

    def test_all_lost_after_k_empty_frames(self, cam):
        cfg = TrackerConfig()
        tracker = PanoTracker(cam, cfg)
        tracker.step(detection_pixels([agent_detection(2.0, 0.0, cam)], cam.image_width), 1 / 30)
        for _ in range(cfg.lose_after_misses):
            last = tracker.step(detection_pixels([], cam.image_width), 1 / 30)
        assert last.statuses == ["lost"]
        assert tracker.tracks == []

    def test_stationary_convergence(self, cam):
        history = run_walker(cam, [(2.0, 1.0)] * 20, TrackerConfig())
        final = history[-1].means[0]
        assert math.hypot(final[0] - 2.0, final[1] - 1.0) < 1e-3

    def test_track_ids_unique_and_not_reused(self, cam):
        cfg = TrackerConfig(lose_after_misses=2)
        tracker = PanoTracker(cam, cfg)
        seen = []
        for i in range(30):
            dets = [agent_detection(2.0, 0.0, cam)] if (i // 5) % 2 == 0 else []
            seen += tracker.step(detection_pixels(dets, cam.image_width), 1 / 30).ids
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
            tracker.step(detection_pixels([det], cam.image_width), 1 / 30)
        assert len(tracker.tracks) == 1
        # a near-identical duplicate (fusion miss) must not create a track
        dup = {n: (x + 2.0, y + 1.0) for n, (x, y) in det.items()}
        tracker.step(detection_pixels([det, dup], cam.image_width), 1 / 30)
        assert len(tracker.tracks) == 1

    def test_distant_detection_still_spawns(self, cam):
        tracker = PanoTracker(cam, TrackerConfig())
        det = agent_detection(2.0, 0.0, cam)
        for _ in range(5):
            tracker.step(detection_pixels([det], cam.image_width), 1 / 30)
        other = agent_detection(-3.0, 1.0, cam)
        tracker.step(detection_pixels([det, other], cam.image_width), 1 / 30)
        assert len(tracker.tracks) == 2

    def test_seam_duplicate_suppressed_and_distant_one_spawns(self, cam):
        det = agent_detection(*world_at_column(1918.0, 2.0, cam), cam)
        tracker = PanoTracker(cam, TrackerConfig())
        for _ in range(5):
            tracker.step(detection_pixels([det], cam.image_width), 1 / 30)
        assert len(tracker.tracks) == 1
        assert track_pixels(tracker.means[0].tolist(), cam)[1].x == pytest.approx(
            1918.0, abs=0.5
        )

        def shifted(dx):
            return {n: ((x + dx) % cam.image_width, y) for n, (x, y) in det.items()}

        # a residual duplicate across the seam, at column 2, must not spawn
        dup = shifted(4.0)
        assert dup["neck"][0] == pytest.approx(2.0, abs=0.5)
        tracker.step(detection_pixels([det, dup], cam.image_width), 1 / 30)
        assert len(tracker.tracks) == 1
        # 40 px away is beyond the 30 px suppression radius
        tracker.step(detection_pixels([det, shifted(40.0)], cam.image_width), 1 / 30)
        assert len(tracker.tracks) == 2

    @pytest.mark.parametrize("ankle_row", [480.0, 400.0])
    def test_ankles_at_or_above_horizon_spawn_nothing(self, cam, ankle_row):
        # row 480 is the horizon of the default camera
        det = {
            "neck": (960.0, 300.0),
            "left_ankle": (955.0, ankle_row),
            "right_ankle": (965.0, ankle_row),
        }
        tracker = PanoTracker(cam, TrackerConfig())
        assert tracker.step(detection_pixels([det], cam.image_width), 1 / 30).ids == []
        assert tracker.tracks == []

    @pytest.mark.parametrize(
        "missing", [("neck",), ("left_ankle", "right_ankle")], ids=["no_neck", "no_ankle"]
    )
    def test_unmatched_detection_without_neck_or_ankle_spawns_nothing(self, cam, missing):
        tracker = PanoTracker(cam, TrackerConfig())
        other = agent_detection(-2.0, 1.0, cam)
        for _ in range(3):
            tracker.step(detection_pixels([other], cam.image_width), 1 / 30)
        full = agent_detection(2.0, 0.0, cam)
        part = {n: p for n, p in full.items() if n not in missing}
        out = tracker.step(detection_pixels([other, part], cam.image_width), 1 / 30)
        assert out.ids == [1]
        assert len(tracker.tracks) == 1

    def test_neck_only_keeps_track_confirmed(self, cam):
        cam_w = cam.image_width
        cfg = TrackerConfig()
        tracker = PanoTracker(cam, cfg)
        full = agent_detection(2.0, 0.0, cam)
        for _ in range(4):
            tracker.step(detection_pixels([full], cam.image_width), 1 / 30)
        neckonly = {"neck": full["neck"]}
        for _ in range(10):
            out = tracker.step(detection_pixels([neckonly], cam.image_width), 1 / 30)
        assert out.statuses == ["confirmed"]
        assert tracker.tracks[0].consecutive_misses == 0

    def test_one_stage_and_one_update_call_per_frame(self, cam, monkeypatch):
        people = [(2.0, 0.0), (-2.0, 1.0), (0.5, 3.0), (1.0, -3.0)]
        tracker = PanoTracker(cam, TrackerConfig())
        for _ in range(3):
            dets = [agent_detection(x, y, cam) for x, y in people]
            tracker.step(detection_pixels(dets, cam.image_width), 1 / 30)
        stages, calls = [], []
        real_stage, real_update = panotrack.tracker.innovation_stage, panotrack.tracker.update

        def counting_stage(means, *args):
            stages.append(len(means))
            return real_stage(means, *args)

        def counting_update(means, covs, factors, z_obs, *args):
            calls.append(np.isnan(z_obs[:, 0]).tolist())
            return real_update(means, covs, factors, z_obs, *args)

        monkeypatch.setattr(panotrack.tracker, "innovation_stage", counting_stage)
        monkeypatch.setattr(panotrack.tracker, "update", counting_update)
        dets = [agent_detection(x, y, cam) for x, y in people]
        # the last two people show only their necks
        dets[2:] = [{"neck": d["neck"]} for d in dets[2:]]
        out = tracker.step(detection_pixels(dets, cam.image_width), 1 / 30)
        assert stages == [4]
        assert calls == [[False, False, True, True]]  # neck-only rows have NaN ankles
        assert out.ids == [1, 2, 3, 4]
        assert [t.hits for t in tracker.tracks] == [4, 4, 4, 4]

    def test_snapshots_are_isolated_from_the_live_tracks(self, cam):
        """The table a step returns shares nothing the tracker writes:
        writing to it leaves the tracker as it was, and later steps leave
        it as it was."""
        tracker = PanoTracker(cam, TrackerConfig())
        for _ in range(2):
            pix = detection_pixels([agent_detection(2.0, 0.0, cam)], cam.image_width)
            table = tracker.step(pix, 1 / 30)
        live = tracker.tracks[0]
        kept = (tracker.means[0].copy(), tracker.covs[0].copy(), live.status, live.is_target)

        table.means[0, 0] += 5.0
        table.covs[0, 0, 0] = 99.0
        table.statuses[0], table.is_target[0] = "lost", True
        assert np.array_equal(tracker.means[0], kept[0])
        assert np.array_equal(tracker.covs[0], kept[1])
        assert (live.status, live.is_target) == kept[2:]

        pix = detection_pixels([agent_detection(2.0, 0.0, cam)], cam.image_width)
        stored = tracker.step(pix, 1 / 30)  # the track confirms and becomes the target
        frozen = copy_table(stored)
        assert frozen[2:] == [[1], ["confirmed"], [True]]
        tracker.step(detection_pixels([agent_detection(2.1, 0.0, cam)], cam.image_width), 1 / 30)
        assert not np.array_equal(tracker.means[0], frozen[0][0])  # the live track moved on
        assert_table_is(stored, frozen)

    def test_seam_crossing_keeps_single_id(self, cam):
        history = run_walker(
            cam,
            seam_walker_positions(30.0),
            TrackerConfig(wrap_correction=True),
            noise_sigma=1.0,
            seed=5,
        )
        target_ids = {i for table in history for i, on in zip(table.ids, table.is_target) if on}
        assert len(target_ids) == 1

    def test_seam_crossing_without_correction_fragments(self, cam):
        history = run_walker(
            cam,
            seam_walker_positions(30.0),
            TrackerConfig(wrap_correction=False),
            noise_sigma=1.0,
            seed=5,
        )
        target_ids = {i for table in history for i, on in zip(table.ids, table.is_target) if on}
        assert len(target_ids) >= 2


@st.composite
def crowd_lifecycle(draw):
    """(spots, frames, diverge_from): up to 6 people standing at a
    (column, range) each; per frame, whether each one is seen whole,
    by the neck alone or not at all, so tracks spawn, miss, are lost
    and spawn anew; and the frame from which the first update batch of
    two or more tracks is made to diverge in its first row."""
    n = draw(st.integers(1, 6))
    spots = [
        (320.0 * k + draw(st.floats(0, 280)), draw(st.floats(1.5, 5.0))) for k in range(n)
    ]
    seen = st.lists(st.sampled_from(["whole", "neck", "none"]), min_size=n, max_size=n)
    frames = draw(st.lists(seen, min_size=1, max_size=12))
    return spots, frames, draw(st.integers(0, len(frames) - 1))


class TestRowAlignment:
    """The filter arrays stay aligned with the tracks through spawns,
    misses, losses and a divergence inside an update batch, and the
    tables a step returns never change afterwards."""

    @settings(max_examples=150, deadline=None)
    @given(crowd_lifecycle())
    @example(([(100.0, 2.0), (500.0, 3.0), (900.0, 2.5)], [["whole"] * 3] * 4, 2))
    # a loss by misses, then a divergence and a spawn in one later step
    @example((
        [(100.0, 2.0), (500.0, 3.0), (900.0, 2.5)],
        [["whole"] * 3, ["whole", "neck", "whole"], ["whole", "whole", "none"],
         ["whole", "whole", "none"], ["whole"] * 3],
        4,
    ))
    def test_arrays_follow_the_tracks(self, case):
        spots, frames, diverge_from = case
        cam = CameraModel()
        tracker = PanoTracker(cam, TrackerConfig(confirm_hits=2, lose_after_misses=2))
        real_update = panotrack.tracker.update
        forced = []  # (first mean, first covariance, kept, updated) of the forced batch

        def diverging_update(means, covs, factors, z_obs, *args):
            if not forced and frame >= diverge_from and len(means) >= 2:
                z_obs = z_obs.copy()
                z_obs[0] = np.nan  # a non-finite posterior for the first row alone
                kept, accepted, updated = real_update(means, covs, factors, z_obs, *args)
                assert accepted.all() and updated.tolist() == [False] + [True] * (len(means) - 1)
                forced.append((means[0].copy(), covs[0].copy(), kept, updated))
                return kept, accepted, updated
            return real_update(means, covs, factors, z_obs, *args)

        history = []  # every table returned, with copies of its values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(panotrack.tracker, "update", diverging_update)
            for frame, seen in enumerate(frames):
                dets = []
                for (col, rho), how in zip(spots, seen):
                    det = agent_detection(*world_at_column(col + 0.5 * frame, rho, cam), cam)
                    if how == "neck":
                        det = {"neck": det["neck"]}
                    if how != "none":
                        dets.append(det)
                n_forced = len(forced)
                table = tracker.step(detection_pixels(dets, cam.image_width), 1 / 30)

                n = len(tracker.tracks)
                assert tracker.means.shape == (n, 5)
                assert tracker.covs.shape == tracker.factors.shape == (n, 5, 5)
                for root, cov in zip(tracker.factors, tracker.covs):
                    assert np.allclose(root @ root.T, cov, rtol=1e-9, atol=1e-12)
                rows = len(table.ids)
                assert len(table.statuses) == len(table.is_target) == rows
                assert table.means.shape == (rows, 5) and table.covs.shape == (rows, 5, 5)
                live = [k for k, status in enumerate(table.statuses) if status != "lost"]
                assert [table.ids[k] for k in live] == [t.id for t in tracker.tracks]
                assert [table.statuses[k] for k in live] == [t.status for t in tracker.tracks]
                assert [table.is_target[k] for k in live] == [t.is_target for t in tracker.tracks]
                assert table.ids == sorted(table.ids)
                assert np.array_equal(table.means[live], tracker.means)

                if len(forced) > n_forced:
                    mean0, cov0, (means, covs, _), updated = forced[-1]
                    diverged = [k for k in range(rows) if np.array_equal(table.means[k], mean0)]
                    assert len(diverged) == 1 and table.statuses[diverged[0]] == "lost"
                    assert np.array_equal(table.covs[diverged[0]], cov0)
                    for k in np.flatnonzero(updated):
                        assert any(
                            np.array_equal(m, means[k]) and np.array_equal(c, covs[k])
                            for m, c in zip(table.means, table.covs)
                        )

                history.append((table, copy_table(table)))
                for old, frozen in history:
                    assert_table_is(old, frozen)
