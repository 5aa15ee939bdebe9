"""Wrap-aware multi-person tracking with an unscented Kalman filter.

Each track carries a 5-dimensional world state (position x, y in
meters, velocity vx, vy in m/s, and the person's neck height h_n) with
a full covariance, propagated by a constant-velocity model and updated
against pixel measurements of the ankle midpoint and neck (or the neck
alone when the ankles are occluded).

The panorama's horizontal periodicity enters the filter in the
measurement space only. Near the seam, the sigma points' image
projections fall on both sides of the panorama; averaging the raw
columns would place the predicted measurement near the middle of the
image and wreck the estimate. Two corrections keep the update sound:

* predicted-measurement sigma columns are unwrapped before the moments
  are computed (points on the low side shift up by one image width
  whenever the raw column spread exceeds half the width), and
* the innovation's column components use the signed cyclic difference.

Both are controlled by the ``wrap_correction`` flag so the effect is
testable; association always measures image distance the short way
around the seam.

Association is global nearest neighbour on the neck column/row: the
optimal one-to-one assignment (Hungarian) that maximizes the number of
pairs within the pixel gate and, among those, minimizes the total
wrap-aware distance. Each frame builds one cost matrix: the active
tracks' necks are projected in a single vectorized call, and the
distances to all detection necks are formed by broadcasting, with the
column difference taken the short way around the seam. A detection
without a neck enters as a NaN row, which never passes the gate. Spawn
suppression measures unmatched detections against the live tracks'
necks the same way.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detect import Detection
from .exceptions import ConfigError, FilterDivergenceError, GeometryError
from .geometry import (
    CameraModel,
    ImagePoint,
    WorldPoint,
    localize,
    signed_wrap_diff,
    world_to_image,
)

STATE_DIM = 5
H_N_RANGE = (0.5, 2.5)

_FORBIDDEN = 1e12  # assignment cost for gated-out pairs


@dataclass(frozen=True)
class UkfParams:
    """Scaled sigma-point parameters and noise levels.

    Standard scaled construction with a small spread (alpha = 0.1)
    around the mean, velocity-dominant process noise suited to walking
    people, and a few-pixel measurement noise. See TrackerConfig for
    the tracking constants.
    """

    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    # per-second state variances: x, y, vx, vy, h_n
    process_noise: tuple[float, ...] = (0.05, 0.05, 0.5, 0.5, 0.01)
    measurement_noise: float = 4.0  # pixel variance per measured coordinate

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if len(self.process_noise) != STATE_DIM:
            raise ConfigError(f"process noise needs {STATE_DIM} entries")
        if any(q < 0 for q in self.process_noise) or self.measurement_noise <= 0:
            raise ConfigError("noise variances must be positive")
        lam = self.alpha**2 * (STATE_DIM + self.kappa) - STATE_DIM
        if STATE_DIM + lam <= 0:
            raise ConfigError("alpha/kappa give a non-positive sigma spread")

    def weights(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(mean weights, covariance weights, spread scale sqrt(n+lambda));
        the mean weights sum to 1. Cached; callers must not mutate."""
        return self._weights

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray, float]:
        n = STATE_DIM
        lam = self.alpha**2 * (n + self.kappa) - n
        wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
        wc = wm.copy()
        wm[0] = lam / (n + lam)
        wc[0] = wm[0] + 1.0 - self.alpha**2 + self.beta
        return wm, wc, math.sqrt(n + lam)

    @cached_property
    def _process_noise_diag(self) -> np.ndarray:
        return np.diag(self.process_noise)

    @cached_property
    def _measurement_cov(self) -> dict[int, np.ndarray]:
        return {
            dim: self.measurement_noise * np.eye(dim) for dim in (2, 4)
        }


@dataclass(frozen=True)
class TrackerConfig:
    ukf: UkfParams = UkfParams()
    gate_px: float = 150.0  # association gate, image pixels
    confirm_hits: int = 3  # consecutive hits before a track confirms
    lose_after_misses: int = 15  # consecutive misses before a track is lost
    wrap_correction: bool = True  # seam handling in the UKF update
    mahalanobis_gate: Optional[float] = None  # squared bound; None = no gating
    initial_variance: tuple[float, ...] = (0.25, 0.25, 1.0, 1.0, 0.04)
    jitter_floor: float = 1e-9  # smallest repair jitter added to a non-SPD covariance
    # an unmatched detection this close (px) to an active track's
    # prediction is treated as a residual duplicate, not a new person
    spawn_suppression_px: float = 30.0

    def __post_init__(self) -> None:
        if self.gate_px <= 0:
            raise ConfigError("gate must be positive")
        if self.confirm_hits < 1 or self.lose_after_misses < 1:
            raise ConfigError("lifecycle constants must be >= 1")
        if len(self.initial_variance) != STATE_DIM:
            raise ConfigError(f"initial variance needs {STATE_DIM} entries")
        if self.spawn_suppression_px < 0:
            raise ConfigError("spawn suppression radius must be >= 0")
        gate = self.mahalanobis_gate
        if gate is not None and (
            isinstance(gate, bool) or not isinstance(gate, numbers.Real) or not gate >= 0
        ):
            raise ConfigError(f"mahalanobis gate must be null or a number >= 0, got {gate!r}")


class TrackStatus(str, enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"


@dataclass(frozen=True)
class TrackState:
    x: float
    y: float
    vx: float
    vy: float
    h_n: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.vx, self.vy, self.h_n])

    @classmethod
    def from_array(cls, a: np.ndarray) -> "TrackState":
        return cls(*(float(v) for v in a))


@dataclass(frozen=True)
class FullBodyMeasurement:
    ankle_mid: ImagePoint
    neck: ImagePoint

    def vector(self) -> np.ndarray:
        return np.array([self.ankle_mid.x, self.ankle_mid.y, self.neck.x, self.neck.y])

    column_indices = (0, 2)


@dataclass(frozen=True)
class NeckOnlyMeasurement:
    neck: ImagePoint

    def vector(self) -> np.ndarray:
        return np.array([self.neck.x, self.neck.y])

    column_indices = (0,)


Measurement = FullBodyMeasurement | NeckOnlyMeasurement


@dataclass
class Track:
    id: int
    mean: np.ndarray  # (5,)
    covariance: np.ndarray  # (5, 5)
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 1  # consecutive accepted updates (spawn counts as one)
    consecutive_misses: int = 0
    frames_since_update: int = 0
    is_target: bool = False
    age: int = 0
    # Cholesky factor of `covariance`, maintained by predict/update
    cov_factor: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def state(self) -> TrackState:
        return TrackState.from_array(self.mean)

    @property
    def world_position(self) -> WorldPoint:
        return WorldPoint(float(self.mean[0]), float(self.mean[1]), float(self.mean[4]))


def unwrap_columns(xs: np.ndarray, image_width: float) -> np.ndarray:
    """Shift columns that fell on the low side of the seam up by one
    image width, whenever the raw column spread exceeds half the
    width. Valid because any one person's projections span far less
    than half the panorama."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and float(xs.max() - xs.min()) > image_width / 2.0:
        return np.where(xs < image_width / 2.0, xs + image_width, xs)
    return xs


def wrap_correct(
    points: Sequence[ImagePoint], image_width: float
) -> tuple[list[ImagePoint], ImagePoint]:
    """Seam-correct a cloud of image points: returns the unwrapped
    points and their mean with the column reduced into [0, width)."""
    if not points:
        raise ConfigError("wrap_correct needs at least one point")
    xs = unwrap_columns(np.array([p.x for p in points]), image_width)
    ys = np.array([p.y for p in points])
    shifted = [ImagePoint(float(x), float(p.y)) for x, p in zip(xs, points)]
    mean = ImagePoint(float(xs.mean()) % image_width, float(ys.mean()))
    return shifted, mean


def project_to_image(state: TrackState, cam: CameraModel) -> FullBodyMeasurement:
    """Predicted pixel measurement of a track state: the ankle midpoint
    at the camera's ankle-plane height and the neck at h_n."""
    ankle = world_to_image(WorldPoint(state.x, state.y, cam.ankle_height), cam)
    neck = world_to_image(WorldPoint(state.x, state.y, state.h_n), cam)
    return FullBodyMeasurement(ankle_mid=ankle, neck=neck)


def _measurement_matrix(
    states: np.ndarray, cam: CameraModel, neck_only: bool
) -> np.ndarray:
    """Vectorized measurement model over an (m, 5) state array; row i
    is the pixel measurement of state i, columns reduced to [0, W)."""
    x, y, h_n = states[:, 0], states[:, 1], states[:, 4]
    rho = np.hypot(x, y)
    theta = np.degrees(np.arctan2(y, x))
    col = ((180.0 - theta) / cam.deg_per_px_x) % cam.image_width
    row_n = (90.0 - np.degrees(np.arctan2(h_n - cam.mount_height, rho))) / cam.deg_per_px_y
    if neck_only:
        return np.stack([col, row_n], axis=1)
    row_a = (
        90.0
        - np.degrees(np.arctan2(cam.ankle_height - cam.mount_height, rho))
    ) / cam.deg_per_px_y
    return np.stack([col, row_a, col, row_n], axis=1)


def _spd_factor(cov: np.ndarray, jitter_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize and, if needed, repair a covariance with escalating
    diagonal jitter until it admits a Cholesky factor. Returns the
    (possibly jittered) covariance and its factor; raises
    FilterDivergenceError when no reasonable jitter fixes it."""
    cov = 0.5 * (cov + cov.T)
    jitter = 0.0
    for _ in range(8):
        candidate = cov + jitter * np.eye(cov.shape[0]) if jitter else cov
        try:
            return candidate, np.linalg.cholesky(candidate)
        except np.linalg.LinAlgError:
            jitter = jitter_floor if jitter == 0.0 else jitter * 100.0
    raise FilterDivergenceError("covariance is not positive definite")


def _track_factor(track: Track, jitter_floor: float) -> np.ndarray:
    """Cholesky factor of the track covariance, reusing the cached one
    when predict/update already verified it."""
    if track.cov_factor is None:
        track.covariance, track.cov_factor = _spd_factor(track.covariance, jitter_floor)
    return track.cov_factor


def _sigma_points_from_factor(mean: np.ndarray, root: np.ndarray, scale: float) -> np.ndarray:
    """(2n+1, n) scaled sigma points around the mean."""
    offsets = scale * root.T  # rows are scaled covariance-root directions
    return np.vstack([mean, mean + offsets, mean - offsets])


def _sigma_points(mean: np.ndarray, cov: np.ndarray, scale: float, jitter_floor: float) -> np.ndarray:
    _, root = _spd_factor(cov, jitter_floor)
    return _sigma_points_from_factor(mean, root, scale)


def predicted_measurement(
    track: Track,
    cam: CameraModel,
    params: UkfParams,
    neck_only: bool = False,
    wrap_correction: bool = True,
    jitter_floor: float = 1e-9,
) -> np.ndarray:
    """The measurement the filter expects for a track: the weighted mean
    of the sigma-point projections, with columns seam-corrected (when
    enabled) and reduced into [0, width)."""
    wm, _, scale = params.weights()
    pts = _sigma_points(track.mean, track.covariance, scale, jitter_floor)
    z_pts = _measurement_matrix(pts, cam, neck_only)
    cols = (0,) if neck_only else (0, 2)
    if wrap_correction:
        for col in cols:
            z_pts[:, col] = unwrap_columns(z_pts[:, col], cam.image_width)
    z = wm @ z_pts
    for col in cols:
        z[col] = z[col] % cam.image_width
    return z


def _clamp_height(mean: np.ndarray) -> None:
    mean[4] = min(max(mean[4], H_N_RANGE[0]), H_N_RANGE[1])


def predict(track: Track, dt: float, params: UkfParams, jitter_floor: float = 1e-9) -> None:
    """Constant-velocity propagation of the track state and covariance
    through sigma points, plus process noise scaled by dt. Raises
    FilterDivergenceError when the covariance cannot be repaired."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    wm, wc, scale = params.weights()
    pts = _sigma_points_from_factor(
        track.mean, _track_factor(track, jitter_floor), scale
    )
    pts[:, 0] += pts[:, 2] * dt
    pts[:, 1] += pts[:, 3] * dt
    mean = wm @ pts
    d = pts - mean
    cov = d.T @ (wc[:, None] * d) + params._process_noise_diag * dt
    track.mean = mean
    _clamp_height(track.mean)
    track.covariance, track.cov_factor = _spd_factor(cov, jitter_floor)


def update(
    track: Track,
    meas: Measurement,
    cam: CameraModel,
    params: UkfParams,
    wrap_correction: bool = True,
    mahalanobis_gate: Optional[float] = None,
    jitter_floor: float = 1e-9,
) -> bool:
    """UKF measurement update; returns False when the innovation fails
    the configured Mahalanobis bound (state left untouched).

    With wrap correction on, predicted-measurement sigma columns are
    unwrapped before the moments are formed and the innovation columns
    use the signed cyclic difference; with it off the raw projections
    and plain differences are used (the behaviour of a tracker unaware
    of the panorama seam).
    """
    neck_only = isinstance(meas, NeckOnlyMeasurement)
    wm, wc, scale = params.weights()
    pts = _sigma_points_from_factor(
        track.mean, _track_factor(track, jitter_floor), scale
    )
    z_pts = _measurement_matrix(pts, cam, neck_only)

    if wrap_correction:
        for col in meas.column_indices:
            z_pts[:, col] = unwrap_columns(z_pts[:, col], cam.image_width)

    z_pred = wm @ z_pts
    dz = z_pts - z_pred
    s_cov = dz.T @ (wc[:, None] * dz) + params._measurement_cov[len(z_pred)]
    t_cov = (pts - track.mean).T @ (wc[:, None] * dz)

    z_obs = meas.vector()
    innovation = z_obs - z_pred
    if wrap_correction:
        for col in meas.column_indices:
            innovation[col] = signed_wrap_diff(z_obs[col], z_pred[col], cam.image_width)

    # one solve yields both the whitened innovation and the Kalman gain
    solved = np.linalg.solve(s_cov, np.column_stack([innovation, t_cov.T]))
    if mahalanobis_gate is not None and float(innovation @ solved[:, 0]) > mahalanobis_gate:
        return False

    gain = solved[:, 1:].T
    track.mean = track.mean + gain @ innovation
    _clamp_height(track.mean)
    cov = track.covariance - gain @ s_cov @ gain.T
    track.covariance, track.cov_factor = _spd_factor(cov, jitter_floor)
    return True


def _batched_predict(
    tracks: list[Track], dt: float, params: UkfParams, jitter_floor: float
) -> list[int]:
    """Vectorized predict over all tracks at once (numerically identical
    math to ``predict``, one set of numpy calls for the whole stack).
    Returns the indices of tracks whose covariance could not be kept
    positive definite."""
    if not tracks:
        return []
    wm, wc, scale = params.weights()
    means = np.stack([t.mean for t in tracks])
    diverged: list[int] = []

    if all(t.cov_factor is not None for t in tracks):
        factors = np.stack([t.cov_factor for t in tracks])
    else:
        factors = np.empty((len(tracks), STATE_DIM, STATE_DIM))
        for i, t in enumerate(tracks):
            try:
                factors[i] = _track_factor(t, jitter_floor)
            except FilterDivergenceError:
                diverged.append(i)
                factors[i] = np.eye(STATE_DIM)  # placeholder, track is dropped

    offsets = scale * factors.transpose(0, 2, 1)
    center = means[:, None, :]
    pts = np.concatenate([center, center + offsets, center - offsets], axis=1)
    pts[:, :, 0] += pts[:, :, 2] * dt
    pts[:, :, 1] += pts[:, :, 3] * dt
    new_means = np.einsum("w,nwd->nd", wm, pts)
    d = pts - new_means[:, None, :]
    new_covs = np.einsum("w,nwi,nwj->nij", wc, d, d) + params._process_noise_diag * dt
    new_covs = 0.5 * (new_covs + new_covs.transpose(0, 2, 1))

    try:
        roots = np.linalg.cholesky(new_covs)
    except np.linalg.LinAlgError:
        roots = None
    for i, t in enumerate(tracks):
        if i in diverged:
            continue
        t.mean = new_means[i]
        _clamp_height(t.mean)
        if roots is not None:
            t.covariance, t.cov_factor = new_covs[i], roots[i]
        else:
            try:
                t.covariance, t.cov_factor = _spd_factor(new_covs[i], jitter_floor)
            except FilterDivergenceError:
                diverged.append(i)
    return diverged


def _batched_update_fullbody(
    tracks: list[Track],
    measurements: list[FullBodyMeasurement],
    cam: CameraModel,
    params: UkfParams,
    wrap_correction: bool,
    mahalanobis_gate: Optional[float],
    jitter_floor: float,
) -> tuple[list[bool], list[int]]:
    """Vectorized full-body update for matched (track, measurement)
    pairs; same math as ``update``. Returns per-pair acceptance flags
    and indices of tracks that diverged while storing the posterior."""
    n = len(tracks)
    if n == 0:
        return [], []
    wm, wc, scale = params.weights()
    w = cam.image_width
    means = np.stack([t.mean for t in tracks])
    factors = np.stack([t.cov_factor for t in tracks])  # maintained by predict
    covs = np.stack([t.covariance for t in tracks])

    offsets = scale * factors.transpose(0, 2, 1)
    center = means[:, None, :]
    pts = np.concatenate([center, center + offsets, center - offsets], axis=1)
    n_sigma = pts.shape[1]
    z_pts = _measurement_matrix(pts.reshape(-1, STATE_DIM), cam, neck_only=False)
    z_pts = z_pts.reshape(n, n_sigma, 4)

    if wrap_correction:
        for col in (0, 2):
            zc = z_pts[:, :, col]
            split = (zc.max(axis=1) - zc.min(axis=1)) > w / 2.0
            z_pts[:, :, col] = np.where(split[:, None] & (zc < w / 2.0), zc + w, zc)

    z_pred = np.einsum("w,nwd->nd", wm, z_pts)
    dz = z_pts - z_pred[:, None, :]
    s_cov = np.einsum("w,nwi,nwj->nij", wc, dz, dz) + params._measurement_cov[4]
    t_cov = np.einsum("w,nwi,nwj->nij", wc, pts - means[:, None, :], dz)

    z_obs = np.stack([m.vector() for m in measurements])
    innovation = z_obs - z_pred
    if wrap_correction:
        for col in (0, 2):
            d = innovation[:, col]
            innovation[:, col] = w / 2.0 - (w / 2.0 - d) % w

    rhs = np.concatenate(
        [innovation[:, :, None], t_cov.transpose(0, 2, 1)], axis=2
    )
    solved = np.linalg.solve(s_cov, rhs)
    maha = np.einsum("ni,ni->n", innovation, solved[:, :, 0])
    accepted = (
        [True] * n
        if mahalanobis_gate is None
        else [bool(v <= mahalanobis_gate) for v in maha]
    )

    gain = solved[:, :, 1:].transpose(0, 2, 1)
    new_means = means + np.einsum("nij,nj->ni", gain, innovation)
    new_covs = covs - gain @ s_cov @ gain.transpose(0, 2, 1)
    new_covs = 0.5 * (new_covs + new_covs.transpose(0, 2, 1))
    try:
        roots = np.linalg.cholesky(new_covs)
    except np.linalg.LinAlgError:
        roots = None

    diverged: list[int] = []
    for i, t in enumerate(tracks):
        if not accepted[i]:
            continue
        t.mean = new_means[i]
        _clamp_height(t.mean)
        if roots is not None:
            t.covariance, t.cov_factor = new_covs[i], roots[i]
        else:
            try:
                t.covariance, t.cov_factor = _spd_factor(new_covs[i], jitter_floor)
            except FilterDivergenceError:
                diverged.append(i)
    return accepted, diverged


@dataclass
class Assignment:
    pairs: list[tuple[int, int]]
    unmatched_tracks: list[int]
    unmatched_dets: list[int]


def _track_necks(tracks: Sequence[Track], cam: CameraModel) -> np.ndarray:
    """(n, 2) predicted neck pixels of the tracks, one vectorized
    projection for all of them."""
    means = np.array([t.mean for t in tracks]).reshape(-1, STATE_DIM)
    return _measurement_matrix(means, cam, neck_only=True)


def _detection_necks(dets: Sequence[Detection]) -> np.ndarray:
    """(m, 2) neck pixels of the detections; NaN rows for detections
    without a neck, so every distance to them is NaN."""
    necks = np.full((len(dets), 2), np.nan)
    for j, det in enumerate(dets):
        neck = det.neck
        if neck is not None:
            necks[j] = neck
    return necks


def _wrap_distances(a: np.ndarray, b: np.ndarray, image_width: float) -> np.ndarray:
    """(len(a), len(b)) distances between two (k, 2) pixel arrays, the
    column component measured the short way around the seam."""
    dx = np.abs(a[:, None, 0] - b[None, :, 0]) % image_width
    dx = np.minimum(dx, image_width - dx)
    return np.hypot(dx, a[:, None, 1] - b[None, :, 1])


def associate(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    cam: CameraModel,
    gate: float,
) -> Assignment:
    """Global nearest neighbour between predicted neck positions and
    detection necks under the wrap-aware image distance.

    Finds the one-to-one assignment that first maximizes the number of
    pairs within the gate and then minimizes their total distance
    (Hungarian method on a matrix where gated-out pairs carry a
    prohibitive cost). Detections without a neck joint are never
    matched. Ties are resolved deterministically by the (track, det)
    ordering of the inputs.
    """
    n, m = len(tracks), len(dets)
    if n == 0 or m == 0:
        return Assignment([], list(range(n)), list(range(m)))

    dist = _wrap_distances(
        _track_necks(tracks, cam), _detection_necks(dets), cam.image_width
    )
    cost = np.where(dist <= gate, dist, _FORBIDDEN)  # NaN (no neck) fails the gate

    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] < _FORBIDDEN]
    matched_t = {i for i, _ in pairs}
    matched_d = {j for _, j in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_tracks=[i for i in range(n) if i not in matched_t],
        unmatched_dets=[j for j in range(m) if j not in matched_d],
    )


def measurement_from_detection(
    det: Detection, image_width: float
) -> Optional[Measurement]:
    """Full-body measurement when neck and at least one ankle are
    present, neck-only when the ankles are occluded, None without a
    neck."""
    neck = det.neck
    if neck is None:
        return None
    ankle = det.ankle_midpoint(image_width)
    if ankle is None:
        return NeckOnlyMeasurement(neck=neck)
    return FullBodyMeasurement(ankle_mid=ankle, neck=neck)


class PanoTracker:
    """Frame-by-frame tracker: predict, associate, update, manage
    track lifecycle and the designated target.

    Tracks confirm after ``confirm_hits`` consecutive hits and are lost
    after ``lose_after_misses`` consecutive misses. Lost tracks are
    reported once with status "lost" and then dropped; ids are never
    reused, so a target that is lost and re-acquired appears under a
    new id. When no target exists, the most prominent confirmed track
    (largest projected body height, ties to the smallest column) is
    promoted. Unmatched detections spawn tentative tracks unless they
    fall within ``spawn_suppression_px`` of an active track's predicted
    position (residual duplicates that slipped through fusion must not
    seed ghost identities that compete with the real track).

    ``step`` calls must be externally serialized; the tracker is a
    single logical state machine.
    """

    def __init__(self, cam: CameraModel, config: TrackerConfig = TrackerConfig()):
        self.cam = cam
        self.config = config
        self.tracks: list[Track] = []
        self._next_id = 1

    def _spawn(self, det: Detection) -> Optional[Track]:
        neck = det.neck
        ankle = det.ankle_midpoint(self.cam.image_width)
        if neck is None or ankle is None:
            return None
        try:
            w = localize(ankle, neck, self.cam)
        except GeometryError:
            return None
        mean = np.array([w.x, w.y, 0.0, 0.0, w.z])
        _clamp_height(mean)
        track = Track(
            id=self._next_id,
            mean=mean,
            covariance=np.diag(self.config.initial_variance).astype(float),
        )
        self._next_id += 1
        return track

    def _prominence(self, track: Track) -> tuple[float, float]:
        meas = project_to_image(track.state, self.cam)
        height_px = abs(meas.ankle_mid.y - meas.neck.y)
        return (-height_px, meas.neck.x)

    def _maintain_target(self) -> None:
        if any(t.is_target and t.status != TrackStatus.LOST for t in self.tracks):
            return
        candidates = [t for t in self.tracks if t.status == TrackStatus.CONFIRMED]
        if not candidates:
            return
        chosen = min(candidates, key=self._prominence)
        chosen.is_target = True

    def _register_hit(self, track: Track) -> None:
        track.hits += 1
        track.consecutive_misses = 0
        track.frames_since_update = 0
        if (
            track.status == TrackStatus.TENTATIVE
            and track.hits >= self.config.confirm_hits
        ):
            track.status = TrackStatus.CONFIRMED

    def step(self, dets: Sequence[Detection], dt: float) -> list[Track]:
        """Advance one frame; returns the current tracks (including any
        that were lost this frame) sorted by id."""
        cfg = self.config

        for i in _batched_predict(self.tracks, dt, cfg.ukf, cfg.jitter_floor):
            self.tracks[i].status = TrackStatus.LOST
        for track in self.tracks:
            track.age += 1

        active = [t for t in self.tracks if t.status != TrackStatus.LOST]
        active.sort(key=lambda t: t.id)
        assignment = associate(active, dets, self.cam, cfg.gate_px)

        missed = set(assignment.unmatched_tracks)
        full_tis: list[int] = []
        full_meas: list[FullBodyMeasurement] = []
        for ti, di in assignment.pairs:
            # matched detections always carry a neck (association anchors on it)
            meas = measurement_from_detection(dets[di], self.cam.image_width)
            if isinstance(meas, FullBodyMeasurement):
                full_tis.append(ti)
                full_meas.append(meas)
                continue
            track = active[ti]
            try:
                accepted = update(
                    track,
                    meas,
                    self.cam,
                    cfg.ukf,
                    wrap_correction=cfg.wrap_correction,
                    mahalanobis_gate=cfg.mahalanobis_gate,
                    jitter_floor=cfg.jitter_floor,
                )
            except FilterDivergenceError:
                track.status = TrackStatus.LOST
                continue
            if accepted:
                self._register_hit(track)
            else:
                missed.add(ti)

        accepted_flags, diverged = _batched_update_fullbody(
            [active[ti] for ti in full_tis],
            full_meas,
            self.cam,
            cfg.ukf,
            cfg.wrap_correction,
            cfg.mahalanobis_gate,
            cfg.jitter_floor,
        )
        for k, ti in enumerate(full_tis):
            if k in diverged:
                active[ti].status = TrackStatus.LOST
            elif accepted_flags[k]:
                self._register_hit(active[ti])
            else:
                missed.add(ti)

        for ti in missed:
            track = active[ti]
            track.hits = 0
            track.consecutive_misses += 1
            track.frames_since_update += 1
            if track.consecutive_misses >= cfg.lose_after_misses:
                track.status = TrackStatus.LOST

        unmatched = assignment.unmatched_dets
        if unmatched:
            live = [t for t in self.tracks if t.status != TrackStatus.LOST]
            dist = _wrap_distances(
                _detection_necks([dets[di] for di in unmatched]),
                _track_necks(live, self.cam),
                self.cam.image_width,
            )
            # a detection near a live track's neck is a residual duplicate
            # of someone already tracked; NaN (no neck) never suppresses
            suppressed = (dist < cfg.spawn_suppression_px).any(axis=1)
            for di, skip in zip(unmatched, suppressed):
                if skip:
                    continue
                spawned = self._spawn(dets[di])
                if spawned is not None:
                    self.tracks.append(spawned)

        self._maintain_target()

        # emit value snapshots so stored frames are immune to later mutation
        snapshot = [
            dataclasses.replace(t, mean=t.mean.copy(), covariance=t.covariance.copy())
            for t in sorted(self.tracks, key=lambda t: t.id)
        ]
        self.tracks = [t for t in self.tracks if t.status != TrackStatus.LOST]
        return snapshot
