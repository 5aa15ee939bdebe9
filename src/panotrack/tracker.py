"""Wrap-aware multi-person tracking with an unscented Kalman filter.

Each track carries a 5-dimensional world state (position x, y in
meters, velocity vx, vy in m/s, and the person's neck height h_n) with
a full covariance, propagated by a constant-velocity model and updated
against pixel measurements of the ankle midpoint and neck (or the neck
alone when the ankles are occluded).

The filter has one batched core: ``predict`` propagates a list of
tracks and ``update`` corrects a list of tracks against an (n, d)
measurement array, in one set of numpy calls each. A measurement is a
sequence of (column, row) pixel pairs: d = 4 for the ankle midpoint
and neck, d = 2 for the neck alone. Its seam columns are therefore the
even entries, (0, 2) for d = 4 and (0,) for d = 2. ``PanoTracker.step``
groups its matches by d, so it calls ``update`` at most twice a frame.
Every track keeps the Cholesky factor of its covariance, set at spawn
and stored with each posterior; a posterior that is non-finite, or
whose covariance no jitter repairs, is not stored and the track is
reported as diverged.

The panorama's horizontal periodicity enters the filter in the
measurement space only. Near the seam, the sigma points' image
projections fall on both sides of the panorama; averaging the raw
columns would place the predicted measurement near the middle of the
image and wreck the estimate. Two corrections keep the update sound:

* predicted-measurement sigma columns are unwrapped before the moments
  are computed (points on the low side shift up by one image width
  whenever the raw column spread exceeds half the width), and
* the innovation's column components use the signed cyclic difference.

Both are controlled by the config's ``wrap_correction`` flag so the
effect is testable; association always measures image distance the
short way around the seam.

``PanoTracker.step`` reads each detection's joints once a frame, into
one (m, 4) array of ankle-midpoint and neck pixels with NaN where a
joint is absent. Association, the measurements, spawn suppression and
spawning all read that array.

Association is global nearest neighbour on the neck column/row: the
optimal one-to-one assignment (Hungarian) that maximizes the number of
pairs within the pixel gate and, among those, minimizes the total
wrap-aware distance. Each frame builds one cost matrix: the active
tracks' necks are projected in a single vectorized call, and the
distances to the frame's neck columns are formed by broadcasting, with
the column difference taken the short way around the seam. Distances
are evaluated only inside the gate: a pair whose column or row gap
alone exceeds it reads +inf, as does a detection without a neck (a NaN
row), so neither can pass. Spawn suppression measures unmatched
detections against the live tracks' necks the same way, with its own
radius as the limit.
"""

from __future__ import annotations

import enum
import math
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
    check_flag,
    check_number,
    localize,
    signed_wrap_diff,
    world_to_image,
)

STATE_DIM = 5
H_N_RANGE = (0.5, 2.5)

_FORBIDDEN = 1e12  # assignment cost for gated-out pairs
# largest initial_variance entry: a standard deviation of 1 km (or
# 1 km/s). From about 1e100 the sigma points swamp the mean in floating
# point and the first projection fails.
MAX_INITIAL_VARIANCE = 1e6


@dataclass(frozen=True)
class TrackerConfig:
    """The filter's sigma-point parameters and noise levels, and the
    tracking constants.

    Standard scaled construction with a small spread (alpha = 0.1)
    around the mean, velocity-dominant process noise suited to walking
    people, and a few-pixel measurement noise.
    """

    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    # per-second state variances: x, y, vx, vy, h_n
    process_noise: tuple[float, ...] = (0.05, 0.05, 0.5, 0.5, 0.01)
    measurement_noise: float = 4.0  # pixel variance per measured coordinate
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
        check_number("alpha", self.alpha, 0.0, strict=True)
        check_number("beta", self.beta)
        check_number("kappa", self.kappa)
        check_number("process_noise", self.process_noise, 0.0, length=STATE_DIM)
        check_number("measurement_noise", self.measurement_noise, 0.0, strict=True)
        lam = self.alpha**2 * (STATE_DIM + self.kappa) - STATE_DIM
        if STATE_DIM + lam <= 0:
            raise ConfigError("alpha/kappa give a non-positive sigma spread")
        check_number("gate_px", self.gate_px, 0.0, strict=True)
        check_number("confirm_hits", self.confirm_hits, 1, integer=True)
        check_number("lose_after_misses", self.lose_after_misses, 1, integer=True)
        check_number(
            "initial_variance", self.initial_variance, 0.0, MAX_INITIAL_VARIANCE,
            strict=True, length=STATE_DIM,
        )
        check_number("jitter_floor", self.jitter_floor, 0.0, strict=True)
        check_number("spawn_suppression_px", self.spawn_suppression_px, 0.0)
        if self.mahalanobis_gate is not None:
            check_number("mahalanobis_gate", self.mahalanobis_gate, 0.0)
        check_flag("wrap_correction", self.wrap_correction)

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

    @classmethod
    def from_array(cls, a: np.ndarray) -> "TrackState":
        return cls(*(float(v) for v in a))


@dataclass
class Track:
    id: int
    mean: np.ndarray  # (5,)
    covariance: np.ndarray  # (5, 5)
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 1  # consecutive accepted updates (spawn counts as one)
    consecutive_misses: int = 0
    is_target: bool = False
    # Cholesky factor of `covariance`: set at spawn, stored with every
    # posterior, and required by predict and update
    cov_factor: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def state(self) -> TrackState:
        return TrackState.from_array(self.mean)

    @property
    def world_position(self) -> WorldPoint:
        return WorldPoint(float(self.mean[0]), float(self.mean[1]), float(self.mean[4]))


def _snapshot(track: Track) -> Track:
    """A copy of the track with its own mean and covariance, so that no
    in-place write on one side reaches the other. The Cholesky factor
    is shared: the tracker only ever replaces it."""
    copy = object.__new__(Track)
    copy.__dict__.update(
        track.__dict__, mean=track.mean.copy(), covariance=track.covariance.copy()
    )
    return copy


def unwrap_columns(xs: np.ndarray, image_width: float) -> np.ndarray:
    """Along the last axis, shift columns that fell on the low side of
    the seam up by one image width, wherever the raw column spread
    exceeds half the width. Valid because any one person's projections
    span far less than half the panorama."""
    xs = np.asarray(xs, dtype=float)
    half = image_width / 2.0
    split = (xs.max(axis=-1) - xs.min(axis=-1)) > half
    return np.where(split[..., None] & (xs < half), xs + image_width, xs)


def project_to_image(state: TrackState, cam: CameraModel) -> tuple[ImagePoint, ImagePoint]:
    """(ankle midpoint, neck) pixels of a track state: the ankle
    midpoint at the camera's ankle-plane height and the neck at h_n."""
    ankle = world_to_image(WorldPoint(state.x, state.y, cam.ankle_height), cam)
    neck = world_to_image(WorldPoint(state.x, state.y, state.h_n), cam)
    return ankle, neck


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


def _sigma_points(means: np.ndarray, factors: np.ndarray, scale: float) -> np.ndarray:
    """(n, 2k+1, k) scaled sigma points around n means of dimension k,
    from the (n, k, k) Cholesky factors of their covariances."""
    offsets = scale * factors.transpose(0, 2, 1)  # rows: scaled root directions
    center = means[:, None, :]
    return np.concatenate([center, center + offsets, center - offsets], axis=1)


def _store_posterior(
    tracks: Sequence[Track],
    means: np.ndarray,
    covs: np.ndarray,
    store: Sequence[bool],
    jitter_floor: float,
) -> list[int]:
    """Store each posterior flagged in ``store`` on its track, with the
    Cholesky factor of its symmetrized covariance: one batched
    factorization, or a jitter repair per track when any member of the
    stack fails. Returns the indices of tracks that diverged, whose
    posterior is non-finite or cannot be repaired; nothing is stored
    for them. The heights in ``means`` are clamped in place."""
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    finite = (np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))).tolist()
    np.clip(means[:, 4], *H_N_RANGE, out=means[:, 4])  # after the check: it maps inf into range
    try:
        roots = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        roots = None
    diverged: list[int] = []
    for i, t in enumerate(tracks):
        if not store[i]:
            continue
        if not finite[i]:
            diverged.append(i)
            continue
        if roots is not None:
            cov, root = covs[i], roots[i]
        else:
            try:
                cov, root = _spd_factor(covs[i], jitter_floor)
            except FilterDivergenceError:
                diverged.append(i)
                continue
        t.mean, t.covariance, t.cov_factor = means[i], cov, root
    return diverged


def predict(tracks: Sequence[Track], dt: float, cfg: TrackerConfig) -> list[int]:
    """Constant-velocity propagation of every track's state and
    covariance through sigma points, plus process noise scaled by dt.
    Returns the indices of tracks that diverged (left unchanged)."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not tracks:
        return []
    wm, wc, scale = cfg.weights()
    pts = _sigma_points(
        np.stack([t.mean for t in tracks]), np.stack([t.cov_factor for t in tracks]), scale
    )
    pts[:, :, 0] += pts[:, :, 2] * dt
    pts[:, :, 1] += pts[:, :, 3] * dt
    means = np.einsum("w,nwd->nd", wm, pts)
    d = pts - means[:, None, :]
    covs = np.einsum("w,nwi,nwj->nij", wc, d, d) + cfg._process_noise_diag * dt
    return _store_posterior(tracks, means, covs, [True] * len(tracks), cfg.jitter_floor)


def update(
    tracks: Sequence[Track], z_obs: np.ndarray, cam: CameraModel, cfg: TrackerConfig
) -> tuple[list[bool], list[int]]:
    """UKF measurement update of track i against row i of the (n, d)
    measurement array, d = 4 (ankle midpoint, neck) or d = 2 (neck).
    Returns per-track acceptance flags, False where the innovation
    fails the config's Mahalanobis bound (that track is left
    untouched), and the indices of accepted tracks that diverged (also
    left untouched).

    With the config's wrap correction on, predicted-measurement sigma columns are
    unwrapped before the moments are formed and the innovation columns
    use the signed cyclic difference; with it off the raw projections
    and plain differences are used (the behaviour of a tracker unaware
    of the panorama seam).
    """
    n, dim = z_obs.shape
    wm, wc, scale = cfg.weights()
    w = cam.image_width
    means = np.stack([t.mean for t in tracks])
    pts = _sigma_points(means, np.stack([t.cov_factor for t in tracks]), scale)
    z_pts = _measurement_matrix(pts.reshape(-1, STATE_DIM), cam, neck_only=dim == 2)
    z_pts = z_pts.reshape(n, pts.shape[1], dim)

    if cfg.wrap_correction:
        for col in range(0, dim, 2):
            z_pts[:, :, col] = unwrap_columns(z_pts[:, :, col], w)

    z_pred = np.einsum("w,nwd->nd", wm, z_pts)
    dz = z_pts - z_pred[:, None, :]
    s_cov = np.einsum("w,nwi,nwj->nij", wc, dz, dz) + cfg._measurement_cov[dim]
    t_cov = np.einsum("w,nwi,nwj->nij", wc, pts - means[:, None, :], dz)

    innovation = z_obs - z_pred
    if cfg.wrap_correction:
        innovation[:, ::2] = signed_wrap_diff(z_obs[:, ::2], z_pred[:, ::2], w)

    # one solve yields both the whitened innovation and the Kalman gain
    rhs = np.concatenate([innovation[:, :, None], t_cov.transpose(0, 2, 1)], axis=2)
    solved = np.linalg.solve(s_cov, rhs)
    if cfg.mahalanobis_gate is None:
        accepted = [True] * n
    else:
        maha = np.einsum("ni,ni->n", innovation, solved[:, :, 0])
        accepted = [bool(v <= cfg.mahalanobis_gate) for v in maha]

    gain = solved[:, :, 1:].transpose(0, 2, 1)
    new_means = means + np.einsum("nij,nj->ni", gain, innovation)
    covs = np.stack([t.covariance for t in tracks])
    new_covs = covs - gain @ s_cov @ gain.transpose(0, 2, 1)
    return accepted, _store_posterior(tracks, new_means, new_covs, accepted, cfg.jitter_floor)


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


def _detection_pixels(dets: Sequence[Detection], image_width: float) -> np.ndarray:
    """(m, 4) pixels of the detections: ankle-midpoint column and row,
    then neck column and row, NaN where the joints are absent."""
    pix = np.full((len(dets), 4), np.nan)
    for j, det in enumerate(dets):
        ankle = det.ankle_midpoint(image_width)
        if ankle is not None:
            pix[j, :2] = ankle
        neck = det.neck
        if neck is not None:
            pix[j, 2:] = neck
    return pix


def _wrap_distances(
    a: np.ndarray, b: np.ndarray, image_width: float, limit: float
) -> np.ndarray:
    """(len(a), len(b)) distances between two (k, 2) pixel arrays, the
    column component measured the short way around the seam. Only
    pairs whose column and row gaps are both within ``limit`` are
    evaluated; every other entry, and every entry of a NaN row, is
    +inf."""
    # in place where possible: at 200 x 200 each full array is 320 kB
    dx = a[:, None, 0] - b[None, :, 0]
    np.abs(dx, out=dx)
    # columns in [0, W] differ by at most W, and such a gap needs no
    # reduction; only a column outside that range makes a larger one
    if (dx > image_width).any():
        dx %= image_width
    np.minimum(dx, image_width - dx, out=dx)
    dy = a[:, None, 1] - b[None, :, 1]
    np.abs(dy, out=dy)
    near = np.maximum(dx, dy) <= limit  # False for NaN
    return np.hypot(dx, dy, out=np.full(dx.shape, np.inf), where=near)


def associate(
    tracks: Sequence[Track],
    det_necks: np.ndarray,
    cam: CameraModel,
    gate: float,
) -> Assignment:
    """Global nearest neighbour between predicted neck positions and
    the (m, 2) detection neck pixels under the wrap-aware image
    distance.

    Finds the one-to-one assignment that first maximizes the number of
    pairs within the gate and then minimizes their total distance
    (Hungarian method on a matrix where gated-out pairs carry a
    prohibitive cost). A NaN row (a detection without a neck) is never
    matched. Ties are resolved deterministically by the (track, det)
    ordering of the inputs.
    """
    n, m = len(tracks), len(det_necks)
    if n == 0 or m == 0:
        return Assignment([], list(range(n)), list(range(m)))

    dist = _wrap_distances(_track_necks(tracks, cam), det_necks, cam.image_width, gate)
    cost = np.where(dist <= gate, dist, _FORBIDDEN)  # +inf (no neck) fails the gate

    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] < _FORBIDDEN]
    matched_t = {i for i, _ in pairs}
    matched_d = {j for _, j in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_tracks=[i for i in range(n) if i not in matched_t],
        unmatched_dets=[j for j in range(m) if j not in matched_d],
    )


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

    def _spawn(self, pix: np.ndarray) -> Optional[Track]:
        """A tentative track at the person seen in one (4,) row of
        detection pixels; None when a joint is missing or the ankle
        does not localize."""
        if np.isnan(pix).any():
            return None
        ax, ay, nx, ny = pix.tolist()
        try:
            w = localize(ImagePoint(ax, ay), ImagePoint(nx, ny), self.cam)
        except GeometryError:
            return None
        lo, hi = H_N_RANGE
        mean = np.array([w.x, w.y, 0.0, 0.0, min(max(w.z, lo), hi)])
        cov, root = _spd_factor(
            np.diag(self.config.initial_variance).astype(float), self.config.jitter_floor
        )
        track = Track(id=self._next_id, mean=mean, covariance=cov, cov_factor=root)
        self._next_id += 1
        return track

    def _prominence(self, track: Track) -> tuple[float, float]:
        ankle, neck = project_to_image(track.state, self.cam)
        return (-abs(ankle.y - neck.y), neck.x)

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
        if (
            track.status == TrackStatus.TENTATIVE
            and track.hits >= self.config.confirm_hits
        ):
            track.status = TrackStatus.CONFIRMED

    def step(self, dets: Sequence[Detection], dt: float) -> list[Track]:
        """Advance one frame; returns the current tracks (including any
        that were lost this frame) sorted by id."""
        cfg = self.config

        for i in predict(self.tracks, dt, cfg):
            self.tracks[i].status = TrackStatus.LOST

        pix = _detection_pixels(dets, self.cam.image_width)
        active = [t for t in self.tracks if t.status != TrackStatus.LOST]
        active.sort(key=lambda t: t.id)
        assignment = associate(active, pix[:, 2:], self.cam, cfg.gate_px)

        missed = set(assignment.unmatched_tracks)
        # matched detections always carry a neck (association anchors on
        # it); the measurement is the whole row, or the neck alone when
        # the ankles are absent; one batched update per measurement size
        by_dim: dict[int, list[tuple[int, np.ndarray]]] = {}
        for ti, di in assignment.pairs:
            z = pix[di] if not np.isnan(pix[di, 0]) else pix[di, 2:]
            by_dim.setdefault(len(z), []).append((ti, z))
        for group in by_dim.values():
            accepted, diverged = update(
                [active[ti] for ti, _ in group], np.array([z for _, z in group]), self.cam, cfg
            )
            for k, (ti, _) in enumerate(group):
                if k in diverged:
                    active[ti].status = TrackStatus.LOST
                elif accepted[k]:
                    self._register_hit(active[ti])
                else:
                    missed.add(ti)

        for ti in missed:
            track = active[ti]
            track.hits = 0
            track.consecutive_misses += 1
            if track.consecutive_misses >= cfg.lose_after_misses:
                track.status = TrackStatus.LOST

        unmatched = assignment.unmatched_dets
        if unmatched:
            live = [t for t in self.tracks if t.status != TrackStatus.LOST]
            dist = _wrap_distances(
                pix[unmatched, 2:],
                _track_necks(live, self.cam),
                self.cam.image_width,
                cfg.spawn_suppression_px,
            )
            # a detection near a live track's neck is a residual duplicate
            # of someone already tracked; +inf (no neck) never suppresses
            suppressed = (dist < cfg.spawn_suppression_px).any(axis=1)
            for di, skip in zip(unmatched, suppressed):
                if skip:
                    continue
                spawned = self._spawn(pix[di])
                if spawned is not None:
                    self.tracks.append(spawned)

        self._maintain_target()

        # emit value snapshots so stored frames are immune to later mutation
        snapshot = [_snapshot(t) for t in sorted(self.tracks, key=lambda t: t.id)]
        self.tracks = [t for t in self.tracks if t.status != TrackStatus.LOST]
        return snapshot
