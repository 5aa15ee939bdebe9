"""Wrap-aware multi-person tracking with an unscented Kalman filter.

Each track carries a 5-dimensional world state (position x, y in
meters, velocity vx, vy in m/s, and the person's neck height h_n) with
a full covariance, propagated by a constant-velocity model and updated
against pixel measurements of the ankle midpoint and neck (or the neck
alone when the ankles are occluded).

``PanoTracker`` keeps the filter state in three row-aligned arrays,
``means`` (n, 5), ``covs`` (n, 5, 5) and their Cholesky ``factors``
(n, 5, 5), row i belonging to ``tracks[i]``; tracks are in id order
and carry only their lifecycle. A spawn appends rows. A step returns
one ``TrackTable`` and ends on copies, so the table's arrays are never
written again: a compaction that drops the rows of the tracks lost in
the step, or, when none was lost, copies of the means and covariances.

The filter has one batched core on such arrays: ``predict`` propagates
all rows, ``innovation_stage`` takes the predicted rows through the
unscented transform of the measurement model once, and ``update``
corrects a subset of rows against an (n, 4) measurement array. A
measurement is a sequence of (column, row) pixel pairs: d = 4 for the
ankle midpoint and neck, d = 2 for the neck alone (a row whose ankle
entries are NaN), so its seam columns are the even entries. The stage
is formed for d = 4; a neck-only row reads its neck slices, which are
the d = 2 moments exactly, since the measurement noise is diagonal.
On a frame with matches, ``step`` computes one stage and makes one
``update`` call; when every row is predicted and matched, in order, it
passes its own arrays and the whole stage, with no gather or scatter.
``predict`` and ``update`` return the rows to keep and
a mask of the rows they changed; a row whose posterior is non-finite,
or whose covariance no jitter repairs, comes back as it went in and its
track is reported as diverged.

The panorama's horizontal periodicity enters the filter in the
measurement space only. Near the seam, the sigma points' image
projections fall on both sides of the panorama; averaging the raw
columns would place the predicted measurement near the middle of the
image and wreck the estimate. Two corrections keep the update sound:

* the sigma points' column, shared by the ankle midpoint and the neck,
  is unwrapped before the moments are computed (points on the low side
  shift up by one image width whenever the raw column spread exceeds
  half the width), and
* the innovation's column components use the signed cyclic difference.

Both are controlled by the config's ``wrap_correction`` flag so the
effect is testable; association always measures image distance the
short way around the seam.

``PanoTracker.step`` takes a frame's detections as one (m, 4) array
of ankle-midpoint and neck pixels, NaN where a joint is absent.
Association, the measurements, spawn suppression and spawning all
read that array. Association is global nearest neighbour on the neck
pixels (``associate``); spawn suppression measures the unmatched
detections that could spawn, those with all four coordinates, against
the live tracks' necks with the same gated, wrap-aware distance, with
its own radius as the limit. From about 10^4 pairs both score only the
pairs inside the limit's column window (``_gated_distances``), with
the values of the dense evaluation, and build no n x m temporaries
per frame beyond the one matrix they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .exceptions import ConfigError, FilterDivergenceError, GeometryError
from .geometry import (
    _WINDOW_SLACK,
    CameraModel,
    ImagePoint,
    check_flag,
    check_number,
    column_range,
    localize,
    row_at_height,
    signed_wrap_diff,
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
    # an unmatched detection this close (px) to a live track's neck
    # after the update (the posterior of a matched track, the prediction
    # of an unmatched one) is treated as a residual duplicate, not a
    # new person
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

    @cached_property
    def weights(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(mean weights, covariance weights, spread scale sqrt(n+lambda));
        the mean weights sum to 1. Cached; callers must not mutate."""
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
    def _spawn_cov(self) -> tuple[np.ndarray, np.ndarray]:
        """A new track's covariance, ``initial_variance`` through ``_spd_factor``, and its factor."""
        return _spd_factor(np.diag(self.initial_variance).astype(float), self.jitter_floor)

    @cached_property
    def _measurement_cov(self) -> np.ndarray:
        return self.measurement_noise * np.eye(4)


@dataclass
class Track:
    """The lifecycle of one track. Its filter state is the row of the
    tracker's arrays at the track's position in ``PanoTracker.tracks``.
    ``status`` is "tentative", "confirmed" or "lost", as the tracks
    file writes it."""

    id: int
    status: str = "tentative"
    hits: int = 1  # consecutive accepted updates (spawn counts as one)
    consecutive_misses: int = 0
    is_target: bool = False


class TrackTable(NamedTuple):
    """The tracks as ``PanoTracker.step`` reports them, lost ones
    included, one row each in id order: ids, statuses and target
    flags, and the step-end means and covariances."""

    ids: list[int]
    statuses: list[str]
    is_target: list[bool]
    means: np.ndarray  # (n, 5)
    covs: np.ndarray  # (n, 5, 5)


def unwrap_columns(xs: np.ndarray, image_width: float) -> np.ndarray:
    """Along the last axis, shift columns that fell on the low side of
    the seam up by one image width, wherever the raw column spread
    exceeds half the width. Valid because any one person's projections
    span far less than half the panorama. When no spread does, ``xs``
    itself is returned."""
    xs = np.asarray(xs, dtype=float)
    half = image_width / 2.0
    split = (xs.max(axis=-1) - xs.min(axis=-1)) > half
    if not split.any():
        return xs
    return np.where(split[..., None] & (xs < half), xs + image_width, xs)


def _column_range(
    x: np.ndarray, y: np.ndarray, cam: CameraModel
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``geometry.column_range``: the columns, in [0, W),
    and the ground ranges of ground points (x, y)."""
    theta = np.degrees(np.arctan2(y, x))
    return ((180.0 - theta) / cam.deg_per_px_x) % cam.image_width, np.hypot(x, y)


def _row_at_height(rho: np.ndarray, z, cam: CameraModel) -> np.ndarray:
    """Elementwise ``geometry.row_at_height``: the rows of points at
    heights z (an array, or one height for all) and ground ranges rho."""
    return (90.0 - np.degrees(np.arctan2(z - cam.mount_height, rho))) / cam.deg_per_px_y


def _neck_pixels(states: np.ndarray, cam: CameraModel) -> np.ndarray:
    """The (m, 2) neck pixels, (column, row), of (m, 5) states."""
    pixels = np.empty((len(states), 2))  # filled in place: np.stack costs more
    pixels[:, 0], rho = _column_range(states[:, 0], states[:, 1], cam)
    pixels[:, 1] = _row_at_height(rho, states[:, 4], cam)
    return pixels


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
    # The layout of this array is part of the output: ``einsum`` sums
    # in an order that follows the strides, so a C-contiguous array with
    # bit-equal values changes the last bits of every moment, and with
    # them the tracks files. The tier-1 suite pins these strides.
    offsets = scale * factors.transpose(0, 2, 1)  # rows: scaled root directions
    center = means[:, None, :]
    return np.concatenate([center, center + offsets, center - offsets], axis=1)


States = tuple[np.ndarray, np.ndarray, np.ndarray]  # means, covariances, their factors


class Innovation(NamedTuple):
    """The d = 4 predicted measurement of n states, ankle midpoint then
    neck: ``z_pred`` (n, 4), its covariance ``s_cov`` (n, 4, 4), the
    measurement noise included, and the state-measurement
    cross-covariance ``t_cov`` (n, 5, 4). R is diagonal and the neck is
    entries 2-3, so the neck-only (d = 2) moments are the slices
    ``z_pred[:, 2:]``, ``s_cov[:, 2:, 2:]`` and ``t_cov[:, :, 2:]``."""

    z_pred: np.ndarray
    s_cov: np.ndarray
    t_cov: np.ndarray

    def take(self, rows: np.ndarray) -> "Innovation":
        """The stage of the given rows."""
        return Innovation(*(a.take(rows, axis=0) for a in self))


def _store_posterior(
    prior: States, means: np.ndarray, covs: np.ndarray, store: Optional[np.ndarray],
    jitter_floor: float,
) -> tuple[States, np.ndarray]:
    """The rows to keep of a batch of posteriors, and the mask of rows
    stored: those flagged in ``store`` (every row when it is None) whose
    posterior is finite and admits a Cholesky factor. A stored row is
    the posterior, its height clamped and its covariance symmetrized,
    with that factor; every other row is its ``prior`` (means,
    covariances, factors) unchanged, and a flagged one diverged. One
    batched factorization serves every row; only when a member of the
    stack fails is each flagged row repaired with jitter on its own."""
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    stored = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    if store is not None:
        stored &= store
    h_n = means[:, 4]  # clamped after the check, which would map inf into range
    np.maximum(h_n, H_N_RANGE[0], out=h_n)
    np.minimum(h_n, H_N_RANGE[1], out=h_n)
    try:
        factors = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        factors = np.zeros_like(covs)
        for i in np.flatnonzero(stored):
            try:
                covs[i], factors[i] = _spd_factor(covs[i], jitter_floor)
            except FilterDivergenceError:
                stored[i] = False
    if not stored.all():
        for i in (~stored).nonzero()[0]:
            means[i], covs[i], factors[i] = prior[0][i], prior[1][i], prior[2][i]
    return (means, covs, factors), stored


def predict(
    means: np.ndarray, covs: np.ndarray, factors: np.ndarray, dt: float, cfg: TrackerConfig
) -> tuple[States, np.ndarray]:
    """Constant-velocity propagation of (n, 5) states, with their
    (n, 5, 5) covariances and Cholesky factors, through sigma points,
    plus process noise scaled by dt. Returns the states to keep and the
    mask of rows predicted; a row outside it diverged and is returned
    unchanged."""
    check_number("dt", dt, 0.0, strict=True)
    if not len(means):
        return (means, covs, factors), np.ones(0, dtype=bool)
    wm, wc, scale = cfg.weights
    pts = _sigma_points(means, factors, scale)
    pts[:, :, 0] += pts[:, :, 2] * dt
    pts[:, :, 1] += pts[:, :, 3] * dt
    new_means = np.einsum("w,nwd->nd", wm, pts)
    d = pts - new_means[:, None, :]
    new_covs = np.einsum("w,nwi,nwj->nij", wc, d, d) + cfg._process_noise_diag * dt
    return _store_posterior((means, covs, factors), new_means, new_covs, None, cfg.jitter_floor)


def innovation_stage(
    means: np.ndarray, factors: np.ndarray, cam: CameraModel, cfg: TrackerConfig
) -> Innovation:
    """The unscented transform of (n, 5) states, with the (n, 5, 5)
    Cholesky factors of their covariances, through the d = 4
    measurement model: the sigma points' ankle-midpoint and neck pixels
    and their moments. Both measured points of a sigma point share its
    column, which the config's wrap correction unwraps once, before the
    moments are formed; with it off the raw projections are used."""
    wm, wc, scale = cfg.weights
    pts = _sigma_points(means, factors, scale)
    col, rho = _column_range(pts[..., 0], pts[..., 1], cam)
    if cfg.wrap_correction:
        col = unwrap_columns(col, cam.image_width)
    z_pts = np.empty((*col.shape, 4))  # filled in place: np.stack costs more
    z_pts[..., 0] = z_pts[..., 2] = col
    z_pts[..., 1] = _row_at_height(rho, cam.ankle_height, cam)
    z_pts[..., 3] = _row_at_height(rho, pts[..., 4], cam)
    z_pred = np.einsum("w,nwd->nd", wm, z_pts)
    dz = z_pts - z_pred[:, None, :]
    s_cov = np.einsum("w,nwi,nwj->nij", wc, dz, dz) + cfg._measurement_cov
    t_cov = np.einsum("w,nwi,nwj->nij", wc, pts - means[:, None, :], dz)
    return Innovation(z_pred, s_cov, t_cov)


def _correct(
    means: np.ndarray, covs: np.ndarray, z_obs: np.ndarray, z_pred: np.ndarray,
    s_cov: np.ndarray, t_cov: np.ndarray, image_width: float, cfg: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Kalman correction of one measurement size d: (posterior
    means, posterior covariances, acceptance mask) of (n, 5) means and
    their covariances, from the (n, d) measurements and the stage's
    (n, d) ``z_pred``, (n, d, d) ``s_cov`` and (n, 5, d) ``t_cov``."""
    innovation = z_obs - z_pred
    if cfg.wrap_correction:
        innovation[:, ::2] = signed_wrap_diff(z_obs[:, ::2], z_pred[:, ::2], image_width)

    # one solve yields both the whitened innovation and the Kalman gain
    rhs = np.concatenate([innovation[:, :, None], t_cov.transpose(0, 2, 1)], axis=2)
    solved = np.linalg.solve(s_cov, rhs)
    if cfg.mahalanobis_gate is None:
        accepted = np.ones(len(means), dtype=bool)
    else:
        maha = np.einsum("ni,ni->n", innovation, solved[:, :, 0])
        accepted = maha <= cfg.mahalanobis_gate

    gain = solved[:, :, 1:].transpose(0, 2, 1)
    new_means = means + np.einsum("nij,nj->ni", gain, innovation)
    return new_means, covs - gain @ s_cov @ gain.transpose(0, 2, 1), accepted


def update(
    means: np.ndarray, covs: np.ndarray, factors: np.ndarray, z_obs: np.ndarray,
    stage: Innovation, cam: CameraModel, cfg: TrackerConfig,
) -> tuple[States, np.ndarray, np.ndarray]:
    """UKF measurement update of state i (row i of the (n, 5) means,
    (n, 5, 5) covariances and their factors, and of their innovation
    ``stage``) against row i of the (n, 4) measurement array: the
    ankle-midpoint and neck pixels, or the neck alone where the ankle
    entries are NaN. A full row takes the whole stage and a neck-only
    row its neck slices, and one pass stores every posterior. Returns
    the states to keep, the acceptance mask, False where the innovation
    fails the config's Mahalanobis bound, and the mask of rows updated;
    a row outside it is returned unchanged, and an accepted one
    diverged.

    With the config's wrap correction on, the innovation columns use
    the signed cyclic difference; with it off, plain differences (the
    behaviour of a tracker unaware of the panorama seam).
    """
    full = ~np.isnan(z_obs[:, 0])
    if full.all():  # the whole stage: nothing to gather or scatter
        new_means, new_covs, accepted = _correct(means, covs, z_obs, *stage, cam.image_width, cfg)
    else:
        new_means, new_covs = np.empty_like(means), np.empty_like(covs)
        accepted = np.empty(len(means), dtype=bool)
        for rows, d in ((full.nonzero()[0], slice(None)), ((~full).nonzero()[0], slice(2, None))):
            if len(rows):
                new_means[rows], new_covs[rows], accepted[rows] = _correct(
                    means[rows], covs[rows], z_obs[rows, d], stage.z_pred[rows, d],
                    stage.s_cov[rows, d, d], stage.t_cov[rows, :, d], cam.image_width, cfg,
                )
    kept, stored = _store_posterior(
        (means, covs, factors), new_means, new_covs, accepted, cfg.jitter_floor
    )
    return kept, accepted, stored


@dataclass
class Assignment:
    tracks: np.ndarray  # matched track indices, ascending
    dets: np.ndarray  # the detection matched to each
    unmatched_tracks: list[int]
    unmatched_dets: list[int]


def _gap_distances(
    dx: np.ndarray, dy: np.ndarray, image_width: float, limit: float
) -> np.ndarray:
    """Elementwise distances of column and row differences ``dx`` and
    ``dy``, which are overwritten, the column gap measured the short way
    around the seam. Only pairs whose column and row gaps are both within
    ``limit`` are evaluated; every other entry, and every NaN one, is
    +inf. A reduction of the column gaps applies to each on its own, so
    an entry's value does not depend on the others."""
    np.abs(dx, out=dx)
    # columns in [0, W] differ by at most W, and such a gap needs no
    # reduction (x % W is x for 0 <= x < W, and a gap of W gives 0
    # either way); only a column outside that range makes a larger one
    if (dx > image_width).any():
        dx %= image_width
    np.minimum(dx, image_width - dx, out=dx)
    np.abs(dy, out=dy)
    near = np.maximum(dx, dy) <= limit  # False for NaN
    return np.hypot(dx, dy, out=np.full(dx.shape, np.inf), where=near)


def _wrap_distances(
    a: np.ndarray, b: np.ndarray, image_width: float, limit: float
) -> np.ndarray:
    """(len(a), len(b)) ``_gap_distances`` between two (k, 2) pixel
    arrays: every pair evaluated, the dense form."""
    return _gap_distances(
        a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1], image_width, limit
    )


# From this many pairs, a gated distance matrix scores only the pairs
# in the limit's column windows; below it, the few numpy calls of every
# pair cost less than finding the windows.
_WINDOW_MIN_PAIRS = 10_000
# columns within this many widths of [0, W] keep every rounding of the
# windows and of the gaps far below the slack
_WINDOW_COLUMN_SPAN = 2.0


def _windowed_distances(
    a: np.ndarray, b: np.ndarray, image_width: float, limit: float, fill: float
) -> np.ndarray:
    """``_gated_distances`` through the column windows: the columns of
    ``b`` are sorted (mod W) once, and each row of ``a`` meets only the
    rows of ``b`` whose columns lie within ``limit`` of its own around
    the circle, found by bisection. Those pairs take ``_gap_distances``'
    arithmetic, and the matrix is ``fill`` elsewhere, as every pair
    outside a window has a column gap above ``limit``. Exact for finite
    columns within ``_WINDOW_COLUMN_SPAN`` widths of [0, W] and NaN
    ones, at any limit."""
    keys = b[:, 0] % image_width  # in [0, W]; NaN sorts last and is dropped
    order = np.argsort(keys)
    order = order[: len(order) - np.isnan(keys).sum()]
    keys = keys[order]
    # each key once a width below and above, so that a window that
    # straddles the seam is one range; a pair found twice (a window
    # wider than W) is written twice with the same value
    shifted = np.concatenate([keys - image_width, keys, keys + image_width])
    centres = a[:, 0] % image_width
    reach = limit + _WINDOW_SLACK * image_width
    starts = np.searchsorted(shifted, centres - reach, "left")  # NaN: an empty window
    counts = np.searchsorted(shifted, centres + reach, "right") - starts
    rows = np.repeat(np.arange(len(a)), counts)
    # the positions in ``shifted``: each row's start, plus 0, 1, ... within its window
    at = np.arange(len(rows)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    cols = np.tile(order, 3)[at]
    dist = _gap_distances(
        a[:, 0].take(rows) - b[:, 0].take(cols),
        a[:, 1].take(rows) - b[:, 1].take(cols),
        image_width,
        limit,
    )
    out = np.full((len(a), len(b)), fill)
    out.reshape(-1)[rows * len(b) + cols] = np.where(dist <= limit, dist, fill)
    return out


def _gated_distances(
    a: np.ndarray, b: np.ndarray, image_width: float, limit: float, fill: float
) -> np.ndarray:
    """(len(a), len(b)) matrix of the ``_wrap_distances`` between two
    (k, 2) pixel arrays that are within ``limit``, and ``fill`` for
    every other pair, a NaN one included. From ``_WINDOW_MIN_PAIRS``
    pairs only the pairs in the limit's column windows are scored
    (``_windowed_distances``), with the same values; the dense form
    scores every pair when there are fewer, when a window would span
    half the panorama or more, or when a column lies too far outside
    [0, W] for the windows to be exact."""
    if (
        len(a) * len(b) >= _WINDOW_MIN_PAIRS
        and 2.0 * limit < image_width
        and not (
            np.abs(np.concatenate([a[:, 0], b[:, 0]]) - 0.5 * image_width)
            > (0.5 + _WINDOW_COLUMN_SPAN) * image_width
        ).any()  # False for NaN
    ):
        return _windowed_distances(a, b, image_width, limit, fill)
    dist = _wrap_distances(a, b, image_width, limit)
    return np.where(dist <= limit, dist, fill)


def associate(
    means: np.ndarray, det_necks: np.ndarray, cam: CameraModel, gate: float
) -> Assignment:
    """Global nearest neighbour between the predicted neck positions of
    (n, 5) track states and the (m, 2) detection neck pixels under the
    wrap-aware image distance.

    Finds the one-to-one assignment that first maximizes the number of
    pairs within the gate and then minimizes their total distance
    (Hungarian method on a matrix where gated-out pairs carry a
    prohibitive cost). A NaN row (a detection without a neck) is never
    matched. Ties are resolved deterministically by the (track, det)
    ordering of the inputs.

    From about 10^4 pairs, only the pairs inside the gate's column
    window are scored: the detections' neck columns are sorted once and
    each track's window found by bisection (``_gated_distances``). The
    cost matrix is the dense evaluation's, bit for bit, so the
    assignment is too.
    """
    n, m = len(means), len(det_necks)
    if n == 0 or m == 0:
        none = np.empty(0, dtype=int)
        return Assignment(none, none, list(range(n)), list(range(m)))

    cost = _gated_distances(_neck_pixels(means, cam), det_necks, cam.image_width, gate, _FORBIDDEN)

    rows, cols = linear_sum_assignment(cost)  # rows ascending
    within = cost[rows, cols] < _FORBIDDEN
    rows, cols = rows[within], cols[within]
    matched_t, matched_d = set(rows.tolist()), set(cols.tolist())
    return Assignment(
        tracks=rows,
        dets=cols,
        unmatched_tracks=[i for i in range(n) if i not in matched_t],
        unmatched_dets=[j for j in range(m) if j not in matched_d],
    )


class PanoTracker:
    """Frame-by-frame tracker: predict, associate, update, manage
    track lifecycle and the designated target. ``step`` takes a frame's
    detections as (m, 4) pixels, one row each: ankle-midpoint column and
    row, then neck column and row, NaN where absent.

    Tracks confirm after ``confirm_hits`` consecutive hits and are lost
    after ``lose_after_misses`` consecutive misses. Lost tracks are
    reported once with status "lost" and then dropped; ids are never
    reused, so a target that is lost and re-acquired appears under a
    new id. When no target exists, the most prominent confirmed track
    (largest projected body height, ties to the smallest column) is
    promoted. Unmatched detections spawn tentative tracks unless they
    fall within ``spawn_suppression_px`` of a live track's neck after
    the update: the posterior for a matched track, the prediction for
    an unmatched one (residual duplicates that slipped through fusion
    must not seed ghost identities that compete with the real track).

    ``step`` calls must be externally serialized; the tracker is a
    single logical state machine.
    """

    def __init__(self, cam: CameraModel, config: TrackerConfig = TrackerConfig()):
        self.cam = cam
        self.config = config
        self.tracks: list[Track] = []
        # filter state, row i belonging to tracks[i]
        self.means = np.empty((0, STATE_DIM))
        self.covs = np.empty((0, STATE_DIM, STATE_DIM))
        self.factors = np.empty((0, STATE_DIM, STATE_DIM))
        self._next_id = 1

    def _spawn(self, pix: np.ndarray) -> None:
        """Append a tentative track, and its rows, for each person seen
        in the (k, 4) rows of detection pixels, none of them NaN,
        skipping a row whose ankle does not localize."""
        lo, hi = H_N_RANGE
        means = []
        for ax, ay, nx, ny in pix.tolist():
            try:
                w = localize(ImagePoint(ax, ay), ImagePoint(nx, ny), self.cam)
            except GeometryError:
                continue
            means.append([w.x, w.y, 0.0, 0.0, min(max(w.z, lo), hi)])
        if not means:
            return
        k = len(means)
        cov, root = self.config._spawn_cov
        self.means = np.concatenate([self.means, means])
        self.covs = np.concatenate([self.covs, np.broadcast_to(cov, (k, *cov.shape))])
        self.factors = np.concatenate([self.factors, np.broadcast_to(root, (k, *root.shape))])
        self.tracks.extend(Track(id=self._next_id + i) for i in range(k))
        self._next_id += k

    def _rows(self, rows: np.ndarray | list[int]) -> States:
        """Copies of the given rows of the filter arrays."""
        return tuple(a.take(rows, axis=0) for a in (self.means, self.covs, self.factors))

    def _prominence(self, row: int) -> tuple[float, float]:
        """The target rule's key for a row: minus the pixel height from
        the ankle midpoint to the neck of its mean, then its column."""
        x, y, _, _, h = self.means[row].tolist()
        column, rho = column_range(x, y, self.cam)
        ankle_y = row_at_height(rho, self.cam.ankle_height, self.cam)
        return (-abs(ankle_y - row_at_height(rho, h, self.cam)), column)

    def _maintain_target(self) -> None:
        if any(t.is_target and t.status != "lost" for t in self.tracks):
            return
        candidates = [i for i, t in enumerate(self.tracks) if t.status == "confirmed"]
        if not candidates:
            return
        self.tracks[min(candidates, key=self._prominence)].is_target = True

    def step(self, pix: np.ndarray, dt: float) -> TrackTable:
        """Advance one frame on its detections' (m, 4) pixels; returns
        the table of the current tracks, including any that were lost
        this frame, in id order."""
        cfg = self.config
        tracks = self.tracks

        (self.means, self.covs, self.factors), predicted = predict(
            self.means, self.covs, self.factors, dt, cfg
        )
        active = predicted.nonzero()[0]
        every = len(active) == len(tracks)
        if not every:
            for i in (~predicted).nonzero()[0]:
                tracks[i].status = "lost"

        means = self.means if every else self.means.take(active, axis=0)
        assignment = associate(means, pix[:, 2:], self.cam, cfg.gate_px)

        missed = active[assignment.unmatched_tracks].tolist()
        # matched detections always carry a neck (association anchors on
        # it); the measurement is the whole row, or the neck alone when
        # the ankles are absent; one update over the stage's matched rows
        matched = active[assignment.tracks]
        if len(matched):
            factors = self.factors if every else self.factors.take(active, axis=0)
            stage = innovation_stage(means, factors, self.cam, cfg)
            z_obs = pix[assignment.dets]
            if len(matched) == len(tracks):  # every row, in order: no gather or scatter
                (self.means, self.covs, self.factors), accepted, stored = update(
                    self.means, self.covs, self.factors, z_obs, stage, self.cam, cfg
                )
            else:
                kept, accepted, stored = update(
                    *self._rows(matched), z_obs, stage.take(assignment.tracks), self.cam, cfg
                )
                self.means[matched], self.covs[matched], self.factors[matched] = kept
            for i, ok, updated in zip(matched.tolist(), accepted.tolist(), stored.tolist()):
                track = tracks[i]
                if not ok:
                    missed.append(i)
                elif updated:
                    track.hits += 1
                    track.consecutive_misses = 0
                    if track.status == "tentative" and track.hits >= cfg.confirm_hits:
                        track.status = "confirmed"
                else:
                    track.status = "lost"

        for i in missed:
            track = tracks[i]
            track.hits = 0
            track.consecutive_misses += 1
            if track.consecutive_misses >= cfg.lose_after_misses:
                track.status = "lost"

        # no status changes after this point: the live rows serve spawn
        # suppression and, with the spawned rows, the compaction
        live = [i for i, t in enumerate(tracks) if t.status != "lost"]
        first_spawn = len(tracks)
        if assignment.unmatched_dets:
            # only an unmatched detection with all four coordinates can spawn
            spawnable = pix[assignment.unmatched_dets]
            spawnable = spawnable[~np.isnan(spawnable).any(axis=1)]
            if len(spawnable):
                dist = _gated_distances(
                    spawnable[:, 2:],
                    _neck_pixels(self.means[live], self.cam),
                    self.cam.image_width,
                    cfg.spawn_suppression_px,
                    np.inf,
                )
                # a detection near a live track's neck is a residual
                # duplicate of someone already tracked
                suppressed = (dist < cfg.spawn_suppression_px).any(axis=1)
                self._spawn(spawnable[~suppressed])
                live.extend(range(first_spawn, len(tracks)))

        self._maintain_target()

        table = TrackTable(
            [t.id for t in tracks], [t.status for t in tracks], [t.is_target for t in tracks],
            self.means, self.covs,
        )
        # the arrays go on as copies, so the table's are never written
        # again: compacted when a track was lost, else copied
        if len(live) < len(tracks):
            self.tracks = [tracks[i] for i in live]
            self.means, self.covs, self.factors = self._rows(live)
        else:
            self.means, self.covs = self.means.copy(), self.covs.copy()
        return table
