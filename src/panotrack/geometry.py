"""Equirectangular camera model and wrap-aware image-space math.

Coordinate conventions
----------------------
Image frame:
    x = column in pixels, increasing rightwards, cyclic modulo the image
    width (column 0 and column W describe the same viewing direction).
    y = row in pixels, increasing downwards, in [0, H].

Angles (degrees at every public interface):
    theta = azimuth in (-180, 180]. Column 0 maps to +180, the image
    center column to 0, i.e. theta decreases linearly with x.
    phi = elevation in [-90, 90], positive above the horizon. Row 0 maps
    to +90 (zenith) and row H to -90 (nadir) for a 180 degree vertical
    field of view.

World frame:
    Origin at the camera's foot point on the ground, z up. The camera
    sensor sits at (0, 0, mount_height). x points towards theta = 0,
    y towards theta = 90. Ranges ("rho") are horizontal ground distances
    from the camera axis.

The camera is assumed orthogonal to the ground at a fixed mount height;
there is no lens-distortion model beyond the ideal equirectangular
mapping.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .exceptions import AboveHorizonError, ConfigError, GeometryError, InputError

_WINDOW_SLACK = 1e-9  # of the period: the cyclic windows' padding, far above rounding


# JSON true/false arrive as bools, which are ints to Python
def _finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _field(record: dict, key: str, where: str, integer: bool = False, default=None):
    """``record[key]`` (``default`` when absent) if it is an integer
    (``integer``) or a finite number; else InputError, led by ``where``,
    which names the record."""
    value = record.get(key, default)
    if not (_integer if integer else _finite_number)(value):
        kind = "an integer" if integer else "a finite number"
        raise InputError(f"{where}: {key} must be {kind}, got {value!r}")
    return value


def check_number(
    name: str, value, low: Optional[float] = None, high: Optional[float] = None, *,
    strict: bool = False, integer: bool = False, length: Optional[int] = None,
) -> None:
    """The config number rule. Raise ConfigError unless value is a
    finite real that is not a bool (an integer when ``integer``), at
    least ``low`` (above it when ``strict``) and at most ``high``.
    With ``length``, value must be a tuple of that many such numbers."""
    if length is None:
        items = (value,)
    else:
        items = value if isinstance(value, tuple) and len(value) == length else ()
    kind = _integer if integer else _finite_number
    if items and all(
        kind(v)
        and (low is None or (v > low if strict else v >= low))
        and (high is None or v <= high)
        for v in items
    ):
        return
    what = "integer" if integer else "finite number"
    if length is None:
        what = f"an {what}" if integer else f"a {what}"
    else:
        what = f"a list of {length} {what}s"
    if low is not None:
        what += f" {'>' if strict else '>='} {low:g}"
    if high is not None:
        what += f" and <= {high:g}"
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def check_flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def from_dict(cls, d, what: str, **parse):
    """Build the config dataclass ``cls`` from the JSON object ``d``.

    JSON arrays become tuples, nested ones too; ``parse`` maps a field
    name to the reader of its value (for nested objects), and the
    dataclass checks the values it is given. A ``d`` that is not an
    object, or an unknown key, raises ConfigError; a missing required
    key raises InputError.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {d!r}")
    known = fields(cls)
    unknown = set(d) - {f.name for f in known}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [
        f.name
        for f in known
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise InputError(f"{what} is missing required keys: {missing}")
    values = {k: _tuples(v) for k, v in d.items()}
    for name, read in parse.items():
        if name in values:
            values[name] = read(values[name])
    return cls(**values)


class ImagePoint(NamedTuple):
    x: float
    y: float


class PolarDirection(NamedTuple):
    theta: float
    phi: float


class WorldPoint(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics/extrinsics of an equirectangular panoramic camera.

    Attributes:
        image_width: panorama width in pixels.
        image_height: panorama height in pixels.
        fov_h: horizontal field of view in degrees; must be 360, as
            the column math is cyclic with period ``image_width``.
        fov_v: vertical field of view in degrees, in (0, 180].
        mount_height: camera height above the ground in meters.
        ankle_height: assumed height of a person's ankle joints above the
            ground in meters; used when intersecting ankle rays with the
            ankle plane instead of the ground plane.
    """

    image_width: int = 1920
    image_height: int = 960
    fov_h: float = 360.0
    fov_v: float = 180.0
    mount_height: float = 1.2
    ankle_height: float = 0.10

    def __post_init__(self) -> None:
        check_number("image_width", self.image_width, 1, integer=True)
        check_number("image_height", self.image_height, 1, integer=True)
        if self.fov_h != 360:
            raise ConfigError(f"fov_h must be 360 (a full panorama), got {self.fov_h!r}")
        check_number("fov_v", self.fov_v, 0.0, 180.0, strict=True)
        check_number("ankle_height", self.ankle_height, 0.0)
        check_number("mount_height", self.mount_height, self.ankle_height, strict=True)

    @cached_property
    def deg_per_px_x(self) -> float:
        return self.fov_h / self.image_width

    @cached_property
    def deg_per_px_y(self) -> float:
        return self.fov_v / self.image_height

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CameraModel":
        return from_dict(cls, d, "camera")


def wrap_degrees(theta: float) -> float:
    """Normalize an angle in degrees to (-180, 180]."""
    return 180.0 - (180.0 - theta) % 360.0


def signed_wrap_diff(a: float, b: float, width: float) -> float:
    """Signed cyclic difference a - b reduced to (-width/2, width/2]."""
    half = 0.5 * width
    return half - (half - (a - b)) % width


def cyclic_interval_overlap(
    a_start: float, a_len: float, b_start: float, b_len: float, period: float
) -> float:
    """Overlap length of two cyclic intervals [start, start+len) on a circle.

    Interval lengths must not exceed the period. Handles intervals that
    cross the seam by testing the three relevant shifted copies. The
    intervals are measured in one order, by (start mod period, length),
    so swapping them never changes the result, to the last bit.
    """
    a0 = a_start % period
    b0 = b_start % period
    if (b0, b_len) < (a0, a_len):
        a0, a_len, b0, b_len = b0, b_len, a0, a_len
    total = 0.0
    for k in (-1.0, 0.0, 1.0):
        lo = max(a0, b0 + k * period)
        hi = min(a0 + a_len, b0 + k * period + b_len)
        if hi > lo:
            total += hi - lo
    return total


def cyclic_neighbours(
    queries: Sequence[tuple[float, float]],
    intervals: Sequence[tuple[float, float]],
    period: float,
) -> list[list[int]]:
    """For each query interval (start, length), the positions in
    ``intervals`` of every interval whose ``cyclic_interval_overlap``
    with it may be positive, each once.

    One sort and sweep: the intervals are sorted by centre, and a query
    meets those whose centres lie within half its length and half the
    widest interval of its own, across the seam. A conservative
    pre-filter, which may return intervals that only touch or lie a
    little apart: a caller runs its exact tests on each returned pair.
    """
    centres = [(start % period + 0.5 * length) % period for start, length in intervals]
    order = sorted(range(len(intervals)), key=centres.__getitem__)
    keys = [centres[k] for k in order]
    # each key once a period below and above, so that a window that
    # straddles the seam is one range
    shifted = [k - period for k in keys] + keys + [k + period for k in keys]
    half_widest = 0.5 * max((length for _, length in intervals), default=0.0)
    near = []
    for start, length in queries:
        window = _cyclic_window(shifted, start % period + 0.5 * length, 0.5 * length + half_widest, period)
        near.append([order[k] for k in window])
    return near


def _cyclic_window(shifted: Sequence[float], centre: float, reach: float, period: float) -> Sequence[int]:
    """Positions in the sorted keys of every key within cyclic distance
    ``reach`` of ``centre``, each once. ``shifted`` is the keys, sorted
    in [0, period), a period below, as they are and a period above: the
    window is one bisected range of it, or every position when it would
    span the period.

    The reach and that guard are padded by ``_WINDOW_SLACK`` of the
    period, far above the rounding of the keys, the centre and the
    shifted copies: a few keys just beyond ``reach`` may be returned,
    but never two copies of one key.
    """
    n = len(shifted) // 3
    reach += _WINDOW_SLACK * period
    if 2.0 * reach + _WINDOW_SLACK * period >= period:
        return range(n)
    centre %= period
    lo, hi = bisect_left(shifted, centre - reach), bisect_right(shifted, centre + reach)
    return [k % n for k in range(lo, hi)]


def image_to_polar(p: ImagePoint, cam: CameraModel) -> PolarDirection:
    """Map an image point to its viewing direction.

    theta = 180 - (fov_h / W) * x, normalized to (-180, 180];
    phi = 90 - (fov_v / H) * y. x is treated cyclically; y must lie in
    [0, H].
    """
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise GeometryError(f"non-finite image point {p}")
    if not 0.0 <= p.y <= cam.image_height:
        raise GeometryError(
            f"row {p.y} outside [0, {cam.image_height}]"
        )
    theta = wrap_degrees(180.0 - cam.deg_per_px_x * p.x)
    phi = 90.0 - cam.deg_per_px_y * p.y
    return PolarDirection(theta, phi)


def ground_range(phi: float, cam: CameraModel) -> float:
    """Horizontal distance to the point where a ray at elevation phi,
    cast from the sensor, meets the ankle plane z = ankle_height.

    Only below-horizon directions are valid. Computed from the
    depression angle so the result is positive: rho = (h - k) *
    tan(90 + phi), which equals (h - k) / tan(-phi).
    """
    if phi >= 0.0:
        raise AboveHorizonError(
            f"elevation {phi} deg is at or above the horizon; "
            "a ground intersection requires phi < 0"
        )
    if phi < -90.0:
        raise GeometryError(f"elevation {phi} deg below nadir")
    return (cam.mount_height - cam.ankle_height) * math.tan(
        math.radians(90.0 + phi)
    )


def estimate_height(phi_neck: float, rho: float, cam: CameraModel) -> float:
    """Neck height above the ground for a neck seen at elevation
    phi_neck at horizontal range rho: h_n = h + rho * tan(phi_neck)."""
    if rho <= 0.0:
        raise GeometryError(f"range must be positive, got {rho}")
    return cam.mount_height + rho * math.tan(math.radians(phi_neck))


def localize(ankle_mid: ImagePoint, neck: ImagePoint, cam: CameraModel) -> WorldPoint:
    """3D position of a person from the ankle-midpoint and neck pixels.

    The ankle ray fixes azimuth and ground range; the neck ray, assumed
    vertically above the ankle midpoint (same range), fixes the person
    height. Raises AboveHorizonError when the ankle point is not below
    the horizon.
    """
    pol_a = image_to_polar(ankle_mid, cam)
    pol_n = image_to_polar(neck, cam)
    rho = ground_range(pol_a.phi, cam)
    if rho <= 0.0:
        raise GeometryError("ankle at nadir; azimuth undefined")
    h_n = estimate_height(pol_n.phi, rho, cam)
    t = math.radians(pol_a.theta)
    return WorldPoint(rho * math.cos(t), rho * math.sin(t), h_n)


def column_range(x: float, y: float, cam: CameraModel) -> tuple[float, float]:
    """The column, in [0, W), and the ground range of the ground point
    (x, y): the first step of ``world_to_image``, shared by every point
    above that ground point. Singular on the vertical camera axis."""
    rho = math.hypot(x, y)
    if rho == 0.0:
        raise GeometryError("point on the camera axis has no azimuth")
    theta = math.degrees(math.atan2(y, x))
    return ((180.0 - theta) / cam.deg_per_px_x) % cam.image_width, rho


def row_at_height(rho: float, z: float, cam: CameraModel) -> float:
    """The row of a point at height z and ground range rho: the second
    step of ``world_to_image``."""
    phi = math.degrees(math.atan2(z - cam.mount_height, rho))
    return (90.0 - phi) / cam.deg_per_px_y


def world_to_image(w: WorldPoint, cam: CameraModel) -> ImagePoint:
    """Project a world point into the panorama (inverse of the polar
    mapping). Singular on the vertical camera axis."""
    x, rho = column_range(w.x, w.y, cam)
    return ImagePoint(x, row_at_height(rho, w.z, cam))


def localization_sensitivity(
    distance: float, pixel_error: float, cam: CameraModel
) -> float:
    """Ground-range error caused by misreading the ankle row by
    pixel_error pixels (towards the horizon) for a person at the given
    distance. Returns math.inf when the perturbed row reaches or
    crosses the horizon.
    """
    if distance <= 0.0:
        raise GeometryError(f"distance must be positive, got {distance}")
    if pixel_error < 0.0:
        raise GeometryError(f"pixel error must be >= 0, got {pixel_error}")
    ankle = world_to_image(WorldPoint(distance, 0.0, cam.ankle_height), cam)
    row = ankle.y - pixel_error
    phi = 90.0 - cam.deg_per_px_y * row
    if phi >= 0.0:
        return math.inf
    return abs(ground_range(phi, cam) - distance)
