import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panotrack.detect import merge_score
from panotrack.exceptions import AboveHorizonError, ConfigError, GeometryError
from panotrack.geometry import (
    CameraModel,
    ImagePoint,
    WorldPoint,
    cyclic_interval_overlap,
    cyclic_neighbours,
    estimate_height,
    ground_range,
    image_to_polar,
    localization_sensitivity,
    localize,
    signed_wrap_diff,
    world_to_image,
    wrap_degrees,
)
from panotrack.geometry import _cyclic_window
from panotrack.tracker import _wrap_distances


class TestCameraModel:
    def test_defaults(self, cam):
        assert cam.image_width == 1920
        assert cam.image_height == 960
        assert cam.mount_height == 1.2
        assert cam.ankle_height == 0.10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"image_width": 0},
            {"fov_h": 0.0},
            {"fov_h": 361.0},
            {"fov_v": 200.0},
            {"mount_height": 0.05, "ankle_height": 0.1},
            {"ankle_height": -0.1},
            {"image_width": "1920"},
            {"image_width": True},
            {"image_height": 960.0},
            {"image_height": 0},
            {"fov_h": "360"},
            {"fov_v": math.nan},
            {"mount_height": math.inf},
            {"ankle_height": False},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CameraModel(**kwargs)

    @pytest.mark.parametrize("fov_h", [180.0, 359.0, 360.5, 90])
    def test_fov_h_other_than_360_rejected(self, fov_h):
        # the column math is cyclic with period W, so the image spans
        # 360 degrees: at 180, (2, 0) and (-2, 0) would share a column
        with pytest.raises(ConfigError, match=r"fov_h must be 360 \(a full panorama\), got"):
            CameraModel(fov_h=fov_h)
        assert CameraModel(fov_h=360) == CameraModel()

    def test_dict_round_trip(self, cam):
        assert CameraModel.from_dict(cam.to_dict()) == cam

    @pytest.mark.parametrize("d", [5, [1920], None])
    def test_from_dict_rejects_non_object(self, d):
        with pytest.raises(ConfigError):
            CameraModel.from_dict(d)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError):
            CameraModel.from_dict({"image_width": 100, "focal": 1.0})


class TestImageToPolar:
    def test_center_is_forward_horizon(self, cam):
        pol = image_to_polar(ImagePoint(960, 480), cam)
        assert pol.theta == pytest.approx(0.0)
        assert pol.phi == pytest.approx(0.0)

    def test_origin(self, cam):
        pol = image_to_polar(ImagePoint(0, 0), cam)
        assert pol.theta == pytest.approx(180.0)
        assert pol.phi == pytest.approx(90.0)

    def test_quarter_point(self, cam):
        pol = image_to_polar(ImagePoint(480, 720), cam)
        assert pol.theta == pytest.approx(90.0)
        assert pol.phi == pytest.approx(-45.0)

    def test_x_is_cyclic(self, cam):
        a = image_to_polar(ImagePoint(100, 300), cam)
        b = image_to_polar(ImagePoint(100 + 1920, 300), cam)
        assert a.theta == pytest.approx(b.theta)

    def test_row_out_of_bounds(self, cam):
        with pytest.raises(GeometryError):
            image_to_polar(ImagePoint(10, -1), cam)
        with pytest.raises(GeometryError):
            image_to_polar(ImagePoint(10, 961), cam)

    def test_non_finite(self, cam):
        with pytest.raises(GeometryError):
            image_to_polar(ImagePoint(math.nan, 10), cam)


class TestGroundRange:
    def test_45_degrees(self, cam):
        assert ground_range(-45.0, cam) == pytest.approx(1.1)

    def test_nadir(self, cam):
        assert ground_range(-90.0, cam) == 0.0

    def test_30_degrees(self, cam):
        assert ground_range(-30.0, cam) == pytest.approx(1.9052558883257653)

    @pytest.mark.parametrize("phi", [0.0, 0.5, 45.0])
    def test_above_horizon(self, cam, phi):
        with pytest.raises(AboveHorizonError):
            ground_range(phi, cam)

    @given(st.floats(min_value=-89.9, max_value=-0.5))
    def test_strictly_decreasing_in_depression(self, phi):
        cam = CameraModel()
        assert ground_range(phi, cam) > ground_range(phi - 0.05, cam)


class TestEstimateHeight:
    def test_neck_on_horizon(self, cam):
        assert estimate_height(0.0, 3.7, cam) == pytest.approx(1.2)

    def test_above_horizon(self, cam):
        assert estimate_height(10.0, 2.0, cam) == pytest.approx(1.55265396141693)

    def test_below_horizon(self, cam):
        assert estimate_height(-5.0, 2.0, cam) == pytest.approx(1.025022672948152)

    def test_requires_positive_range(self, cam):
        with pytest.raises(GeometryError):
            estimate_height(5.0, 0.0, cam)


class TestLocalize:
    def test_forward_axis(self, cam):
        # theta = 0 at column 960; ankle row for rho = 1.1 is 720
        w = localize(ImagePoint(960, 720), ImagePoint(960, 420), cam)
        assert w.x == pytest.approx(1.1)
        assert w.y == pytest.approx(0.0, abs=1e-12)

    def test_side_axis(self, cam):
        w = localize(ImagePoint(480, 720), ImagePoint(480, 420), cam)
        assert w.x == pytest.approx(0.0, abs=1e-12)
        assert w.y == pytest.approx(1.1)
        assert w.z == pytest.approx(1.4188036041176237)

    def test_ankle_above_horizon(self, cam):
        with pytest.raises(AboveHorizonError):
            localize(ImagePoint(960, 400), ImagePoint(960, 300), cam)


class TestWorldToImage:
    def test_forward_ankle(self, cam):
        p = world_to_image(WorldPoint(1.1, 0.0, 0.1), cam)
        assert p.x == pytest.approx(960.0)
        assert p.y == pytest.approx(720.0)

    def test_side_at_camera_height(self, cam):
        p = world_to_image(WorldPoint(0.0, 1.1, 1.2), cam)
        assert p.x == pytest.approx(480.0)
        assert p.y == pytest.approx(480.0)

    def test_singular_on_axis(self, cam):
        with pytest.raises(GeometryError):
            world_to_image(WorldPoint(0.0, 0.0, 1.0), cam)

    def test_round_trip_column(self, cam):
        ankle = ImagePoint(1234.5, 700.0)
        neck = ImagePoint(1234.5, 430.0)
        w = localize(ankle, neck, cam)
        back = world_to_image(WorldPoint(w.x, w.y, cam.ankle_height), cam)
        assert back.x == pytest.approx(ankle.x, abs=1e-6)
        assert back.y == pytest.approx(ankle.y, abs=1e-6)

    @given(
        theta=st.floats(min_value=-179.99, max_value=180.0),
        rho=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=300)
    def test_round_trip_polar(self, theta, rho):
        cam = CameraModel()
        t = math.radians(theta)
        w = WorldPoint(rho * math.cos(t), rho * math.sin(t), cam.ankle_height)
        p = world_to_image(w, cam)
        pol = image_to_polar(p, cam)
        r = ground_range(pol.phi, cam)
        assert r == pytest.approx(rho, rel=1e-9)
        assert signed_wrap_diff(pol.theta, theta, 360.0) == pytest.approx(
            0.0, abs=1e-9
        )


def wrap_distance(p1, p2, image_width):
    """The image distance between two pixels, the column measured the
    short way around the seam, as the tracker's gated distance gives it
    with no limit."""
    a, b = np.array([p1], dtype=float), np.array([p2], dtype=float)
    got = _wrap_distances(a, b, image_width, math.inf)
    return float(got[0, 0])


class TestWrapDistance:
    def test_seam_crossing(self):
        assert wrap_distance(ImagePoint(10, 100), ImagePoint(1910, 100), 1920) == (
            pytest.approx(20.0)
        )

    def test_identity(self):
        assert wrap_distance(ImagePoint(55, 66), ImagePoint(55, 66), 1920) == 0.0

    def test_pure_vertical(self):
        assert wrap_distance(ImagePoint(100, 0), ImagePoint(100, 50), 1920) == (
            pytest.approx(50.0)
        )

    @given(
        x1=st.floats(min_value=0, max_value=1920),
        y1=st.floats(min_value=0, max_value=960),
        x2=st.floats(min_value=0, max_value=1920),
        y2=st.floats(min_value=0, max_value=960),
        k=st.integers(min_value=-3, max_value=3),
    )
    def test_symmetry_bound_periodicity(self, x1, y1, x2, y2, k):
        p1, p2 = ImagePoint(x1, y1), ImagePoint(x2, y2)
        d = wrap_distance(p1, p2, 1920)
        assert d == wrap_distance(p2, p1, 1920)
        assert d <= math.hypot(960, 960) + 1e-9
        shifted = (
            ImagePoint(x1 + k * 1920, y1),
            ImagePoint(x2 + k * 1920, y2),
        )
        assert wrap_distance(*shifted, 1920) == pytest.approx(d, abs=1e-6)

    def test_zero_iff_coincident_mod_width(self):
        assert wrap_distance(ImagePoint(0, 5), ImagePoint(1920, 5), 1920) == 0.0
        assert wrap_distance(ImagePoint(0, 5), ImagePoint(1, 5), 1920) > 0.0


class TestSensitivity:
    def test_zero_pixel_error(self, cam):
        for d in (1.0, 2.0, 5.0):
            assert localization_sensitivity(d, 0.0, cam) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_two_meters_five_px(self, cam):
        # oracle: evaluate the polar chain at rows y and y - 5
        assert localization_sensitivity(2.0, 5.0, cam) == pytest.approx(
            0.07988218737582331
        )

    def test_monotone_in_distance(self, cam):
        assert localization_sensitivity(6.0, 5.0, cam) > localization_sensitivity(
            2.0, 5.0, cam
        )

    def test_monotone_grid(self, cam):
        distances = [1.0, 2.0, 3.0, 5.0, 8.0]
        errors = [0.0, 1.0, 3.0, 5.0, 10.0]
        def nondecreasing(vals):
            return all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

        for e in errors:
            assert nondecreasing(
                [localization_sensitivity(d, e, cam) for d in distances]
            )
        for d in distances:
            assert nondecreasing(
                [localization_sensitivity(d, e, cam) for e in errors]
            )

    def test_saturates_at_horizon(self, cam):
        # at 8 m the ankle ray is 7.83 deg below horizon = ~42 rows
        assert localization_sensitivity(8.0, 500.0, cam) == math.inf

    def test_invalid_args(self, cam):
        with pytest.raises(GeometryError):
            localization_sensitivity(0.0, 1.0, cam)
        with pytest.raises(GeometryError):
            localization_sensitivity(2.0, -1.0, cam)


class TestWrapHelpers:
    @pytest.mark.parametrize(
        "theta,expected",
        [(180.0, 180.0), (-180.0, 180.0), (190.0, -170.0), (0.0, 0.0), (540.0, 180.0)],
    )
    def test_wrap_degrees(self, theta, expected):
        assert wrap_degrees(theta) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "a,b,expected",
        [(5.0, 1915.0, 10.0), (1915.0, 5.0, -10.0), (100.0, 90.0, 10.0), (0.0, 960.0, 960.0)],
    )
    def test_signed_wrap_diff(self, a, b, expected):
        assert signed_wrap_diff(a, b, 1920.0) == pytest.approx(expected)

    def test_cyclic_interval_overlap_plain(self):
        assert cyclic_interval_overlap(0, 100, 50, 100, 1920) == pytest.approx(50)
        assert cyclic_interval_overlap(0, 100, 200, 50, 1920) == 0.0

    def test_cyclic_interval_overlap_seam(self):
        # [1900, 1960) wraps into [1900, 1920) + [0, 40); [20, 50) meets the tail
        assert cyclic_interval_overlap(1900, 60, 20, 30, 1920) == pytest.approx(20)
        assert cyclic_interval_overlap(20, 30, 1900, 60, 1920) == pytest.approx(20)

    def test_cyclic_interval_overlap_two_arcs(self):
        # wide intervals can overlap at both ends of the seam
        assert cyclic_interval_overlap(0, 1000, 900, 1120, 1920) == pytest.approx(
            200
        )


@st.composite
def touching_intervals(draw):
    """(period, a_start, a_len, b_start, b_len): a starts anywhere; b
    starts where a ends, to within a few rounding steps, on either side
    of the seam too. Quotients by primes round, so the centre
    differences do too."""
    period = draw(st.sampled_from([360.0, 1920.0]))
    a_start = (draw(st.integers(-30_000, 2_000_000)) / 9973) % period
    a_len, b_len = (draw(st.integers(1, 60_000)) / 997 for _ in range(2))
    steps = draw(st.integers(-3, 3))
    b_start = (a_start + a_len) % period
    for _ in range(abs(steps)):
        b_start = math.nextafter(b_start, math.copysign(math.inf, steps))
    return period, a_start, a_len, b_start, b_len


class TestCyclicIntervalOverlap:
    def test_touching_intervals_do_not_overlap(self):
        # [0, 100) and [100, 150) share only the edge
        assert cyclic_interval_overlap(0, 100, 100, 50, 1920) == 0.0
        assert cyclic_interval_overlap(100, 50, 0, 100, 1920) == 0.0
        assert cyclic_interval_overlap(-10.0, 5.0, -5.0, 1e-9, 360.0) == 0.0

    def test_across_the_seam(self):
        # [1900, 1940) wraps to [1900, 1920) + [0, 20) and meets [10, 30)
        assert cyclic_interval_overlap(1900, 40, 10, 20, 1920) > 0
        assert cyclic_interval_overlap(10, 20, 1900, 40, 1920) > 0
        # [1900, 1910) and [30, 40) are 40 px apart the short way round
        assert cyclic_interval_overlap(1900, 10, 30, 10, 1920) == 0.0
        assert cyclic_interval_overlap(-20, 10, 30, 10, 1920) == 0.0
        # azimuths: [178, 182) wraps past +-180 and meets [-179, -178)
        assert cyclic_interval_overlap(178.0, 4.0, -179.0, 1.0, 360.0) > 0

    def test_touching_across_the_seam_is_one_answer(self):
        # [1905.43..., +15.24...) ends about where [0.67..., +11.49...)
        # starts, past the seam; measured in the order given, the overlap
        # was 0.0 one way and 7.3e-14 the other
        a, b = (1905.4308896809753, 15.245737211634905), (0.676626892610102, 11.490471414242728)
        assert cyclic_interval_overlap(*a, *b, 1920.0) == cyclic_interval_overlap(*b, *a, 1920.0)

    @given(touching_intervals(), st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    @settings(max_examples=300, deadline=None)  # about 0.6 s on a 2-CPU VM
    def test_swapping_the_intervals_never_changes_it(self, case, a_row, b_row):
        period, a_start, a_len, b_start, b_len = case
        a, b = (a_start, a_len), (b_start, b_len)
        overlap = cyclic_interval_overlap(*a, *b, period)
        assert overlap.hex() == cyclic_interval_overlap(*b, *a, period).hex()
        # and so the containment score of boxes with these extents
        boxes = ((a_start, a_row, a_len, 50.0), (b_start, b_row, b_len, 30.0))
        assert merge_score(*boxes, period).hex() == merge_score(*boxes[::-1], period).hex()


PERIODS = st.sampled_from([360.0, 1920.0]) | st.floats(1.0, 1e6)


def keys_in(period):
    """Points in [0, period), its ends and its middle among them."""
    return st.floats(0.0, period, exclude_max=True) | st.sampled_from(
        [0.0, 5e-324, math.nextafter(period, 0.0), 0.5 * period]
    )


@st.composite
def windows(draw):
    """Sorted keys in [0, period), a centre anywhere (on a key, beside
    the seam or past either end of the circle) and a reach from 0 to
    past half the period; a centre beside the seam with a reach beyond
    it makes a window that straddles the seam."""
    period = draw(PERIODS)
    keys = sorted(draw(st.lists(keys_in(period), max_size=20)))
    seam = [0.0, -1e-9, 1e-9, period, math.nextafter(period, 0.0), -period, 2.0 * period]
    centre = draw(
        st.floats(-2.0 * period, 2.0 * period)
        | st.sampled_from(seam)
        | st.sampled_from(keys or [0.0])
    )
    reach = draw(
        st.floats(0.0, 0.6 * period)
        | st.sampled_from([0.0, 0.5 * period, math.nextafter(0.5 * period, 0.0)])
        | st.sampled_from(keys or [0.0]).map(lambda k: abs(k - centre % period))
    )
    return keys, centre, reach, period


def exact_cyclic_distance(a, b, period):
    d = (Fraction(a) - Fraction(b)) % Fraction(period)
    return min(d, Fraction(period) - d)


def shifted(keys, period):
    """The sorted keys a period below, as they are and a period above,
    as ``cyclic_neighbours`` hands them to ``_cyclic_window``."""
    return [k - period for k in keys] + keys + [k + period for k in keys]


class TestCyclicWindow:
    @given(windows())
    @settings(max_examples=100, deadline=None)  # about 0.7 s on a 2-CPU VM
    def test_holds_every_key_within_reach_once(self, case):
        keys, centre, reach, period = case
        window = list(_cyclic_window(shifted(keys, period), centre, reach, period))
        # no position twice
        assert len(window) == len(set(window))
        assert all(0 <= k < len(keys) for k in window)
        inside = {
            k for k, key in enumerate(keys)
            if exact_cyclic_distance(key, centre, period) <= Fraction(reach)
        }
        assert inside <= set(window)
        if 2.0 * reach < period:
            # a pre-filter: nothing further than the reach and a slack of 1e-9 periods
            bound = Fraction(reach) + Fraction(2e-9) * Fraction(period)
            assert all(exact_cyclic_distance(keys[k], centre, period) <= bound for k in window)

    def test_window_straddling_the_seam(self):
        keys = [1.0, 10.0, 180.0, 350.0, 359.5]
        keys3 = shifted(keys, 360.0)
        # in the order of the shifted keys: those below the seam first
        assert list(_cyclic_window(keys3, 355.0, 8.0, 360.0)) == [3, 4, 0]
        assert list(_cyclic_window(keys3, 2.0, 5.0, 360.0)) == [4, 0]
        assert list(_cyclic_window(keys3, 180.0, 1.0, 360.0)) == [2]
        assert list(_cyclic_window(keys3, 90.0, 180.0, 360.0)) == [0, 1, 2, 3, 4]
        assert list(_cyclic_window([], 90.0, 1.0, 360.0)) == []

    def test_a_window_short_of_the_period_holds_no_key_twice(self):
        # 2 * reach, padded by the slack, falls short of the period by
        # less than the slack: the window across from key 0 would reach
        # both its copies
        keys = [563.863521991873, 833.2077313035295, 1551.9189455659302]
        window = list(_cyclic_window(shifted(keys, 1920.0), -396.136478008127, 959.9999980799998, 1920.0))
        assert sorted(window) == [0, 1, 2]


@st.composite
def neighbour_cases(draw):
    """Query intervals and intervals on one circle: starts from
    ``windows``' keys, shifted a period either way or not, so some lie
    below 0 or past the period, and lengths from 0 to the whole period;
    and a query that starts where an interval ends, to within a few
    rounding steps."""
    period = draw(PERIODS)
    start = st.builds(
        lambda key, shift: key + shift * period, keys_in(period), st.sampled_from([-1, 0, 0, 1])
    )
    length = st.floats(0.0, 0.1 * period) | st.floats(0.0, period) | st.sampled_from(
        [0.0, 0.5 * period, period]
    )
    interval = st.tuples(start, length)
    queries = draw(st.lists(interval, max_size=6))
    intervals = draw(st.lists(interval, max_size=6))
    if intervals:
        b_start, b_len = draw(st.sampled_from(intervals))
        q_start = b_start + b_len
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            q_start = math.nextafter(q_start, math.copysign(math.inf, steps))
        queries.append((q_start, draw(length)))
    return queries, intervals, period


def both_ways(a, b, period):
    """Each of two intervals a query and an interval: one of the two
    queries is the shorter, whose window has no room to spare."""
    return [a, b], [b, a], period


def touching_neighbour_cases():
    return touching_intervals().map(lambda c: both_ways((c[1], c[2]), (c[3], c[4]), c[0]))


class TestCyclicNeighbours:
    @given(neighbour_cases() | touching_neighbour_cases())
    # touching intervals beside the seam that overlap by a rounding
    # step: without the window's slack, the first query misses its
    # neighbour here, and the second there
    @example(both_ways((358.69026371202244, 2.6890672016048143), (1.3793309136272562, 39.954864593781345), 360.0))
    @example(both_ways((1919.6172666198736, 11.72517552657974), (11.342442146453326, 0.1283851554663992), 1920.0))
    @settings(max_examples=300, deadline=None)  # about 1 s on a 2-CPU VM
    def test_returns_every_overlapping_interval_once(self, case):
        queries, intervals, period = case
        near = cyclic_neighbours(queries, intervals, period)
        assert len(near) == len(queries)
        for (q_start, q_len), found in zip(queries, near):
            assert len(set(found)) == len(found)
            assert all(0 <= k < len(intervals) for k in found)
            for k, (start, length) in enumerate(intervals):
                if cyclic_interval_overlap(q_start, q_len, start, length, period) > 0:
                    assert k in found

    def test_sweeps_across_the_seam(self):
        # centres 5, 95, 355 and 180 degrees
        intervals = [(0.0, 10.0), (90.0, 10.0), (350.0, 10.0), (170.0, 20.0)]
        near = cyclic_neighbours([(358.0, 4.0), (-5.0, 10.0), (250.0, 1.0)], intervals, 360.0)
        assert sorted(near[0]) == [0, 2]
        assert sorted(near[1]) == [0, 2]
        assert near[2] == []
