import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panotrack.detect import (
    JOINT_NAMES,
    NO_PIXEL,
    TORSO_JOINTS,
    RoiConfig,
    TilesConfig,
    build_tiles,
    check_detection,
    check_joint,
    check_joint_names,
    default_row_range,
    dereference,
    fuse_duplicates,
    fullframe_viewport,
    merge_score,
    pixel_row,
    reference_x,
    roi_viewport,
    run_viewports,
    torso_bbox,
)
from panotrack.exceptions import ConfigError, DegenerateSkeletonError
from panotrack.geometry import CameraModel, ImagePoint
from panotrack.pipeline import StrategyRunner


H = 960  # rows of the default camera
W = 1920  # columns of the default camera


def torso(cx, cy, w=20.0, h=50.0, conf=1.0, extra=()):
    """Detection with a torso box of roughly w x h centered near (cx, cy)."""
    joints = {
        "neck": (cx, cy - h / 2, conf),
        "left_shoulder": (cx - w / 2, cy - h / 2 + 5, conf),
        "right_shoulder": (cx + w / 2, cy - h / 2 + 5, conf),
        "left_hip": (cx - w / 4, cy + h / 2, conf),
        "right_hip": (cx + w / 4, cy + h / 2, conf),
    }
    for name in extra:
        joints[name] = (cx, cy + h, conf)
    return check_detection(joints, H)


def reference_check_detection(joints, image_height):
    """``check_detection`` as it was when it normalized every detection
    into a new object."""
    check_joint_names(joints)
    out = {}
    for name, v in sorted(joints.items()):
        confidence = check_joint(*v)
        if not 0 <= v[1] <= image_height:
            raise ConfigError(f"joint row {v[1]} is outside the image rows [0, {image_height}]")
        out[name] = [v[0], v[1], confidence]
    return out


@st.composite
def detection_forms(draw):
    """A valid detection whose joints each take one of the forms a
    detector may write: the normal [x, y, float] list, a tuple, an
    (x, y) pair as a list or a tuple, an integer confidence or integer
    coordinates; the names in order or shuffled."""
    names = draw(st.lists(st.sampled_from(JOINT_NAMES), min_size=1, unique=True))
    joints = []
    for name in names:
        x, y = draw(st.floats(0.0, 1920.0, exclude_max=True)), draw(st.floats(0.0, float(H)))
        c = draw(st.floats(0.0, 1.0))
        form = draw(st.sampled_from(["normal", "tuple", "pair", "pair_tuple", "int_c", "int_xy"]))
        joints.append((name, {
            "normal": [x, y, c],
            "tuple": (x, y, c),
            "pair": [x, y],
            "pair_tuple": (x, y),
            "int_c": [x, y, draw(st.sampled_from([0, 1]))],
            "int_xy": [int(x), int(y), c],
        }[form]))
    if draw(st.booleans()):
        joints.sort()
    return dict(joints)


# one broken value for each slot of a normal [x, y, confidence] joint:
# non-finite, outside its range, a bool or a str, and integer confidences
BROKEN_VALUES = (
    [math.nan, math.inf, -math.inf, True, False, "960"],
    [math.nan, math.inf, -math.inf, -0.5, -5e-324, H + 0.5, math.nextafter(H, math.inf), True, "400"],
    [math.nan, math.inf, -0.5, -5e-324, 1.5, math.nextafter(1.0, 2.0), True, False, "1", 0, 1],
)


@st.composite
def broken_normal_forms(draw):
    """A detection in normal form, names in order and each joint an
    [x, y, float] list, with one value of one joint replaced by one of
    ``BROKEN_VALUES``."""
    names = sorted(draw(st.lists(st.sampled_from(JOINT_NAMES), min_size=1, unique=True)))
    joints = {
        name: [
            draw(st.floats(0.0, 1920.0, exclude_max=True)),
            draw(st.floats(0.0, float(H))),
            draw(st.floats(0.0, 1.0)),
        ]
        for name in names
    }
    slot = draw(st.integers(0, 2))
    joints[draw(st.sampled_from(names))][slot] = draw(st.sampled_from(BROKEN_VALUES[slot]))
    return joints


def ankles(left, right):
    """Joints with the given ankles, each a pixel or None for absent."""
    return {name: p for name, p in (("left_ankle", left), ("right_ankle", right)) if p is not None}


def reference_pixel_row(joints, image_width):
    """The reference for ``pixel_row``: the wrap-aware ankle midpoint as
    an ``ImagePoint``, then the neck, NaN where absent. Two columns whose
    sum no float holds meet at the sum of their halves."""

    def ankle_midpoint(a, b):
        if a is None or b is None:
            one = a or b
            return None if one is None else ImagePoint(one[0], one[1])
        dx = abs(a[0] - b[0])
        bx = b[0] + image_width if dx > image_width / 2 and b[0] < a[0] else b[0]
        ax = a[0] + image_width if dx > image_width / 2 and a[0] < b[0] else a[0]
        try:
            overflows = math.isinf(float(ax + bx))
        except OverflowError:
            overflows = True
        mid = ax / 2 + bx / 2 if overflows else (ax + bx) / 2.0
        return ImagePoint(mid % image_width, (a[1] + b[1]) / 2.0)

    ankle = ankle_midpoint(joints.get("left_ankle"), joints.get("right_ankle")) or NO_PIXEL
    neck = joints.get("neck") or NO_PIXEL
    return (ankle[0], ankle[1], neck[0], neck[1])


# columns on [0, W), beside the seam, one or more widths outside
# [0, W), and at the ends of the finite floats; rows on [0, H]
pixel_columns = st.one_of(
    st.floats(0.0, W, exclude_max=True),
    st.floats(W - 8.0, W, exclude_max=True),
    st.floats(0.0, 8.0),
    st.builds(lambda x, k: x + k * W, st.floats(0.0, W), st.integers(-3, 3)),
    st.floats(-1e308, 1e308),
    st.sampled_from([1e308, -1e308, W, -W]),
    st.integers(-2 * W, 3 * W),
)
pixel_rows = st.floats(0.0, H) | st.sampled_from([0.0, float(H), 0, H])


@st.composite
def pixel_joints(draw):
    """Joints with any of the ankles and the neck, each drawn from
    ``pixel_columns`` and ``pixel_rows`` with or without a confidence;
    a right ankle is drawn near the seam's other side half the time."""
    joints = {}
    for name in ("left_ankle", "right_ankle", "neck"):
        if draw(st.booleans()):
            x = draw(pixel_columns)
            if name == "right_ankle" and "left_ankle" in joints and draw(st.booleans()):
                # the other side of the seam from the left ankle
                x = joints["left_ankle"][0] + draw(st.sampled_from([-1, 1])) * (
                    W - draw(st.floats(0.0, 16.0))
                )
            point = [x, draw(pixel_rows)]
            if draw(st.booleans()):
                point.append(1.0)
            joints[name] = point
    return joints


class TestSkeleton:
    """``check_detection``, the one rule for a detection's joints."""

    def test_requires_joints(self):
        with pytest.raises(DegenerateSkeletonError):
            check_detection({}, H)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            check_detection({"elbow": (1, 2)}, H)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ConfigError):
            check_detection({"neck": (1, 2, 1.5)}, H)

    @pytest.mark.parametrize(
        "joint", [(math.nan, 2), (1, math.nan), (math.inf, 2), (1, -math.inf), (1, 2, math.nan)]
    )
    def test_rejects_non_finite(self, joint):
        with pytest.raises(ConfigError):
            check_detection({"neck": joint}, H)

    @pytest.mark.parametrize("point", [(3, 4.5), [3, 4.5], ImagePoint(3, 4.5)])
    def test_joint_accepts_tuple_list_or_image_point(self, point):
        assert check_detection({"neck": point}, H) == {"neck": [3, 4.5, 1.0]}
        assert check_detection({"neck": (*point, 0.5)}, H) == {"neck": [3, 4.5, 0.5]}

    @pytest.mark.parametrize(
        "wrap", [tuple, list, lambda p: ImagePoint(*p)], ids=["tuple", "list", "image_point"]
    )
    @pytest.mark.parametrize("point", [(math.nan, 2), (1, math.inf)])
    def test_joint_rejects_non_finite_in_any_form(self, wrap, point):
        with pytest.raises(ConfigError):
            check_detection({"neck": wrap(point)}, H)

    @pytest.mark.parametrize("row", [-0.5, -1, H + 0.5, 5000])
    def test_rejects_rows_outside_the_image(self, row):
        with pytest.raises(ConfigError, match="outside the image rows"):
            check_detection({"neck": (960, 400), "left_ankle": (955, row)}, H)

    @pytest.mark.parametrize("row", [0, 0.0, H, float(H)])
    def test_accepts_rows_on_the_image_edge(self, row):
        assert check_detection({"neck": (960, row)}, H) == {"neck": [960, row, 1.0]}

    def test_normalizes_names_confidence_and_keeps_coordinates(self):
        out = check_detection({"right_hip": (7, 8.5, 1), "neck": [True, 400]}, H)
        assert out == {"neck": [True, 400, 1.0], "right_hip": [7, 8.5, 1.0]}
        assert list(out) == ["neck", "right_hip"]
        assert [type(v) for v in out["right_hip"]] == [int, float, float]

    @settings(max_examples=300, deadline=None)  # about 1.6 s on a 2-CPU VM
    @given(detection_forms() | broken_normal_forms())
    def test_normal_detection_is_returned_itself(self, joints):
        """A normal detection, names in order and each joint an [x, y,
        float] list, comes back as the same object; any other form comes
        back as a new object with the JSON of the full normalization,
        and a detection that breaks a rule raises the error of the full
        check, of the same type and with the same message. The input is
        never changed."""
        before = copy.deepcopy(joints)
        try:
            expected = reference_check_detection(copy.deepcopy(joints), H)
        except (ConfigError, TypeError) as exc:
            with pytest.raises(type(exc)) as info:
                check_detection(joints, H)
            assert str(info.value) == str(exc)
        else:
            out = check_detection(joints, H)
            normal = list(joints) == sorted(joints) and all(
                type(v) is list and len(v) == 3 and type(v[2]) is float for v in joints.values()
            )
            assert (out is joints) == normal
            assert json.dumps(out) == json.dumps(expected)
        assert list(joints) == list(before) and joints == before

    def test_ankle_midpoint_plain(self):
        assert pixel_row(ankles((100, 700), (120, 710)), 1920)[:2] == pytest.approx((110, 705))

    def test_ankle_midpoint_single(self):
        assert pixel_row(ankles((100, 700), None), 1920)[:2] == pytest.approx((100, 700))
        assert pixel_row(ankles(None, (100, 700)), 1920)[:2] == pytest.approx((100, 700))

    def test_ankle_midpoint_wraps(self):
        assert pixel_row(ankles((1918, 700), (2, 700)), 1920)[0] == pytest.approx(0.0)
        assert pixel_row(ankles((2, 700), (1918, 700)), 1920)[0] == pytest.approx(0.0)

    def test_ankle_midpoint_absent(self):
        assert all(math.isnan(v) for v in pixel_row(ankles(None, None), 1920)[:2])

    @settings(max_examples=400, deadline=None)
    @given(pixel_joints())
    # ankles straddling the seam, each side first, and the neck absent
    @example({"left_ankle": (1915.0, 700.0), "right_ankle": (5.0, 702.0)})
    @example({"left_ankle": (5, 702), "right_ankle": (1915, 700), "neck": (2, 300)})
    # ankles exactly half the width apart, which do not wrap
    @example({"left_ankle": (100.0, 700.0), "right_ankle": (1060.0, 700.0)})
    # a width below and above [0, W), and sums that overflow
    @example({"left_ankle": (-1920.0, 700.0), "right_ankle": (3845.5, 700.0)})
    @example({"left_ankle": (1e308, 700.0), "right_ankle": (1e308, 0.0), "neck": (-1e308, 960)})
    @example({"left_ankle": (10**308, 700), "right_ankle": (10**308 + 1, 0), "neck": (-1e308, 960)})
    def test_pixel_row_is_the_reference_bit_for_bit(self, joints):
        got, ref = pixel_row(joints, W), reference_pixel_row(joints, W)
        assert [type(v) for v in got] == [type(v) for v in ref]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]


class TestBuildTiles:
    def test_reference_layout(self, cam):
        viewports = build_tiles(cam, TilesConfig(n_tiles=3, overlap=150))
        xs = [(vp.origin_x, vp.width) for vp in viewports]
        assert xs == [(0, 790), (640, 790), (1280, 790)]
        # all cyclic pairs, including the seam pair, overlap by 150
        for i in range(3):
            a = viewports[i]
            b = viewports[(i + 1) % 3]
            lo = (b.origin_x - a.origin_x) % 1920
            assert a.width - lo == pytest.approx(150)

    def test_zero_overlap_partitions(self, cam):
        viewports = build_tiles(cam, TilesConfig(n_tiles=3, overlap=0))
        assert [vp.width for vp in viewports] == [640, 640, 640]

    def test_small_instance(self):
        cam = CameraModel(image_width=100, image_height=50, mount_height=1.2)
        viewports = build_tiles(cam, TilesConfig(n_tiles=2, overlap=10, row_range=(0, 50)))
        assert [(vp.origin_x, vp.width) for vp in viewports] == [
            (0, 60),
            (50, 60),
        ]

    def test_row_range_default(self, cam):
        viewports = build_tiles(cam, TilesConfig())
        vp = viewports[0]
        assert (vp.origin_y, vp.origin_y + vp.height) == (160, 800)
        assert default_row_range(cam) == (160, 800)

    def test_full_column_coverage(self, cam):
        viewports = build_tiles(cam, TilesConfig(n_tiles=3, overlap=150))
        for x in range(0, 1920, 7):
            assert any(vp.contains_column(x, 1920) for vp in viewports)

    @pytest.mark.parametrize("kwargs", [{"n_tiles": 1}, {"overlap": 700}, {"overlap": -1}])
    def test_invalid(self, cam, kwargs):
        # the config checks the bounds that need no camera, build_tiles the rest
        with pytest.raises(ConfigError):
            build_tiles(cam, TilesConfig(**kwargs))


class TestTorsoBbox:
    def test_basic(self):
        sk = {
            "neck": (100, 50),
            "left_shoulder": (90, 60),
            "right_shoulder": (110, 60),
            "left_hip": (95, 100),
            "right_hip": (105, 100),
        }
        assert torso_bbox(sk, 1920) == (90, 50, 20, 50)

    def test_degenerate_cluster_clamped(self):
        sk = {"neck": (100, 50), "left_shoulder": (100, 50)}
        _, _, w, h = torso_bbox(sk, 1920)
        assert w == 1.0 and h == 1.0

    def test_wraps_at_seam(self):
        sk = {"neck": (1910, 50), "left_shoulder": (10, 60), "left_hip": (1915, 90)}
        x, _, w, _ = torso_bbox(sk, 1920)
        assert x == pytest.approx(1910)
        assert w == pytest.approx(20)

    def test_insufficient_joints(self):
        assert torso_bbox({"neck": (1, 2)}, 1920) is None
        assert torso_bbox({"left_shoulder": (1, 2), "right_shoulder": (3, 2)}, 1920) is None


class TestMergeScore:
    def test_identical(self):
        b = (10, 10, 50, 80)
        assert merge_score(b, b, 1920) == 1.0

    def test_disjoint(self):
        assert merge_score((0, 0, 10, 10), (500, 0, 10, 10), 1920) == 0.0

    def test_containment_saturates(self):
        big = (0, 0, 100, 100)
        small = (20, 20, 50, 50)
        assert merge_score(big, small, 1920) == 1.0

    def test_symmetric(self):
        b1 = (0, 0, 60, 60)
        b2 = (30, 30, 60, 60)
        assert merge_score(b1, b2, 1920) == merge_score(b2, b1, 1920)

    def test_touching_across_the_seam_scores_the_same_both_ways(self):
        # the boxes touch across the seam to within rounding; measured in
        # the order given, they scored 0.0 one way and 6.3e-15 the other
        a = (1905.4308896809753, 400.0, 15.245737211634905, 50.0)
        b = (0.676626892610102, 400.0, 11.490471414242728, 50.0)
        assert merge_score(a, b, 1920) == merge_score(b, a, 1920)

    def test_seam_crossing_boxes(self):
        b1 = (1900, 10, 40, 40)  # spans [1900, 20)
        b2 = (0, 10, 40, 40)
        expected = (20 * 40) / (40 * 40)
        assert merge_score(b1, b2, 1920) == pytest.approx(expected)


N_TILES = 3


class TestFuseDuplicates:
    def test_exact_duplicate_collapses(self, cam):
        sk = torso(700, 400)
        out = fuse_duplicates([(sk, 0), (sk, 1)], N_TILES, 1920, 0.9)
        assert len(out) == 1

    def test_distinct_people_retained(self, cam):
        a = torso(700, 400, w=60, h=90)
        b = torso(725, 430, w=20, h=30)  # partial overlap, score below 0.9
        score = merge_score(torso_bbox(a, 1920), torso_bbox(b, 1920), 1920)
        assert score < 0.9
        out = fuse_duplicates([(a, 0), (b, 1)], N_TILES, 1920, 0.9)
        assert len(out) == 2

    def test_transitive_chain(self, cam):
        # a~b and b~c above threshold; of 4 viewports, 0 and 2 are not
        # neighbours, so a and c meet only through b
        a = torso(700, 400)
        b = torso(701, 400)
        c = torso(702, 400)
        out = fuse_duplicates([(a, 0), (b, 1), (c, 2)], 4, 1920, 0.9)
        assert len(out) == 1

    def test_survivor_has_most_joints(self, cam):
        poor = torso(700, 400)
        rich = torso(700, 400, extra=("left_ankle", "right_ankle"))
        out = fuse_duplicates([(poor, 0), (rich, 1)], N_TILES, 1920, 0.9)
        assert out == [rich]

    def test_tie_breaks_on_confidence(self, cam):
        low = torso(700, 400, conf=0.5)
        high = torso(700, 400, conf=0.9)
        out = fuse_duplicates([(low, 0), (high, 1)], N_TILES, 1920, 0.9)
        assert out == [high]

    def test_same_viewport_never_merges(self, cam):
        sk = torso(700, 400)
        out = fuse_duplicates([(sk, 1), (sk, 1)], N_TILES, 1920, 0.9)
        assert len(out) == 2

    def test_non_adjacent_viewports_never_merge(self, cam):
        sk = torso(700, 400)
        out = fuse_duplicates([(sk, 0), (sk, 2)], 4, 1920, 0.9)
        assert len(out) == 2

    def test_never_invents_detections(self, cam):
        dets = [(torso(600 + 30 * i, 400), i % 3) for i in range(7)]
        out = fuse_duplicates(dets, N_TILES, 1920, 0.9)
        assert len(out) <= len(dets)
        assert all(any(sk is d for d, _ in dets) for sk in out)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, data):
        n = data.draw(st.integers(min_value=0, max_value=8))
        dets = []
        for _ in range(n):
            cx = data.draw(st.floats(min_value=0, max_value=1919))
            cy = data.draw(st.floats(min_value=100, max_value=800))
            w = data.draw(st.floats(min_value=5, max_value=120))
            vp = data.draw(st.integers(min_value=0, max_value=2))
            dets.append((torso(cx, cy, w=w), vp))
        once = fuse_duplicates(dets, N_TILES, 1920, 0.9)
        # survivors keep their source viewport for the second pass
        tagged = []
        for sk in once:
            src = next(v for s, v in dets if s is sk)
            tagged.append((sk, src))
        twice = fuse_duplicates(tagged, N_TILES, 1920, 0.9)
        assert twice == once


def reference_fuse(dets, n_viewports, image_width, sigma1):
    """The fusion rule as an all-pairs loop: every pair of detections
    from viewports one step apart, cyclically, among ``n_viewports``
    whose torso boxes score >= sigma1 is grouped
    (union-find), each group keeps its best detection, and the survivors
    are ordered by (viewport index, anchor column)."""
    boxes = [torso_bbox(joints, image_width) for joints, _ in dets]
    parent = list(range(len(dets)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(dets)):
        for j in range(i + 1, len(dets)):
            vi, vj = dets[i][1], dets[j][1]
            if boxes[i] is None or boxes[j] is None:
                continue
            if vi == vj or (vj - vi) % n_viewports not in (1, n_viewports - 1):
                continue
            if merge_score(boxes[i], boxes[j], image_width) >= sigma1:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(dets)):
        groups.setdefault(find(i), []).append(i)

    def quality(i):
        joints, vp = dets[i]
        confidence = sum(v[2] for v in joints.values()) / len(joints)
        return (len(joints), confidence, -vp, -reference_x(joints))

    survivors = sorted(
        (max(g, key=quality) for g in groups.values()),
        key=lambda i: (dets[i][1], reference_x(dets[i][0])),
    )
    return [dets[i][0] for i in survivors]


# columns on, just beside and past the seam of a 1920 px panorama; the
# small columns right of the seam are where the sum of a column and a
# half-width rounds furthest from the true centre
SEAM_COLUMNS = [0.0, 1e-9, -1e-9, 1919.999999999, 1920.0 - 1e-12, 1920.0, 2000.0, -80.0]
COLUMNS = st.one_of(
    st.floats(-100.0, 2020.0), st.floats(0.0, 100.0), st.sampled_from(SEAM_COLUMNS)
)
ROWS = st.floats(0.0, H)
# plans of 1 to 6 viewports: the fullframe pass, roi's (full frame, crop)
# pair, and the tiles plans of 2 to 6 tiles
VIEWPORT_COUNTS = range(1, 7)
# merge thresholds down to the smallest positive float, at which a pair
# whose boxes overlap by one rounding step merges
THRESHOLDS = st.one_of(
    st.just(5e-324),
    st.sampled_from([1e-300, 1e-15, 1e-9, 0.5, 0.9, 1.0]),
    st.floats(1e-9, 1.0),
)


def nudge(x, steps):
    """x moved by ``steps`` floating-point steps (down when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def free_torso(draw):
    """Torso joints anywhere: spreads past half the width make boxes
    that straddle the seam or are wider than half the image; about one
    in eight lacks the neck, which leaves no torso box."""
    names = draw(st.lists(st.sampled_from(TORSO_JOINTS[1:]), unique=True, max_size=4))
    if draw(st.integers(0, 7)):
        names.append("neck")
    if not names:
        names = ["neck"]
    left = draw(COLUMNS)
    spread = draw(st.one_of(st.floats(1.0, 50.0), st.floats(0.0, 2100.0)))
    column = st.floats(0.0, 1.0).map(lambda u: left + u * spread)
    confidence = st.floats(0.0, 1.0)
    return {n: (draw(column), draw(ROWS), draw(confidence)) for n in names}


@st.composite
def neighbour(draw, joints):
    """A copy of ``joints``, or a torso whose box touches its box's left
    or right edge to within a few floating-point steps, over the same
    rows."""
    box = torso_bbox(joints, 1920)
    if box is None:
        return dict(joints)
    x, y, w, h = box
    kind = draw(st.sampled_from(["copy", "right", "left"]))
    if kind == "copy":
        return dict(joints)
    width = draw(st.one_of(st.sampled_from([0.5, 1.0, 700.0, 1000.0]), st.floats(1.0, 50.0)))
    steps = draw(st.integers(-3, 3))
    if kind == "right":
        left = nudge(x + w, steps)
    else:
        left = nudge(x, steps) - width
    return {
        "neck": (left, y, 1.0),
        "left_hip": (left + width, y + h, 1.0),
    }


@st.composite
def fusion_cases(draw):
    n_viewports = draw(st.sampled_from(VIEWPORT_COUNTS))
    dets = []
    for _ in range(draw(st.integers(0, 10))):
        if dets and draw(st.booleans()):
            joints = draw(neighbour(draw(st.sampled_from(dets))[0]))
        else:
            joints = draw(free_torso())
        dets.append((check_detection(joints, H), draw(st.integers(0, n_viewports - 1))))
    return dets, n_viewports, draw(THRESHOLDS)


@st.composite
def touching_cases(draw):
    """A chain of small boxes right of the seam, each touching the one
    before it to within a few rounding steps, from alternating viewports
    of one pair. Columns and widths are quotients by primes, whose sums
    round, unlike the short binary fractions Hypothesis tends to draw."""
    left = draw(st.integers(0, 997_000)) / 9973
    dets = []
    for k in range(draw(st.integers(2, 8))):
        width = draw(st.integers(997, 49_850)) / 997
        joints = check_detection({"neck": (left, 400.0), "left_hip": (left + width, 450.0)}, H)
        dets.append((joints, k % 2))
        x, _, w, _ = torso_bbox(joints, 1920)
        left = nudge(x + w, draw(st.integers(-3, 3)))
    return dets, 2, draw(THRESHOLDS)


class TestPairSkip:
    """``fuse_duplicates`` skips the pairs whose box columns cannot
    overlap; it must fuse exactly as the all-pairs loop does."""

    @given(st.one_of(fusion_cases(), touching_cases()))
    @settings(max_examples=800, deadline=None)
    def test_matches_all_pairs_reference(self, case):
        dets, n_viewports, sigma1 = case
        out = fuse_duplicates(dets, n_viewports, 1920, sigma1)
        expected = reference_fuse(dets, n_viewports, 1920, sigma1)
        assert [id(d) for d in out] == [id(d) for d in expected]

    def test_touching_boxes_at_the_smallest_threshold(self):
        # [100, 150) and [150 - one step, 200) overlap by one rounding step
        a = check_detection({"neck": (100.0, 400.0), "left_hip": (150.0, 450.0)}, H)
        b = check_detection(
            {"neck": (math.nextafter(150.0, 0.0), 400.0), "left_hip": (200.0, 450.0)}, H
        )
        out = fuse_duplicates([(a, 0), (b, 1)], N_TILES, 1920, 5e-324)
        assert out == reference_fuse([(a, 0), (b, 1)], N_TILES, 1920, 5e-324)
        assert len(out) == 1

    @pytest.mark.parametrize("sigma1", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_threshold_outside_unit_interval(self, sigma1):
        # at 0 every adjacent pair would merge, even boxes that never meet
        with pytest.raises(ConfigError, match="sigma1"):
            fuse_duplicates([(torso(700, 400), 0)], N_TILES, 1920, sigma1)


class StubDetector:
    """Returns preset detections whose necks fall inside the viewport,
    in viewport-local processed coordinates."""

    def __init__(self, people, image_width=1920):
        self.people = people  # full-image joints objects
        self.image_width = image_width
        self.calls = []

    def detect(self, frame, viewport):
        self.calls.append(viewport)
        out = []
        for sk in self.people:
            if not viewport.contains_column(sk["neck"][0], self.image_width):
                continue
            local = {}
            for name, (x, y, c) in sk.items():
                lx = ((x - viewport.origin_x) % self.image_width) * viewport.scale
                ly = (y - viewport.origin_y) * viewport.scale
                local[name] = (lx, ly, c)
            out.append(local)
        return out


class FailingDetector(StubDetector):
    def __init__(self, people, fail_on, image_width=1920):
        super().__init__(people, image_width)
        self.fail_on = fail_on

    def detect(self, frame, viewport):
        if viewport.origin_x == self.fail_on:
            raise RuntimeError("detector crashed")
        return super().detect(frame, viewport)


def run_tiles(det, cam, cfg=TilesConfig()):
    return StrategyRunner("tiles", cam, det, tiles_cfg=cfg).detect(None, None)


def run_roi(det, cam, prediction, strategy="roi"):
    return StrategyRunner(strategy, cam, det).detect(None, prediction)


class TestRunTiles:
    def test_single_person_one_detection(self, cam):
        det = StubDetector([torso(960, 400)])
        res = run_tiles(det, cam)
        assert len(res.detections) == 1 and not res.partial

    def test_overlap_person_fused(self, cam):
        det = StubDetector([torso(700, 400)])
        res = run_tiles(det, cam)
        assert len(res.detections) == 1

    def test_seam_person_fused(self, cam):
        det = StubDetector([torso(10, 400)])
        res = run_tiles(det, cam)
        assert len(res.detections) == 1
        assert res.detections[0]["neck"][0] == pytest.approx(10.0, abs=1e-6)

    def test_two_tiles_fuse_both_overlaps(self, cam):
        # 2 tiles overlap twice, on [960, 1110) and across the seam on
        # [0, 150), and both overlaps are the one pair (0, 1)
        people = [torso(1000, 400), torso(50, 500)]
        det = StubDetector(people)
        res = run_tiles(det, cam, TilesConfig(n_tiles=2))
        assert len(det.calls) == 2
        assert sorted(d["neck"][0] for d in res.detections) == pytest.approx([50.0, 1000.0])

    def test_port_called_in_plan_order(self, cam):
        people = [torso(100, 300), torso(700, 400), torso(1500, 500)]
        viewports = build_tiles(cam, TilesConfig())
        for order in (viewports, viewports[::-1]):
            det = StubDetector(people)
            run_viewports(None, det, order, cam)
            assert det.calls == list(order)

    def test_partial_result_on_tile_failure(self, cam):
        # people at 300 (tile A only) and 1500 (tile C only); tile B fails
        people = [torso(300, 300), torso(1500, 400)]
        det = FailingDetector(people, fail_on=640)
        res = run_tiles(det, cam)
        assert res.partial
        assert 1 in res.errors and "crashed" in res.errors[1]
        assert len(res.detections) == 2  # other tiles still reported


class BadJointDetector(StubDetector):
    """Returns one detection with the neck ``bad_neck`` from the viewport
    at ``fail_on``, beside the detections of its people."""

    def __init__(self, people, fail_on, bad_neck):
        super().__init__(people)
        self.fail_on = fail_on
        self.bad_neck = bad_neck

    def detect(self, frame, viewport):
        out = super().detect(frame, viewport)
        if viewport.origin_x == self.fail_on:
            out.append({"neck": self.bad_neck})
        return out


class TestRunRoi:
    def test_no_target_single_pass(self, cam):
        det = StubDetector([])
        res = run_roi(det, cam, None)
        assert res.detections == []
        assert len(det.calls) == 1
        assert det.calls[0].scale == pytest.approx(640 / 1920)

    def test_fullframe_ignores_prediction(self, cam):
        det = StubDetector([torso(960, 400)])
        res = run_roi(det, cam, ImagePoint(960, 400), strategy="fullframe")
        assert det.calls == [fullframe_viewport(cam, RoiConfig())]
        assert len(res.detections) == 1

    def test_target_two_passes_fused(self, cam):
        det = StubDetector([torso(960, 400)])
        res = run_roi(det, cam, ImagePoint(960, 400))
        # the full frame, then the crop on the prediction
        assert det.calls == [
            fullframe_viewport(cam, RoiConfig()),
            roi_viewport(ImagePoint(960, 400), cam, RoiConfig()),
        ]
        assert len(res.detections) == 1

    def test_partial_result_on_crop_failure(self, cam):
        det = FailingDetector([torso(960, 400)], fail_on=960 - 288)
        res = run_roi(det, cam, ImagePoint(960, 400))
        assert res.partial
        assert list(res.errors) == [1] and "crashed" in res.errors[1]
        assert len(res.detections) == 1  # the full-frame pass still reported
        assert res.detections[0]["neck"][0] == pytest.approx(960.0, abs=1e-6)

    # a NaN column, or a column that overflows to infinity when
    # de-referenced from the downscaled pass
    @pytest.mark.parametrize("bad,bad_x", [(1, math.nan), (0, 1e308)])
    def test_non_finite_joint_fails_only_its_viewport(self, cam, bad, bad_x):
        origin = (0.0, 960 - 288)[bad]  # full frame, crop
        det = BadJointDetector([torso(960, 400)], origin, (bad_x, 5.0))
        res = run_roi(det, cam, ImagePoint(960, 400))
        assert list(res.errors) == [bad] and "finite" in res.errors[bad]
        assert len(res.detections) == 1

    # local rows that land below the image once de-referenced: 330 is
    # row 990 at the full pass's 1/3 scale; the crop starts at row 304
    @pytest.mark.parametrize("bad,bad_row", [(0, 330.0), (1, 700.0), (1, -310.0)])
    def test_out_of_image_row_fails_only_its_viewport(self, cam, bad, bad_row):
        origin = (0.0, 960 - 288)[bad]  # full frame, crop
        det = BadJointDetector([torso(960, 400)], origin, (100.0, bad_row))
        res = run_roi(det, cam, ImagePoint(960, 400))
        assert list(res.errors) == [bad] and "outside the image rows" in res.errors[bad]
        assert len(res.detections) == 1

    def test_roi_wraps_at_seam(self, cam):
        vp = roi_viewport(ImagePoint(20, 400), cam, RoiConfig())
        assert vp.origin_x == pytest.approx((20 - 288) % 1920)
        assert vp.width == 576
        assert vp.contains_column(20, 1920)
        assert vp.contains_column(1700, 1920)

    def test_roi_clamps_rows(self, cam):
        vp = roi_viewport(ImagePoint(500, 10), cam, RoiConfig())
        assert vp.origin_y == 0.0
        vp = roi_viewport(ImagePoint(500, 955), cam, RoiConfig())
        assert vp.origin_y == pytest.approx(960 - 192)

    def test_local_coordinates_dereference(self, cam):
        vp = fullframe_viewport(cam, RoiConfig())
        full = dereference({"neck": (10, 5)}, vp, cam)
        assert full["neck"] == pytest.approx([30.0, 15.0, 1.0])

