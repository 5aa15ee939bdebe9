import copy
import json
import math
import re
import struct

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panotrack.detect import JOINT_NAMES, Viewport, detection_pixels, run_viewports
from panotrack.exceptions import InputError
from panotrack.geometry import CameraModel, WorldPoint, row_at_height, world_to_image
from panotrack.io import (
    _decode_json, detections_from_record, detections_record, read_json, read_jsonl, tracks_record,
)
from panotrack.pipeline import run_offline
from panotrack.tracker import TrackTable

CAM = CameraModel()
W, H = CAM.image_width, CAM.image_height


def round_trip(detections):
    """A detections record read and written back, as `panotrack track`
    does with a detections JSONL input."""
    record = {"frame": 3, "t": 0.1, "detections": detections}
    (output,) = run_offline([record], CameraModel())
    return json.dumps(output.detections)


class TestDetectionsRecord:
    def test_bytes_pinned(self):
        line = round_trip(
            [
                {
                    "joints": {
                        "right_ankle": [7, 8.5, 0.25],
                        "neck": [1919, 400],
                        "left_ankle": [5, 6, 1],
                    }
                },
                {"joints": {"neck": [0.5, 401.25, 0.75]}},
            ]
        )
        assert line == (
            '{"frame": 3, "t": 0.1, "detections": ['
            '{"joints": {"left_ankle": [5, 6, 1.0], "neck": [1919, 400, 1.0], '
            '"right_ankle": [7, 8.5, 0.25]}}, '
            '{"joints": {"neck": [0.5, 401.25, 0.75]}}]}'
        )

    def test_integer_coordinates_stay_integers(self):
        joints = json.loads(round_trip([{"joints": {"neck": [12, 34, 0.5]}}]))["detections"][0]
        x, y, c = joints["joints"]["neck"]
        assert (type(x), type(y), type(c)) == (int, int, float)

    def test_two_element_joint_gets_full_confidence(self):
        joints = json.loads(round_trip([{"joints": {"neck": [12.5, 34]}}]))["detections"][0]
        assert joints["joints"]["neck"] == [12.5, 34, 1.0]

    def test_joint_names_come_out_sorted(self):
        names = ["right_hip", "neck", "left_shoulder", "left_ankle"]
        joints = {name: [10 * i, 400, 1.0] for i, name in enumerate(names)}
        out = json.loads(round_trip([{"joints": joints}]))["detections"][0]["joints"]
        assert list(out) == sorted(names)

    @pytest.mark.parametrize(
        "value",
        ["12", {"x": 1, "y": 2}, [1], [1, 2, 0.5, 9], None, 5],
        ids=["string", "dict", "one_element", "four_elements", "null", "number"],
    )
    def test_malformed_joint_value_raises_input_error(self, value):
        with pytest.raises(InputError):
            detections_from_record({"detections": [{"joints": {"neck": value}}]}, CAM)

    @pytest.mark.parametrize("detections", [{}, None, "x"], ids=["object", "null", "string"])
    def test_detections_not_a_list_raises_input_error(self, detections):
        with pytest.raises(InputError):
            detections_from_record({"detections": detections}, CAM)

    def test_joints_not_an_object_raises_input_error(self):
        with pytest.raises(InputError):
            detections_from_record({"detections": [{"joints": [[1, 2, 0.5]]}]}, CAM)

    @pytest.mark.parametrize("row", [-0.5, H + 0.5, 5000], ids=["above", "below", "far_below"])
    def test_row_outside_the_image_raises_input_error(self, row):
        record = {"detections": [{"joints": {"neck": [960, 400]}}, {"joints": {"neck": [960, row]}}]}
        with pytest.raises(InputError, match=f"joint row {row} is outside the image rows"):
            detections_from_record(record, CAM)

    def test_rows_on_the_image_edge_are_read(self):
        record = {"detections": [{"joints": {"neck": [960, 0]}}, {"joints": {"neck": [5, H]}}]}
        _, pix = detections_from_record(record, CAM)
        assert pix[:, 3].tolist() == [0.0, H]


class IdentityPort:
    """A detector port that returns the same joints for every viewport."""

    def __init__(self, joints):
        self.joints = joints

    def detect(self, frame, viewport):
        return [dict(j) for j in self.joints]


# valid joints with float coordinates, which a full-resolution viewport
# at the origin maps onto themselves, in any name order
port_column = st.floats(0.0, W, exclude_max=True)
port_row = st.floats(0.0, float(H))
port_joints = st.dictionaries(
    st.sampled_from(JOINT_NAMES[::-1]),
    st.one_of(
        st.tuples(port_column, port_row),
        st.tuples(port_column, port_row, st.floats(0.0, 1.0)),
    ),
    min_size=1,
)


class TestOneDetectionForm:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(port_joints, max_size=4))
    # ankles either side of the seam, one with a confidence
    @example([{"right_ankle": (3.5, 700.0), "neck": (1.0, 300.5), "left_ankle": (1915.5, 702.0, 0.5)}])
    def test_port_and_offline_record_agree(self, joints):
        """The same joints from a detector port through an identity
        viewport, and from an offline record, give the same detections
        line and the same pixel rows."""
        viewport = Viewport(0.0, 0.0, float(W), float(H), 1.0)
        live = run_viewports(None, IdentityPort(joints), (viewport,), CAM).detections
        record = {
            "frame": 3,
            "t": 0.5,
            "detections": [{"joints": {n: list(v) for n, v in j.items()}} for j in joints],
        }
        offline, pix = detections_from_record(record, CAM)
        assert json.dumps(detections_record(3, 0.5, live)) == json.dumps(
            {"frame": 3, "t": 0.5, "detections": offline}
        )
        assert detection_pixels(live, W).tobytes() == pix.tobytes()


def rarely(bad, good, one_in=20):
    """``bad`` once in about ``one_in`` draws, ``good`` otherwise."""
    return st.integers(0, one_in - 1).flatmap(lambda k: bad if k == 0 else good)


column = st.one_of(
    st.integers(-50, 2000),
    st.floats(-50.0, 2000.0),
    st.booleans(),
    st.floats(W - 20.0, W),  # beside the seam on either side
    st.floats(0.0, 20.0),
)
joint_row = rarely(
    st.sampled_from([-1, -0.5, -1e-9, H + 1e-9, H + 0.5, 5000]),  # outside the image
    st.one_of(
        st.integers(0, H), st.floats(0.0, float(H)), st.booleans(), st.sampled_from([0, H, float(H)])
    ),
    one_in=40,
)
confidence = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, False, True]))
not_a_number = st.sampled_from([math.nan, math.inf, "1", None, 10**400])
joint_value = rarely(
    st.one_of(
        st.tuples(not_a_number, joint_row),
        st.tuples(column, not_a_number),
        st.tuples(column, joint_row, st.sampled_from([math.nan, -0.5, 1.5, "1", None])),
        st.sampled_from([(1,), (1, 2, 0.5, 9), "12", "123", None, 5, {"x": 1, "y": 2}]),
    ),
    st.one_of(st.tuples(column, joint_row), st.tuples(column, joint_row, confidence)),
    one_in=40,
).map(lambda v: list(v) if isinstance(v, tuple) else v)
joint_name = rarely(st.just("nose"), st.sampled_from(JOINT_NAMES), one_in=40)
detection = rarely(
    st.sampled_from([[], None, {"joints": {}}, {"joints": []}, {"points": {}}]),
    st.fixed_dictionaries(
        {"joints": st.dictionaries(joint_name, joint_value, min_size=1, max_size=7)}
    ),
)
detections = rarely(st.sampled_from([{}, None, "x", 5]), st.lists(detection, max_size=5))


def reference(record):
    """The reader's rules, stated apart from the code under test:
    ``detections`` is a list of objects whose ``joints`` object holds at
    least one joint, each with a known name; a joint is [x, y] or [x, y,
    confidence] with finite coordinates, a row in [0, H] and a
    confidence in [0, 1]. Each detection is written back in name order,
    the confidence a float (1.0 when absent) and the coordinates as
    given. Its pixels are the ankle midpoint, taken the short way round
    the seam (one ankle alone is its own midpoint; two columns whose sum
    no float holds meet at the sum of their halves), then the neck; NaN
    where absent. Raises on any broken rule."""
    dets = record["detections"]
    if not isinstance(dets, list):
        raise TypeError(f"detections must be a list, got {dets!r}")
    out, rows = [], []
    for d in dets:
        joints = d["joints"]
        if not isinstance(joints, dict) or not joints or not set(joints) <= set(JOINT_NAMES):
            raise ValueError(f"bad joints {joints!r}")
        norm = {}
        for name in sorted(joints):
            v = joints[name]
            if not isinstance(v, list) or len(v) not in (2, 3):
                raise ValueError(f"bad joint {v!r}")
            x, y, c = v if len(v) == 3 else (*v, 1.0)
            if not (0 <= c <= 1 and math.isfinite(x) and math.isfinite(y) and 0 <= y <= H):
                raise ValueError(f"bad joint {v!r}")
            norm[name] = [x, y, float(c)]
        out.append({"joints": norm})
        ankles = [norm[n][:2] for n in ("left_ankle", "right_ankle") if n in norm]
        if len(ankles) == 2:
            (ax, ay), (bx, by) = ankles
            if abs(ax - bx) > W / 2:
                ax, bx = (ax + W, bx) if ax < bx else (ax, bx + W)
            try:
                overflows = math.isinf(float(ax + bx))
            except OverflowError:
                overflows = True
            mid = ax / 2 + bx / 2 if overflows else (ax + bx) / 2.0
            ankle = [mid % W, (ay + by) / 2.0]
        else:
            ankle = ankles[0] if ankles else [math.nan, math.nan]
        rows.append(ankle + (norm["neck"][:2] if "neck" in norm else [math.nan, math.nan]))
    line = json.dumps({"frame": 3, "t": 0.5, "detections": out})
    return line, np.array(rows, dtype=float).reshape(-1, 4)


class TestOnePassReader:
    @settings(max_examples=500, deadline=None)
    @given(detections)
    # ankles straddling the seam, an integer ankle and a lone ankle
    @example([{"joints": {"right_ankle": [3, 700], "neck": [1, 300.5], "left_ankle": [1915.5, 702]}}])
    @example([{"joints": {"left_ankle": [7, 700, 1], "neck": [True, 5, 0]}}])
    @example([{"joints": {"right_ankle": [1919, 700.0, 0.5]}}, {"joints": {}}])
    @example([{"joints": {"neck": [1]}}])
    # finite ankles whose sum overflows
    @example([{"joints": {"left_ankle": [10**308, 700], "right_ankle": [10**308, 700]}}])
    @example([{"joints": {"left_ankle": [1e308, 700], "right_ankle": [1e308, 700.5]}}])
    # rows on either edge of the image, and just past them
    @example([{"joints": {"neck": [5, 0], "left_ankle": [6, H]}}])
    @example([{"joints": {"neck": [5, 0], "left_ankle": [6, H + 0.5]}}])
    @example([{"joints": {"neck": [5, -0.5]}}])
    def test_agrees_with_the_skeleton_path(self, dets):
        record = {"frame": 3, "t": 0.5, "detections": dets}
        try:
            line, pix = reference(record)
        except Exception:
            with pytest.raises(InputError):
                detections_from_record(record, CAM)
            return
        out, got = detections_from_record(record, CAM)
        assert json.dumps({"frame": 3, "t": 0.5, "detections": out}) == line
        assert got.shape == pix.shape
        assert got.tobytes() == pix.tobytes()

    def test_integer_coordinates_stay_integers(self):
        record = {"detections": [{"joints": {"neck": [12, 34], "left_ankle": [True, 7, 1]}}]}
        (det,), _ = detections_from_record(record, CAM)
        assert det == {"joints": {"left_ankle": [True, 7, 1.0], "neck": [12, 34, 1.0]}}
        assert [type(v) for v in det["joints"]["neck"]] == [int, int, float]


# columns anywhere finite: on [0, W), one or more widths outside it,
# and at the ends of the floats; rows on [0, H], the edges included
stream_column = st.one_of(
    st.floats(0.0, W, exclude_max=True),
    st.builds(lambda x, k: x + k * W, st.floats(0.0, W), st.integers(-3, 3).filter(bool)),
    st.floats(-1e308, 1e308),
    st.sampled_from([1e308, -1e308, -W, W, 2 * W, -0.5]),
)
stream_row = st.floats(0.0, H) | st.sampled_from([0.0, float(H), 0, H])


@st.composite
def person(draw):
    """The joints of one person standing 1-8 m from the camera, seen at
    a column drawn from ``stream_column``, with each joint absent one
    time in four."""
    rho = draw(st.floats(1.0, 8.0))
    ankle_row = row_at_height(rho, CAM.ankle_height, CAM)
    neck_row = row_at_height(rho, draw(st.floats(1.0, 2.0)), CAM)
    x = draw(stream_column)
    joints = {
        "left_ankle": [x, ankle_row],
        "right_ankle": [x + draw(st.floats(-8.0, 8.0)), ankle_row],
        "neck": [x + draw(st.floats(-4.0, 4.0)), neck_row],
    }
    return {n: v for n, v in joints.items() if draw(st.integers(0, 3))}


@st.composite
def detection_streams(draw):
    """Up to 6 records of up to 5 detections each, with close,
    increasing timestamps: people who stay put from record to record,
    by a pixel or so, and detections of joints anywhere."""
    people = draw(st.lists(person(), max_size=4))
    any_joints = st.dictionaries(
        st.sampled_from(JOINT_NAMES), st.tuples(stream_column, stream_row).map(list),
        min_size=1, max_size=7,
    )
    t = draw(st.floats(0.0, 10.0))
    records = []
    for frame in range(draw(st.integers(1, 6))):
        dets = [
            {n: [v[0] + draw(st.floats(-1.0, 1.0)), v[1]] for n, v in p.items()}
            for p in people if p and draw(st.integers(0, 4))
        ]
        dets += draw(st.lists(any_joints, max_size=2))
        records.append({"frame": frame, "t": t, "detections": [{"joints": j} for j in dets]})
        # a step of one rounding step up to a frame at 20 fps
        t = max(t + draw(st.floats(0.0, 0.05)), math.nextafter(t, math.inf))
    return records


class TestOfflineStream:
    @settings(max_examples=200, deadline=None)  # about 3 s on a 2-CPU VM
    @given(detection_streams())
    # one person, then the same person a width below and at the float limit
    @example([
        {"frame": 0, "t": 0.0, "detections": [{"joints": {
            "left_ankle": [10.0, 700.0], "right_ankle": [1915.0, 700.0], "neck": [3.0, 400.0]}}]},
        {"frame": 1, "t": 0.03, "detections": [{"joints": {
            "left_ankle": [10.0 - W, 700.0], "right_ankle": [1915.0, 700.0], "neck": [3.0, 400.0]}}]},
        {"frame": 2, "t": 0.06, "detections": [{"joints": {
            "left_ankle": [1e308, 700.0], "right_ankle": [-1e308, 700.0], "neck": [1e308, 400.0]}}]},
    ])
    def test_records_are_finite_or_the_stream_is_refused(self, records):
        """A detection stream with any finite columns, rows on the image,
        missing joints and close timestamps yields only tracks records
        of finite numbers, or raises InputError."""
        try:
            for output in run_offline(iter(records), CAM):
                json.dumps(output.tracks, allow_nan=False)
        except InputError:
            pass

    @pytest.mark.parametrize("x", [1e308, 10**308], ids=["float", "int"])
    def test_ankles_whose_sum_overflows_spawn_a_track(self, x):
        """Two ankles at a column whose double no float holds still meet
        at a finite column, so the detection, its neck at that column
        too, is not neck-only and spawns a track."""
        record = {"frame": 0, "t": 0.0, "detections": [
            {"joints": {"left_ankle": [x, 700.0], "right_ankle": [x, 700.0], "neck": [x, 400.0]}}
        ]}
        _, pix = detections_from_record(record, CAM)
        assert 0.0 <= pix[0, 0] < W and pix[0, 1] == 700.0
        (output,) = run_offline(iter([record]), CAM)
        (track,) = output.tracks["tracks"]
        assert all(math.isfinite(track[k]) for k in ("x", "y", "h", "img_x", "img_y"))


class TestNormalRecordKept:
    """A detection whose joints ``check_detection`` returns unchanged is
    written back as the record's own object."""

    NORMAL = {"joints": {"left_ankle": [5, 6, 1.0], "neck": [19.5, 400.0, 0.5]}}

    def test_normal_record_keeps_its_dicts(self):
        dets = [copy.deepcopy(self.NORMAL), {"joints": {"neck": [0.5, 401.25, 0.75]}}]
        out, pix = detections_from_record({"frame": 3, "t": 0.5, "detections": dets}, CAM)
        assert all(o is d for o, d in zip(out, dets))
        assert pix.shape == (2, 4)

    def test_mixed_record_equals_the_reference(self):
        dets = [
            copy.deepcopy(self.NORMAL),
            {"joints": {"neck": [19.5, 400.0, 0.5], "left_ankle": [5, 6, 1.0]}},  # shuffled
            {"joints": {"left_ankle": [5, 6], "neck": [19.5, 400.0, 1]}},  # pair, int confidence
            {**copy.deepcopy(self.NORMAL), "score": 0.9},  # a key the output drops
        ]
        record = {"frame": 3, "t": 0.5, "detections": dets}
        before = copy.deepcopy(record)
        line, rows = reference(record)
        out, pix = detections_from_record(record, CAM)
        assert json.dumps({"frame": 3, "t": 0.5, "detections": out}) == line
        assert pix.tobytes() == rows.tobytes()
        assert [o is d for o, d in zip(out, dets)] == [True, False, False, False]
        assert record == before


class TestReadJsonl:
    def test_missing_file_fails_at_the_call(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: no such file$"):
            read_jsonl(str(path))

    @pytest.mark.parametrize(
        "read", [read_json, lambda path: list(read_jsonl(path))], ids=["read_json", "read_jsonl"]
    )
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_is_named(self, tmp_path, read, kind):
        # both readers share one open-and-decode path
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"frame": 0}\n{"name": "caf\xe9"}\n')
        reason = {"directory": "is a directory", "not_utf8": "not UTF-8 text"}
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {reason[kind]}$"):
            read(str(path))

    def test_yields_dicts_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"frame": 0}\n\n \t\r\n{"frame": 1}\n')
        assert list(read_jsonl(str(path))) == [{"frame": 0}, {"frame": 1}]

    # whitespace that str.strip removes and JSON does not allow
    @pytest.mark.parametrize("line", ["\x0c", '\x1c{"frame": 1}'], ids=["form_feed", "file_separator"])
    def test_only_json_whitespace_is_blank(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text('{"frame": 0}\n \t\n' + line + "\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: invalid JSON: Expecting value$"):
            list(read_jsonl(str(path)))

    def test_invalid_line_names_its_number(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"frame": 0}\n{"frame": \n')
        with pytest.raises(InputError, match=":2: invalid JSON"):
            list(read_jsonl(str(path)))

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"frame"', "null"])
    def test_line_that_is_not_an_object_names_its_number(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text('{"frame": 0}\n\n' + line + "\n")
        with pytest.raises(InputError, match=":3: expected a JSON object"):
            list(read_jsonl(str(path)))


def shape(value):
    """A decoded JSON value as nested tuples that compare its types, the
    bits of every float (``float.hex``), the key order of every object
    and the nesting."""
    if isinstance(value, dict):
        return ("object", [(k, shape(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("array", [shape(v) for v in value])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def float_text(x, form):
    return {"repr": repr, "g17": "%.17g".__mod__, "e15": "%.15e".__mod__}[form](x)


# finite floats of any bit pattern, and pixel-range floats, in three
# forms; "0.<digits>e<k>" texts; integers within 64 bits
any_float = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
number_text = st.one_of(
    st.builds(
        float_text,
        (any_float | st.floats(-4 * W, 4 * W)).filter(math.isfinite),
        st.sampled_from(["repr", "g17", "e15"]),
    ),
    st.builds(
        "{}0.{}e{}".format,
        st.sampled_from(["", "-"]),
        st.text("0123456789", min_size=1, max_size=20),
        st.integers(-340, 308),
    ),
    st.integers(-(2**63), 2**64 - 1).map(str),
)
# strings of plain characters and every escape form JSON has, a
# surrogate pair included
string_text = st.lists(
    st.one_of(
        st.characters(min_codepoint=0x20, blacklist_categories=("Cs",), blacklist_characters='"\\'),
        st.sampled_from(['\\"', "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]),
        st.sampled_from(["\\u0000", "\\u00e9", "\\u00E9", "\\u2028", "\\ud83d\\ude00"]),
    ),
    max_size=6,
).map(lambda parts: '"' + "".join(parts) + '"')
# a small key pool, so that an object often repeats a key
key_text = st.sampled_from(['"frame"', '"t"', '"a"']) | string_text


def json_values(scalar, spaces):
    """JSON value texts nested up to a few levels, built from ``scalar``
    texts with ``spaces`` around every token."""

    def padded(token):
        return st.builds("{}{}{}".format, spaces, token, spaces)

    def containers(children):
        array = st.lists(padded(children), max_size=4).map(lambda xs: "[" + ",".join(xs) + "]")
        members = st.builds("{}:{}".format, padded(key_text), padded(children))
        obj = st.lists(members, max_size=4).map(lambda xs: "{" + ",".join(xs) + "}")
        return array | obj

    return st.recursive(scalar, containers, max_leaves=12)


json_spaces = st.text(" \t\r\n", max_size=2)
json_scalar = number_text | string_text | st.sampled_from(["true", "false", "null"])


@st.composite
def record_texts(draw):
    """A detections record's text, its numbers in any of the forms of
    ``number_text``, with an extra key holding any JSON value."""
    joints = [
        "{%s}" % ", ".join(
            f'"{name}": [{draw(number_text)}, {draw(number_text)}, {draw(number_text)}]'
            for name in draw(st.lists(st.sampled_from(JOINT_NAMES), min_size=1, max_size=3))
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    dets = ", ".join('{"joints": %s}' % j for j in joints)
    extra = draw(json_values(json_scalar, json_spaces))
    return f'{{"frame": {draw(number_text)}, "t": {draw(number_text)}, "detections": [{dets}], "x": {extra}}}'


# tokens that only Python's json reads, and a text nested within them
stdlib_only = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1E999", '"\\ud800"', '"a\\udc00b"']
)


@st.composite
def stdlib_only_texts(draw):
    """A one-line object text holding a token only Python's json reads,
    led by a byte order mark or cut short now and then."""
    value = draw(json_values(stdlib_only | json_scalar, st.text(" \t", max_size=1)))
    text = '{"frame": 0, "a": %s, "b": %s}' % (draw(stdlib_only), value)
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(1, len(text) - 1))]
    return text


class TestDecodeJson:
    """``_decode_json`` against ``json.loads``, its reference."""

    @settings(max_examples=300, deadline=None)
    @given(record_texts() | json_values(json_scalar, json_spaces))
    @example('{"frame": 1, "frame": 2.5, "t": 18446744073709551615, "x": -9223372036854775808}')
    @example('[5e-324, -0.0, 1.7976931348623157e308, 0.1e-330, "\\ud83d\\ude00\\u00e9\\/"]')
    def test_agrees_with_json_loads(self, text):
        """Types, float bits, key order and nesting agree, on texts that
        orjson itself reads."""
        assert shape(orjson.loads(text)) == shape(json.loads(text))
        assert shape(_decode_json(text)) == shape(json.loads(text))

    @settings(max_examples=200, deadline=None)
    @given(stdlib_only_texts())
    def test_texts_only_json_reads_keep_their_value_or_error(self, tmp_path_factory, text):
        """Each reader returns what ``json.loads`` does, or raises
        InputError with its message."""
        line = text + "\n"
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(line)
        path = tmp_path_factory.getbasetemp() / "decode.jsonl"
        path.write_text(line, encoding="utf-8")
        try:
            want = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(InputError) as got:
                list(read_jsonl(str(path)))
            assert str(got.value) == f"{path}:1: invalid JSON: {exc.msg}"
            with pytest.raises(InputError) as got:
                read_json(str(path))
            assert str(got.value) == f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            return
        assert [shape(r) for r in read_jsonl(str(path))] == [shape(want)]
        assert shape(read_json(str(path))) == shape(want)

    @pytest.mark.parametrize("depth", [1025, 5000])
    def test_nesting_past_the_recursion_limit_is_read(self, depth):
        """orjson reads arrays nested deeper than ``json.loads`` can,
        which raises RecursionError past Python's recursion limit."""
        value = _decode_json("[" * depth + '{"a": 1.5}' + "]" * depth)
        for _ in range(depth):
            (value,) = value
        assert value == {"a": 1.5}


# azimuths in degrees on and beside the +-180 seam, where the column
# wraps between W and 0, and on the axes
SEAM_AZIMUTHS = [
    180.0, -180.0, math.nextafter(180.0, 0.0), math.nextafter(-180.0, 0.0), 0.0, 90.0, -90.0,
]


@st.composite
def track_tables(draw):
    """A step's table of up to 6 tracks at any azimuth, the seam's
    included, 0.3-30 m from the camera, with any velocity, height,
    status and target flag."""
    means = []
    for _ in range(draw(st.integers(0, 6))):
        rho = draw(st.floats(0.3, 30.0))
        azimuth = math.radians(draw(st.floats(-180.0, 180.0) | st.sampled_from(SEAM_AZIMUTHS)))
        x, y = rho * math.cos(azimuth), rho * math.sin(azimuth)
        if draw(st.integers(0, 4)) == 0:
            # straight behind the camera, a rounding step either side of the seam
            x, y = -rho, draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12]))
        vx, vy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
        means.append([x, y, vx, vy, draw(st.floats(0.5, 2.5))])
    n = len(means)
    return TrackTable(
        ids=list(range(n)),
        statuses=[draw(st.sampled_from(["tentative", "confirmed", "lost"])) for _ in range(n)],
        is_target=[draw(st.booleans()) for _ in range(n)],
        means=np.array(means).reshape(-1, 5),
        covs=np.broadcast_to(np.eye(5), (n, 5, 5)),
    )


class TestTracksRecord:
    @given(
        track_tables(),
        st.sampled_from([CAM, CameraModel(image_width=3840, image_height=1920, mount_height=0.9)]),
    )
    @settings(max_examples=100, deadline=None)  # about 0.7 s on a 2-CPU VM
    def test_pixels_are_world_to_image_bit_for_bit(self, table, cam):
        """Each track's x, y and h are its mean row's floats, and its
        img_x and img_y are ``world_to_image`` of those floats, to the
        last bit."""
        record = tracks_record(4, 0.4, table, cam)
        assert record["frame"] == 4 and record["t"] == 0.4
        assert len(record["tracks"]) == len(table.ids)
        rows = zip(table.ids, table.statuses, table.is_target, table.means)
        for out, (track_id, status, is_target, mean) in zip(record["tracks"], rows):
            x, y, _, _, h = mean.tolist()
            img = world_to_image(WorldPoint(x, y, h), cam)
            got = [out[k] for k in ("x", "y", "h", "img_x", "img_y")]
            assert [type(v) for v in got] == [float] * 5
            assert [v.hex() for v in got] == [v.hex() for v in (x, y, h, img.x, img.y)]
            assert (out["id"], out["status"], out["is_target"]) == (track_id, status, is_target)
