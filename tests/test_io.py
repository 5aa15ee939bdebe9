import json

import pytest

from panotrack.exceptions import InputError
from panotrack.io import detections_from_record, detections_record, read_jsonl


def round_trip(detections):
    """A detections record read and written back, as `panotrack track`
    does with a detections JSONL input."""
    record = {"frame": 3, "t": 0.1, "detections": detections}
    dets = detections_from_record(record)
    return json.dumps(detections_record(record["frame"], record["t"], dets))


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
            detections_from_record({"detections": [{"joints": {"neck": value}}]})

    @pytest.mark.parametrize("detections", [{}, None, "x"], ids=["object", "null", "string"])
    def test_detections_not_a_list_raises_input_error(self, detections):
        with pytest.raises(InputError):
            detections_from_record({"detections": detections})

    def test_joints_not_an_object_raises_input_error(self):
        with pytest.raises(InputError):
            detections_from_record({"detections": [{"joints": [[1, 2, 0.5]]}]})


class TestReadJsonl:
    def test_missing_file_fails_at_the_call(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(str(tmp_path / "missing.jsonl"))

    def test_yields_dicts_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"frame": 0}\n\n{"frame": 1}\n')
        assert list(read_jsonl(str(path))) == [{"frame": 0}, {"frame": 1}]

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
