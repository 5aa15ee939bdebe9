import pytest

from panotrack.exceptions import ConfigError, InputError
from panotrack.geometry import WorldPoint
from panotrack.metrics import (
    FrameMatch,
    count_fragments,
    error_vs_distance,
    evaluate,
    id_persistence,
    match_frames,
    mean_position_error,
    time_tracked_ratio,
)


def gt_record(frame, x, y):
    return {
        "frame": frame,
        "t": frame / 30,
        "agents": [{"id": 0, "x": x, "y": y, "joints": {}, "is_target": True}],
    }


def track_record(frame, tracks):
    return {
        "frame": frame,
        "t": frame / 30,
        "tracks": [
            {
                "id": tid,
                "x": x,
                "y": y,
                "h": 1.6,
                "img_x": 0.0,
                "img_y": 0.0,
                "status": "confirmed",
                "is_target": True,
            }
            for tid, x, y in tracks
        ],
    }


def matched(frame, gx, gy, ex, ey, tid=1):
    return FrameMatch(
        frame=frame,
        gt_pos=WorldPoint(gx, gy, 0.0),
        track_id=tid,
        est_pos=WorldPoint(ex, ey, 1.6),
    )


def unmatched(frame, gx, gy):
    return FrameMatch(frame=frame, gt_pos=WorldPoint(gx, gy, 0.0))


class TestMatchFrames:
    def test_perfect_tracking(self):
        gt = [gt_record(i, 2.0, 0.0) for i in range(5)]
        tracks = [track_record(i, [(1, 2.0, 0.0)]) for i in range(5)]
        matches = match_frames(gt, tracks)
        assert all(m.matched for m in matches)

    def test_no_tracks(self):
        gt = [gt_record(i, 2.0, 0.0) for i in range(5)]
        tracks = [track_record(i, []) for i in range(5)]
        assert not any(m.matched for m in match_frames(gt, tracks))

    def test_radius_boundary(self):
        gt = [gt_record(0, 2.0, 0.0)]
        tracks = [track_record(0, [(1, 2.6, 0.0)])]
        assert not match_frames(gt, tracks, match_radius=0.5)[0].matched
        assert match_frames(gt, tracks, match_radius=0.7)[0].matched

    def test_sparse_annotations(self):
        gt = [gt_record(i, 2.0, 0.0) for i in (0, 10, 20)]
        tracks = [track_record(i, [(1, 2.0, 0.0)]) for i in range(21)]
        assert len(match_frames(gt, tracks)) == 3

    def test_missing_frame_is_error(self):
        gt = [gt_record(5, 2.0, 0.0)]
        with pytest.raises(InputError):
            match_frames(gt, [track_record(0, [])])

    def test_nearest_target_track_wins(self):
        gt = [gt_record(0, 2.0, 0.0)]
        tracks = [track_record(0, [(7, 2.3, 0.0), (9, 2.1, 0.0)])]
        m = match_frames(gt, tracks)[0]
        assert m.track_id == 9

    def test_non_target_tracks_ignored(self):
        gt = [gt_record(0, 2.0, 0.0)]
        rec = track_record(0, [(1, 2.0, 0.0)])
        rec["tracks"][0]["is_target"] = False
        assert not match_frames(gt, [rec])[0].matched


class TestTimeTrackedRatio:
    def test_all_matched(self):
        ms = [matched(i, 2, 0, 2, 0) for i in range(4)]
        assert time_tracked_ratio(ms) == 1.0

    def test_half_matched(self):
        ms = [matched(0, 2, 0, 2, 0)] * 5 + [unmatched(1, 2, 0)] * 5
        assert time_tracked_ratio(ms) == 0.5

    def test_none_matched(self):
        assert time_tracked_ratio([unmatched(0, 2, 0)]) == 0.0

    def test_empty_is_error(self):
        with pytest.raises(InputError):
            time_tracked_ratio([])


class TestIdPersistence:
    def test_single_id(self):
        ms = [matched(i, 2, 0, 2, 0, tid=4) for i in range(6)]
        assert id_persistence(ms) == 1.0
        assert count_fragments(ms) == 1

    def test_two_fragments(self):
        ms = [matched(i, 2, 0, 2, 0, tid=1) for i in range(3)] + [
            matched(i, 2, 0, 2, 0, tid=2) for i in range(3, 6)
        ]
        assert id_persistence(ms) == 0.5

    def test_three_fragments(self):
        ms = [
            matched(0, 2, 0, 2, 0, tid=1),
            matched(1, 2, 0, 2, 0, tid=2),
            matched(2, 2, 0, 2, 0, tid=3),
        ]
        assert id_persistence(ms) == pytest.approx(1 / 3)

    def test_unmatched_gaps_do_not_fragment(self):
        ms = [
            matched(0, 2, 0, 2, 0, tid=1),
            unmatched(1, 2, 0),
            matched(2, 2, 0, 2, 0, tid=1),
        ]
        assert id_persistence(ms) == 1.0

    def test_no_matches_is_zero(self):
        assert id_persistence([unmatched(0, 2, 0)]) == 0.0


class TestMeanPositionError:
    def test_exact(self):
        ms = [matched(i, 2, 1, 2, 1) for i in range(3)]
        assert mean_position_error(ms) == 0.0

    def test_constant_offset(self):
        ms = [matched(i, 2, 0, 2.3, 0) for i in range(3)]
        assert mean_position_error(ms) == pytest.approx(0.3)

    def test_mean_of_two(self):
        ms = [matched(0, 2, 0, 2.1, 0), matched(1, 2, 0, 2.3, 0)]
        assert mean_position_error(ms) == pytest.approx(0.2)

    def test_unmatched_excluded(self):
        ms = [matched(0, 2, 0, 2.1, 0), unmatched(1, 9, 9)]
        assert mean_position_error(ms) == pytest.approx(0.1)

    def test_zero_matches_is_error(self):
        with pytest.raises(InputError):
            mean_position_error([unmatched(0, 2, 0)])


class TestErrorVsDistance:
    def test_single_bin(self):
        ms = [matched(i, 2.2, 0, 2.3, 0) for i in range(4)]
        bins = error_vs_distance(ms, bin_width=1.0)
        assert len(bins) == 1
        assert bins[0].center == pytest.approx(2.5)
        assert bins[0].count == 4
        assert bins[0].miss_rate == 0.0

    def test_miss_rate(self):
        ms = [matched(0, 5.5, 0, 5.6, 0)] + [unmatched(i, 5.4, 0) for i in range(1, 4)]
        bins = error_vs_distance(ms, bin_width=1.0)
        assert bins[0].miss_rate == pytest.approx(0.75)
        assert bins[0].count == 1

    def test_recomposes_to_overall_mean(self):
        import random

        rng = random.Random(3)
        ms = []
        for i in range(200):
            r = rng.uniform(0.5, 8.0)
            err = rng.uniform(0, 0.4)
            ms.append(matched(i, r, 0, r + err, 0))
        bins = error_vs_distance(ms, bin_width=1.0)
        total = sum(b.mean_error * b.count for b in bins if b.count)
        count = sum(b.count for b in bins)
        assert total / count == pytest.approx(mean_position_error(ms), abs=1e-12)

    def test_invalid_bin_width(self):
        with pytest.raises(ConfigError):
            error_vs_distance([], bin_width=0.0)


class TestEvaluate:
    def test_report_fields(self):
        gt = [gt_record(i, 2.0, 0.0) for i in range(10)]
        tracks = [
            track_record(i, [(1 if i < 5 else 2, 2.0, 0.0)]) for i in range(10)
        ]
        report = evaluate(gt, tracks)
        assert report.m1 == 1.0
        assert report.m2 == 0.5
        assert report.fragments == 2
        assert report.m3 == pytest.approx(0.0)
        assert report.total_frames == 10
        d = report.to_dict()
        assert set(d) == {
            "m1",
            "m2",
            "m3",
            "fragments",
            "matched_frames",
            "total_frames",
            "error_vs_distance",
        }

    def test_m3_none_when_never_matched(self):
        gt = [gt_record(i, 2.0, 0.0) for i in range(3)]
        tracks = [track_record(i, []) for i in range(3)]
        report = evaluate(gt, tracks)
        assert report.m1 == 0.0 and report.m2 == 0.0 and report.m3 is None

    def test_concatenation_weighting(self):
        gt_a = [gt_record(i, 2.0, 0.0) for i in range(4)]
        tr_a = [track_record(i, [(1, 2.1, 0.0)]) for i in range(4)]
        gt_b = [gt_record(i + 10, 3.0, 0.0) for i in range(2)]
        tr_b = [track_record(i + 10, [(1, 3.4, 0.0)]) for i in range(2)]
        part_a = evaluate(gt_a, tr_a)
        part_b = evaluate(gt_b, tr_b)
        whole = evaluate(gt_a + gt_b, tr_a + tr_b)
        expected = (
            part_a.m3 * part_a.matched_frames + part_b.m3 * part_b.matched_frames
        ) / (part_a.matched_frames + part_b.matched_frames)
        assert whole.m3 == pytest.approx(expected, abs=1e-12)
