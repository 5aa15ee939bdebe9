"""Benchmark worker, run in a fresh interpreter by ``run.py``.

    python3 worker.py probe  SPEC RESULT   set up only (the setup_s sample)
    python3 worker.py render SPEC RESULT   simulate the offline detections files
    python3 worker.py run    SPEC RESULT   set up, then check pass and timed passes

SPEC and RESULT are JSON files. panotrack is reached only through its
public calls: ``pipeline.run_simulated`` / ``pipeline.run_offline`` for
the timed stream and the public constructors for set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

# Frame and set-up times are CPU time of this process. The pipeline
# runs in one process and does no I/O wait beyond reading its inputs,
# and tile threads take turns under the interpreter lock, so CPU time
# equals wall time on an idle machine (within 1 %, README.md); unlike
# wall time it excludes the time a shared host takes the CPU away.
CLOCK = time.process_time

# Host speed. The host shares its cores with other tenants, and while
# they are busy the same code runs up to 1.7 times slower, in spells of
# a second or more (README.md, "Host speed"). CPU time cannot leave
# that out, so every CAL_BLOCK_S of frame time is followed by a fixed
# piece of interpreter work, the calibration, and the frames between
# two calibrations are scaled by REF_CAL_S / (the mean of the two
# calibrations' times). Frame times are then CPU times at the speed
# the calibration has on a quiet core of the 2-CPU machine the
# benchmark was built on. Set-up times are not scaled: they did not
# follow the calibration (README.md).
REF_CAL_S = 0.00032
# Frame CPU time between two calibrations; about 0.5 ms each, so they
# add about 5 % to a pass.
CAL_BLOCK_S = 0.010
_CAL_RECORD = {
    "frame": 0,
    "tracks": [
        {"id": i, "x": 0.5 * i, "y": -0.25 * i, "img_x": 10.0 * i, "is_target": i == 0}
        for i in range(8)
    ],
}


def _calibrate() -> float:
    """CPU seconds of the calibration: trigonometry, dict and list
    updates and a JSON round trip, the kinds of work a frame does."""
    start = CLOCK()
    acc = 0.0
    table = {}
    for i in range(500):
        a = (math.atan2(i - 250.0, 37.0) * 3.0 + math.pi) % (2.0 * math.pi) - math.pi
        acc += math.hypot(math.cos(a), i * 0.01)
        table[i & 63] = [acc, a]
    for _ in range(5):
        json.loads(json.dumps(_CAL_RECORD))
    return CLOCK() - start


class _Scaler:
    """Scales frame times to the reference host speed: after every
    CAL_BLOCK_S of frame CPU time, a calibration closes a block, and the
    block's frames are scaled by the mean of the calibrations before
    and after it."""

    def __init__(self) -> None:
        self.pending: list[tuple[list, int]] = []
        self.cpu = 0.0
        self.cal_s: list[float] = [_calibrate()]

    def add(self, out: list, seconds: float) -> None:
        out.append(seconds)
        self.pending.append((out, len(out) - 1))
        self.cpu += seconds
        if self.cpu >= CAL_BLOCK_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        cal = _calibrate()
        factor = REF_CAL_S / ((self.cal_s[-1] + cal) / 2.0)
        self.cal_s.append(cal)
        for out, i in self.pending:
            out[i] *= factor
        self.pending.clear()
        self.cpu = 0.0


def _import_split() -> dict:
    """Import numpy, then scipy.optimize, then the rest of panotrack,
    timing each step in this fresh interpreter."""
    split = {}
    start = CLOCK()
    import numpy  # noqa: F401

    split["import_numpy_s"] = CLOCK() - start
    start = CLOCK()
    import scipy.optimize  # noqa: F401

    split["import_scipy_optimize_s"] = CLOCK() - start
    start = CLOCK()
    import panotrack  # noqa: F401
    import panotrack.pipeline  # noqa: F401

    split["import_panotrack_s"] = CLOCK() - start
    return split


def _check_source(src: str) -> None:
    import panotrack

    here = os.path.realpath(panotrack.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"panotrack imported from {here}, not from {src}")


def _setup(spec: dict) -> list:
    """Everything a run needs before its first frame: load each scenario
    or open each detections file, and build each stream's strategy
    runner and tracker. Returns one (stream, input) pair per stream."""
    from panotrack import CameraModel, PanoTracker, TrackerConfig
    from panotrack.pipeline import StrategyRunner
    from panotrack.sim import SyntheticDetector, load_scenario

    scenarios: dict = {}
    prepared = []
    for stream in spec["streams"]:
        if stream["kind"] == "simulated":
            path = stream["scenario"]
            if path not in scenarios:
                scenarios[path] = load_scenario(path)
            scenario = scenarios[path]
            StrategyRunner(
                stream["strategy"], scenario.cam, SyntheticDetector.for_scenario(scenario)
            )
            PanoTracker(scenario.cam, TrackerConfig())
            prepared.append((stream, scenario))
        else:
            with open(stream["scenario"], encoding="utf-8") as fh:
                cam = CameraModel.from_dict(json.load(fh)["cam"])
            with open(stream["detections"], encoding="utf-8") as fh:
                fh.readline()
            PanoTracker(cam, TrackerConfig())
            prepared.append((stream, cam))
    return prepared


def _render(spec: dict) -> None:
    """Simulate each offline input into a detections JSONL, as an
    external detector would write it: one full-resolution viewport."""
    from panotrack.detect import Viewport
    from panotrack.io import detections_record
    from panotrack.sim import SyntheticDetector, load_scenario, run_scenario

    for job in spec["render"]:
        scenario = load_scenario(job["scenario"])
        detector = SyntheticDetector.for_scenario(scenario)
        cam = scenario.cam
        viewport = Viewport(0.0, 0.0, float(cam.image_width), float(cam.image_height), 1.0)
        with open(job["out"], "w", encoding="utf-8") as fh:
            for snapshot, _ in run_scenario(scenario):
                dets = detector.detect(snapshot, viewport)
                fh.write(json.dumps(detections_record(snapshot.index, snapshot.t, dets)) + "\n")


def _frames(stream: dict, source):
    """The public streaming call for one stream, yielding FrameOutputs."""
    import panotrack.io
    import panotrack.pipeline

    if stream["kind"] == "simulated":
        for output, _ in panotrack.pipeline.run_simulated(source, stream["strategy"]):
            yield output
    else:
        records = panotrack.io.read_jsonl(stream["detections"])
        yield from panotrack.pipeline.run_offline(records, source)


class PassResult:
    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # per stream, seconds
        self.scaled: list[list[float]] = []  # the same, at the reference host speed
        self.cal_s: list[float] = []
        self.failed_frames: list[list[int]] = []  # per stream, frame positions
        self.hashes: list[str] = []
        self.frames = 0
        self.failed = 0
        self.bytes = 0
        self.dumps_s = 0.0
        self.errors: list[str] = []


class _Stream:
    """One stream's progress through a pass."""

    def __init__(self, idx: int, stream: dict, source, limit: int | None, out_dir: str | None):
        self.stream = stream
        self.expected = stream["frames"] if limit is None else min(limit, stream["frames"])
        self.frames = _frames(stream, source)
        self.done = 0
        self.failed: list[int] = []
        self.lat: list[float] = []
        self.scaled: list[float] = []
        self.digest = hashlib.sha256()
        self.files = None
        if out_dir is not None:
            self.files = [
                open(os.path.join(out_dir, f"{idx}.{kind}.jsonl"), "w", encoding="utf-8")
                for kind in ("detections", "tracks")
            ]

    def close(self) -> None:
        self.frames.close()
        for fh in self.files or ():
            fh.close()


# Frames a stream advances before the next stream takes its turn. Load
# from outside the process comes in bursts of up to about a second that
# can nearly double frame times; turns of this size spread a burst over
# every stream of a pass, while each stream stays warm in the caches
# for most of its frames.
TURN_FRAMES = 10


def _run_pass(
    prepared: list, limit: int | None, out_dir: str | None, traced: bool = False
) -> PassResult:
    """One pass over every stream, the streams taking turns of
    TURN_FRAMES frames. A frame is timed from the request for it until
    its detections and tracks records are serialized to JSON, as
    ``panotrack track`` writes them. A stream that raises counts its
    remaining frames as failed; a partial frame fails too. When
    ``out_dir`` is set the serialized records are written there,
    outside the timed region, for the checks. Frame times are kept
    as measured and scaled to the reference host speed."""
    result = PassResult()
    scaler = _Scaler()
    streams = [
        _Stream(idx, stream, source, limit, out_dir)
        for idx, (stream, source) in enumerate(prepared)
    ]
    try:
        active = list(streams)
        while active:
            active = [st for st in active if _run_turn(st, result, scaler, traced)]
        scaler.flush()
    finally:
        for st in streams:
            st.close()
    result.cal_s = scaler.cal_s
    for st in streams:
        st.failed.extend(range(st.done, st.expected))
        result.failed += len(st.failed)
        result.failed_frames.append(st.failed)
        result.frames += st.expected
        result.latencies.append(st.lat)
        result.scaled.append(st.scaled)
        result.hashes.append(st.digest.hexdigest())
    return result


def _run_turn(st: _Stream, result: PassResult, scaler: _Scaler, traced: bool) -> bool:
    """Advance one stream by up to TURN_FRAMES frames; False once it is
    finished or has failed."""
    perf = CLOCK
    for _ in range(TURN_FRAMES):
        if st.done >= st.expected:
            return False
        t0 = perf()
        try:
            output = next(st.frames)
            t1 = perf()
            det_line = json.dumps(output.detections)
            trk_line = json.dumps(output.tracks)
            t2 = perf()
        except StopIteration:
            result.errors.append(
                f"{st.stream['name']}: stream ended after {st.done} of {st.expected} frames"
            )
            return False
        except Exception as exc:  # noqa: BLE001 - a raising frame is a failed frame
            result.errors.append(f"{st.stream['name']} frame {st.done}: {type(exc).__name__}: {exc}")
            return False
        st.lat.append(t2 - t0)
        scaler.add(st.scaled, t2 - t0)
        if traced:
            result.dumps_s += t2 - t1
        if output.partial:
            st.failed.append(st.done)
        st.done += 1
        result.bytes += len(det_line) + len(trk_line) + 2
        for line in (det_line, trk_line):
            st.digest.update(line.encode())
            st.digest.update(b"\n")
        if st.files is not None:
            st.files[0].write(det_line + "\n")
            st.files[1].write(trk_line + "\n")
    return st.done < st.expected


def _run(spec: dict, prepared: list) -> dict:
    trace = None
    limit = spec.get("frame_limit")
    if spec["trace"]:
        from tracing import Trace

        trace = Trace()
        trace.install_counters()
    check = _run_pass(prepared, limit, spec["out_dir"])
    counts = None
    if trace is not None:
        trace.uninstall()
        counts = dict(trace.counts)

    # Whole passes only, so every run attempts whole rounds of the same
    # frames; a pass starts only if one more of the last pass's length
    # still fits into the run.
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    start = last = time.perf_counter()
    while True:
        untraced.append(_run_pass(prepared, limit, None))
        if trace is not None:
            trace.install_timers()
            traced.append(_run_pass(prepared, limit, None, traced=True))
            trace.uninstall()
        now = time.perf_counter()
        if spec["single_pass"] or now + (now - last) > start + spec["seconds"]:
            break
        last = now

    passes = [check] + untraced + traced
    out = {
        "attempted": sum(p.frames for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": sorted({e for p in passes for e in p.errors}),
        "hashes_agree": all(p.hashes == check.hashes for p in passes),
        "passes": len(passes),
        "check_failed_frames": check.failed_frames,
        "check_frames": check.frames,
        "bytes_per_frame": check.bytes / check.frames if check.frames else 0.0,
        "untraced": [
            {
                "latencies_s": p.latencies,
                "scaled_s": p.scaled,
                "frames": p.frames,
                "cal_s": p.cal_s,
            }
            for p in untraced
        ],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace is not None:
        out["counts"] = counts
        out["traced"] = {
            "scaled_s": [x for p in traced for lat in p.scaled for x in lat],
            "frames": sum(p.frames for p in traced),
            "dumps_s": sum(p.dumps_s for p in traced),
            "layer_ms": {name: trace.total_ms(name) for name in trace.times},
        }
    return out


def main(argv: list[str]) -> int:
    mode, spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    split = _import_split()
    _check_source(spec["src"])
    if mode == "render":
        _render(spec)
        result: dict = {}
    else:
        prepared = _setup(spec)
        result = {"setup_s": CLOCK(), "split": split}
        if mode == "run":
            # Frames run on one core, tile threads included (threads
            # started from here on inherit it), so that the calibration
            # measures the core the frames ran on: the host loads its
            # cores unevenly (README.md, "Host speed"). Set-up stays
            # unpinned, as a user starts the program.
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            result.update(_run(spec, prepared))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
