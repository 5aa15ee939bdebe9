"""Benchmark of the panotrack pipeline: per-frame latency across viewport
strategies and crowd sizes, with a traced per-layer split.

    python3 perfbench/run.py --workload surround --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --quick

Run from the root of a source checkout; the package is imported from
its ``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See
README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # fresh-interpreter set-ups per run, the run worker's own included
QUICK_FRAMES = 45

class BenchError(Exception):
    pass


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _worker(mode: str, spec: dict, workdir: Path, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result. For
    modes that set up, ``setup_s`` is the CPU time the interpreter spent
    from its launch until it was ready to process its first frame."""
    spec_path = workdir / f"{mode}.spec.json"
    result_path = workdir / f"{mode}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(result_path)],
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


def _layer_metrics(spec: dict, run: dict, setups: list[dict]) -> dict:
    traced = run["traced"]
    frames = traced["frames"]
    layer = traced["layer_ms"]
    counts = run["counts"]  # from the check pass
    check_frames = run["check_frames"]

    def per_frame(name: str) -> float:
        return layer.get(name, 0.0) / frames

    def count_per_frame(name: str) -> float:
        return counts.get(name, 0) / check_frames

    m = {}
    for key in ("import_numpy_s", "import_scipy_optimize_s", "import_panotrack_s"):
        m[f"setup.{key}"] = (statistics.median(s["split"][key] for s in setups), "s")
    m["sim.frame_ms"] = (per_frame("sim.frame"), "ms")
    m["sim.detector_ms"] = (per_frame("sim.detector"), "ms")
    m["detect.viewports_per_frame"] = (count_per_frame("detect.viewports"), "count/frame")
    m["detect.strategy_ms"] = (per_frame("detect.strategy"), "ms")
    m["detect.overhead_ms"] = (per_frame("detect.strategy") - per_frame("sim.detector"), "ms")
    m["detect.fuse_ms"] = (per_frame("detect.fuse"), "ms")
    raw, fused = counts.get("detect.raw", 0), counts.get("detect.fused", 0)
    m["detect.raw_per_frame"] = (raw / check_frames, "count/frame")
    m["detect.fused_per_frame"] = (fused / check_frames, "count/frame")
    m["detect.useful_share"] = (fused / raw if raw else 0.0, "ratio")
    for strategy in workloads.STRATEGIES:
        lat = [
            x * 1000.0
            for p in run["untraced"]
            for stream, stream_lat in zip(spec["streams"], p["scaled_s"])
            if stream["strategy"] == strategy
            for x in stream_lat
        ]
        m[f"pipeline.{strategy}.frame_ms_p50"] = (_percentile(lat, 0.5) if lat else 0.0, "ms")
    step, assoc, scalar = (
        per_frame("tracker.step"),
        per_frame("tracker.associate"),
        per_frame("tracker.scalar_update"),
    )
    m["tracker.step_ms"] = (step, "ms")
    m["tracker.associate_ms"] = (assoc, "ms")
    m["tracker.scalar_update_ms"] = (scalar, "ms")
    m["tracker.rest_ms"] = (step - assoc - scalar, "ms")
    m["tracker.scalar_updates"] = (count_per_frame("tracker.scalar_updates"), "count/frame")
    m["geometry.world_to_image_calls"] = (
        count_per_frame("geometry.world_to_image_calls"), "count/frame")
    m["geometry.wrap_distance_calls"] = (
        count_per_frame("geometry.wrap_distance_calls"), "count/frame")
    m["io.parse_ms"] = (per_frame("io.parse"), "ms")
    m["io.serialize_ms"] = (per_frame("io.serialize") + 1000.0 * traced["dumps_s"] / frames, "ms")
    m["io.bytes_per_frame"] = (run["bytes_per_frame"], "B")
    untraced_all = [x for p in run["untraced"] for lat in p["scaled_s"] for x in lat]
    m["trace.overhead_ms"] = (
        1000.0 * (statistics.fmean(traced["scaled_s"]) - statistics.fmean(untraced_all)), "ms")
    m["code.src_lines"] = (_src_lines(), "lines")
    return m


def _end_to_end_metrics(run: dict, setups: list[dict]) -> dict:
    """Latency and throughput over every frame of the timed passes, from
    frame times scaled to the reference host speed (worker.py)."""
    lat_ms = [x * 1000.0 for p in run["untraced"] for lat in p["scaled_s"] for x in lat]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "frame_ms_p50": (_percentile(lat_ms, 0.5), "ms"),
        "frame_ms_p90": (_percentile(lat_ms, 0.9), "ms"),
        "frames_per_s": (1000.0 * len(lat_ms) / sum(lat_ms), "frames/s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
    }


def _as_measured(run: dict) -> dict:
    """The unscaled figures and the host speed behind the scaling, for
    the printed summary only."""
    cal = [x * 1000.0 for p in run["untraced"] for x in p["cal_s"]]
    raw = [x * 1000.0 for p in run["untraced"] for lat in p["latencies_s"] for x in lat]
    return {
        "calibration_ms_p50": (statistics.median(cal), "ms"),
        "calibration_ms_reference": (1000.0 * worker.REF_CAL_S, "ms"),
        "frame_ms_p50_unscaled": (_percentile(raw, 0.5), "ms"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        spec = workloads.build(workload, seed, ROOT, workdir)
        spec.update(
            src=str(SRC),
            out_dir=str(workdir),
            seconds=seconds,
            trace=trace,
            frame_limit=QUICK_FRAMES if quick else None,
            single_pass=quick,
        )
        if spec["render"]:
            _worker("render", spec, workdir, timeout=90)
        # an untimed set-up first, so every timed one finds the bytecode cache warm
        _worker("probe", spec, workdir, timeout=60)
        samples = 1 if quick else SETUP_SAMPLES - 1
        setups = [_worker("probe", spec, workdir, timeout=60) for _ in range(samples)]
        run = _worker("run", spec, workdir, timeout=seconds + 120)
        setups.append(run)

        reports, problems = checks.check_workload(spec, workdir, spec["frame_limit"])
        if not run["hashes_agree"]:
            problems.append("passes over the same inputs produced different streams")
        # a frame that fails a check fails identically in every pass
        # (the streams are compared byte for byte), so count it per pass
        extra = sum(
            len(report.failed - set(worker_failed))
            for report, worker_failed in zip(reports, run["check_failed_frames"])
        )
        failed = run["failed"] + extra * run["passes"]
        metrics = (
            _layer_metrics(spec, run, setups) if trace else _end_to_end_metrics(run, setups)
        )
        return {
            "workload": workload,
            "correct": not problems,
            "attempted": run["attempted"],
            "failed": failed,
            "problems": problems + run["errors"],
            "reasons": {r.name: r.reasons for r in reports if r.reasons},
            "metrics": metrics,
            "as_measured": _as_measured(run),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_summary(result: dict) -> None:
    print(
        f"{result['workload']}: attempted {result['attempted']} frames,"
        f" failed {result['failed']}, correct {result['correct']}"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    for name, (value, unit) in result["as_measured"].items():
        print(f"  ({name:30s} {value:14.4f} {unit})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, reasons in result["reasons"].items():
        print(f"  failed frames in {name}: {reasons}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"first {QUICK_FRAMES} frames of each stream, one pass: every check, no stable figures",
    )
    args = parser.parse_args(argv)

    if not (SRC / "panotrack" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no panotrack source tree at {ROOT}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
            _print_summary(result)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
