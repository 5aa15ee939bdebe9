"""Workload definitions: the inputs each workload runs, generated from
the workload seed.

Standard library only: the orchestrator and the checks use these
definitions without importing panotrack. A workload is a list of
streams; a stream is one public streaming call of the pipeline over
one input (``run_simulated`` with a strategy, or ``run_offline`` over
a detections JSONL file). One pass of a workload runs every stream
once.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("surround", "crowd_offline", "crowd_live")
BUNDLED = ("circle_2m", "seam_walker", "range_sweep")
STRATEGIES = ("tiles", "roi", "fullframe")

# Default camera of the package, written into generated scenarios so
# the checks read every parameter from the scenario file itself.
CAMERA = {
    "image_width": 1920,
    "image_height": 960,
    "fov_h": 360.0,
    "fov_v": 180.0,
    "mount_height": 1.2,
    "ankle_height": 0.1,
}

FPS = 30.0
CROWD_OFFLINE_PEOPLE = 200
CROWD_OFFLINE_FRAMES = 100
CROWD_LIVE_CIRCLERS = 14
CROWD_LIVE_CROSSERS = 5
CROWD_LIVE_FRAMES = 300


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one from each of n equal slices of [lo, hi), in random
    order. The seed still places every person, but the make-up of the
    crowd (how near, how spread out, how fast) varies little between
    seeds, so neither do the frame costs."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _circlers(rng: random.Random, first_id: int, n: int, r_lo: float, r_hi: float) -> list[dict]:
    radii = _stratified(rng, n, r_lo, r_hi)
    speeds = _stratified(rng, n, 0.8, 1.4)  # m/s, walking pace
    starts = _stratified(rng, n, 0.0, 360.0)
    heights = _stratified(rng, n, 1.55, 1.9)
    flip = rng.randrange(2)
    directions = [1.0 if (i + flip) % 2 else -1.0 for i in range(n)]
    rng.shuffle(directions)
    return [
        {
            "id": first_id + i,
            "trajectory": {
                "type": "circle",
                "center": [0.0, 0.0],
                "radius": radii[i],
                "angular_speed": directions[i] * math.degrees(speeds[i] / radii[i]),
                "start_angle": starts[i],
            },
            "body": {"height": heights[i]},
        }
        for i in range(n)
    ]


def _crossers(rng: random.Random, first_id: int, n: int, distance: float) -> list[dict]:
    """Straight walks along lines passing ``distance`` m from the camera:
    each walker enters full-resolution detection range (about 10.8 m
    for the default camera) and leaves it again."""
    headings = _stratified(rng, n, 0.0, 2.0 * math.pi)  # closest-approach direction
    starts = _stratified(rng, n, -12.0, -4.0)  # m along the line before that point
    speeds = _stratified(rng, n, 1.2, 1.6)
    heights = _stratified(rng, n, 1.55, 1.9)
    agents = []
    for i in range(n):
        nx, ny = math.cos(headings[i]), math.sin(headings[i])
        tx, ty = -ny, nx  # walking direction
        start, end = starts[i], starts[i] + 20.0
        agents.append(
            {
                "id": first_id + i,
                "trajectory": {
                    "type": "waypoints",
                    "points": [
                        [distance * nx + start * tx, distance * ny + start * ty],
                        [distance * nx + end * tx, distance * ny + end * ty],
                    ],
                    "speed": speeds[i],
                },
                "body": {"height": heights[i]},
            }
        )
    return agents


def _scenario(agents: list[dict], n_frames: int, noise: dict, seed: int) -> dict:
    return {
        "cam": dict(CAMERA),
        "fps": FPS,
        "duration": n_frames / FPS,
        "agents": agents,
        "noise": noise,
        "seed": seed,
        "annotate_every": 1,
        "annotate_from": 0,
    }


def crowd_offline_scenario(seed: int) -> dict:
    """About 200 people circling at 1.5-7 m; 1 px joint noise and 5 %
    joint dropout, so some matches take the neck-only update."""
    rng = random.Random(f"crowd_offline:{seed}")
    agents = _circlers(rng, 0, CROWD_OFFLINE_PEOPLE, 1.5, 7.0)
    noise = {"joint_sigma": 1.0, "miss_prob": 0.05, "occlusion_enabled": False}
    return _scenario(agents, CROWD_OFFLINE_FRAMES, noise, seed)


def crowd_live_scenario(seed: int) -> dict:
    """The target (agent 0) circling at 2 m, 14 people circling at
    2.5-7 m and 5 crossing at 9 m; occlusion on, 5 % joint dropout."""
    rng = random.Random(f"crowd_live:{seed}")
    agents = _circlers(rng, 0, 1, 2.0, 2.0)
    agents += _circlers(rng, 1, CROWD_LIVE_CIRCLERS, 2.5, 7.0)
    agents += _crossers(rng, 1 + CROWD_LIVE_CIRCLERS, CROWD_LIVE_CROSSERS, 9.0)
    noise = {"joint_sigma": 1.0, "miss_prob": 0.05, "occlusion_enabled": True}
    return _scenario(agents, CROWD_LIVE_FRAMES, noise, seed)


def n_frames(scenario: dict) -> int:
    return int(round(scenario["duration"] * scenario["fps"]))


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's inputs into ``workdir`` and return its spec:
    the streams of one pass and, for the offline workload, the
    detections file the simulator must render before timing."""
    streams = []
    render = []
    if workload == "surround":
        for name in BUNDLED:
            scn = json.loads((root / "scenarios" / f"{name}.json").read_text("utf-8"))
            scn["seed"] = seed  # detector noise substream
            path = _write(workdir / f"{name}.json", scn)
            for strategy in STRATEGIES:
                streams.append(
                    {"name": f"{name}/{strategy}", "kind": "simulated",
                     "scenario": path, "strategy": strategy}
                )
    elif workload == "crowd_live":
        path = _write(workdir / "crowd_live.json", crowd_live_scenario(seed))
        for strategy in ("tiles", "roi"):
            streams.append(
                {"name": f"crowd_live/{strategy}", "kind": "simulated",
                 "scenario": path, "strategy": strategy}
            )
    elif workload == "crowd_offline":
        path = _write(workdir / "crowd_offline.json", crowd_offline_scenario(seed))
        detections = str(workdir / "crowd_offline.detections.jsonl")
        render.append({"scenario": path, "out": detections})
        streams.append(
            {"name": "crowd_offline/offline", "kind": "offline",
             "scenario": path, "detections": detections, "strategy": None}
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for stream in streams:
        scn = json.loads(Path(stream["scenario"]).read_text("utf-8"))
        stream["frames"] = n_frames(scn)
    return {"workload": workload, "seed": seed, "streams": streams, "render": render}
