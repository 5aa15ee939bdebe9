#!/usr/bin/env bash
# Byte identity of panotrack's output files between two source trees.
#
#   tools/byte_identity.sh BASE_SRC HEAD_SRC
#
# BASE_SRC and HEAD_SRC are the `src` directories of two checkouts, such
# as a worktree or a `git archive` of the parent commit and this one.
# Both sides run `panotrack track` and `panotrack simulate` on the
# bundled scenarios and on crowds built below from them, `eval` on each
# bundled run and `sensitivity` at its defaults, and each pair of
# tracks.jsonl, detections.jsonl, ground_truth.jsonl, scenario.json,
# report.json, error_vs_distance.csv, eval summary and sensitivity.csv
# files is compared. Every differing file is named; the script exits 1
# if any differs, and with the failing command's status if a run fails.
# The bundled scenarios are read from the checkout that holds this
# script; the runs go to a new directory under $TMPDIR (default /tmp),
# which is left in place for inspection.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_SRC HEAD_SRC" >&2
  exit 2
fi
base_src="$(realpath "$1")"
head_src="$(realpath "$2")"
cd "$(dirname "$0")/.."
work="$(mktemp -d "${TMPDIR:-/tmp}/byte-identity.XXXXXX")"
echo "outputs in $work"

# runs panotrack at the base (first argument) or the head
panotrack_at() {
  local src="$head_src"
  [ "$1" = base ] && src="$base_src"
  shift
  PYTHONPATH="$src" python3 -m panotrack "$@"
}
track() {
  local side="$1"
  shift
  panotrack_at "$side" track "$@"
}
compared=0
differing=0
# compares the named files of one run at the base and at the head
compare() {
  local run="$1" f
  shift
  for f in "$@"; do
    compared=$((compared + 1))
    if ! cmp -- "$work/base/$run/$f" "$work/head/$run/$f"; then
      differing=$((differing + 1))
      echo "DIFFERS: $run/$f"
    fi
  done
}
same() {
  compare "$1" tracks.jsonl detections.jsonl
}
# writes an offline config: the detections file and the scenario's camera,
# and the tracker keys given as a JSON object, if any
offline_config() {
  python3 -c "import json, sys; print(json.dumps({'detections': sys.argv[1], 'camera': json.load(open(sys.argv[2]))['cam'], **json.loads((sys.argv[3:] or ['{}'])[0])}))" \
    "$@"
}

# a crowd of 48 circling people, for the association and spawn paths;
# the same crowd with joint noise, dropout and occlusion, for the
# neck-only and neckless paths; and the noisy crowd seen from a
# moving camera and annotated every 4th frame, so that on most
# frames the detector, not the ground truth, renders the frame
python3 - "$work/crowd.json" "$work/noisy.json" "$work/moving.json" <<'EOF'
import json, sys
with open("scenarios/circle_2m.json") as fh:
    d = json.load(fh)
body = d["agents"][0]["body"]
d["duration"] = 3.0
d["agents"] = [
    {
        "id": i,
        "body": body,
        "trajectory": {
            "type": "circle", "center": [0.0, 0.0], "radius": 1.5 + 0.04 * i,
            "angular_speed": 30.0 * (-1) ** i, "start_angle": 7.5 * i,
        },
    }
    for i in range(48)
]
with open(sys.argv[1], "w") as fh:
    json.dump(d, fh)
d["noise"] = {"joint_sigma": 1.5, "miss_prob": 0.1, "occlusion_enabled": True}
with open(sys.argv[2], "w") as fh:
    json.dump(d, fh)
d["camera_trajectory"] = {
    "type": "circle", "center": [0.0, 0.0], "radius": 0.5, "angular_speed": 20.0,
}
d["annotate_every"] = 4
with open(sys.argv[3], "w") as fh:
    json.dump(d, fh)
EOF
for side in base head; do
  track "$side" --scenario "$work/crowd.json" --strategy fullframe --seed 0 \
    --out "$work/$side/crowd"
  track "$side" --scenario "$work/noisy.json" --strategy tiles --seed 0 \
    --out "$work/$side/noisy"
  # the full pass and the crop read one render of each frame
  track "$side" --scenario "$work/noisy.json" --strategy roi --seed 0 \
    --out "$work/$side/noisy-roi"
  track "$side" --scenario "$work/moving.json" --strategy tiles --seed 0 \
    --out "$work/$side/moving"
done
same crowd
same noisy
same noisy-roi
same moving
offline_config "$work/head/noisy/detections.jsonl" "$work/noisy.json" > "$work/noisy-offline.json"
for side in base head; do
  track "$side" --config "$work/noisy-offline.json" --out "$work/$side/noisy-offline"
done
same noisy-offline
# the noisy crowd again, live and offline, with every tracker key
# off its default: each value but jitter_floor changes its tracks,
# so a key lost on its way to the filter shows up here
python3 - "$work/noisy.json" "$work/head/noisy/detections.jsonl" \
  "$work/noisy-tracker.json" "$work/noisy-tracker-offline.json" <<'EOF'
import json, sys
tracker = {
    "alpha": 0.2, "beta": 1.5, "kappa": 0.5,
    "process_noise": [0.06, 0.04, 0.6, 0.4, 0.02], "measurement_noise": 5.0,
    "gate_px": 40.0, "confirm_hits": 2, "lose_after_misses": 5,
    "wrap_correction": False, "mahalanobis_gate": 20.0,
    "initial_variance": [0.3, 0.2, 1.5, 0.5, 0.05], "jitter_floor": 1e-08,
    "spawn_suppression_px": 10.0,
}
with open(sys.argv[1]) as fh:
    camera = json.load(fh)["cam"]
with open(sys.argv[3], "w") as fh:
    json.dump({"tracker": tracker}, fh)
with open(sys.argv[4], "w") as fh:
    json.dump({"detections": sys.argv[2], "camera": camera, "tracker": tracker}, fh)
EOF
for side in base head; do
  track "$side" --config "$work/noisy-tracker.json" --scenario "$work/noisy.json" \
    --strategy tiles --seed 0 --out "$work/$side/noisy-tracker"
  track "$side" --config "$work/noisy-tracker-offline.json" \
    --out "$work/$side/noisy-tracker-offline"
done
same noisy-tracker
same noisy-tracker-offline
# the noisy crowd under 6 tiles with a loose merge threshold: tiles
# that are not neighbours see no common column, so fusion meets
# non-adjacent pairs, which 3 tiles never have, and many partial
# overlaps
echo '{"tiles": {"n_tiles": 6, "merge_threshold": 0.5}}' > "$work/six-tiles.json"
for side in base head; do
  track "$side" --config "$work/six-tiles.json" --scenario "$work/noisy.json" \
    --strategy tiles --seed 0 --out "$work/$side/noisy-six-tiles"
done
same noisy-six-tiles
# the noisy crowd under 2 tiles: both overlaps, the one mid-image
# and the one across the seam, lie between the one pair of tiles,
# (0, 1), which fusion visits once
echo '{"tiles": {"n_tiles": 2}}' > "$work/two-tiles.json"
for side in base head; do
  track "$side" --config "$work/two-tiles.json" --scenario "$work/noisy.json" \
    --strategy tiles --seed 0 --out "$work/$side/noisy-two-tiles"
done
same noisy-two-tiles
# the noisy crowd with a merge threshold of 1e-6 under tiles and roi:
# any positive torso-box overlap fuses, so a pair that the sorted
# window fails to return changes the detections
echo '{"tiles": {"merge_threshold": 1e-6}, "roi": {"merge_threshold": 1e-6}}' \
  > "$work/any-overlap.json"
for k in tiles roi; do
  for side in base head; do
    track "$side" --config "$work/any-overlap.json" --scenario "$work/noisy.json" \
      --strategy "$k" --seed 0 --out "$work/$side/noisy-any-overlap-$k"
  done
  same "noisy-any-overlap-$k"
done
# the seam walker with joint noise and half of its joints dropped, so
# that many matches are neck-only near the seam: the ankle midpoint
# and the neck share one unwrapped sigma column, and a neck-only
# update reads the neck slices of the innovation stage; live under
# tiles and roi, and tracked offline from the head's detections
python3 - "$work/seam-noisy.json" <<'EOF'
import json, sys
with open("scenarios/seam_walker.json") as fh:
    d = json.load(fh)
d["noise"] = {"joint_sigma": 1.5, "miss_prob": 0.5, "occlusion_enabled": False}
with open(sys.argv[1], "w") as fh:
    json.dump(d, fh)
EOF
for k in tiles roi; do
  for side in base head; do
    track "$side" --scenario "$work/seam-noisy.json" --strategy "$k" --seed 0 \
      --out "$work/$side/seam-noisy-$k"
  done
  same "seam-noisy-$k"
  offline_config "$work/head/seam-noisy-$k/detections.jsonl" "$work/seam-noisy.json" > "$work/seam-noisy-$k.json"
  for side in base head; do
    track "$side" --config "$work/seam-noisy-$k.json" --out "$work/$side/seam-noisy-$k-offline"
  done
  same "seam-noisy-$k-offline"
done
# a crowd of 200, the size the benchmark's offline crowd tracks, with
# 5 % joint dropout; the crowd stays out of the sector around +x,
# where four walkers cross the edge of detection range (about
# 10.8 m), so that tracks spawn and are lost mid-run: the tracker
# appends and drops rows at this size; each person starts at its own
# azimuth in [70, 289] degrees, so every frame has people in the
# tile overlaps; run live under tiles, which puts about 240
# detections a frame through the viewport path and fuses them to
# about 190, and tracked offline from the head's detections
python3 - "$work/crowd200.json" <<'EOF'
import json, math, sys
with open("scenarios/circle_2m.json") as fh:
    d = json.load(fh)
body = d["agents"][0]["body"]
d["duration"] = 2.0
d["noise"] = {"joint_sigma": 1.0, "miss_prob": 0.05, "occlusion_enabled": False}
d["agents"] = [
    {
        "id": i,
        "body": body,
        "trajectory": {
            "type": "circle", "center": [0.0, 0.0], "radius": 1.5 + 0.0275 * i,
            "angular_speed": 15.0 * (-1) ** i, "start_angle": 70.0 + 1.1 * i,
        },
    }
    for i in range(200)
]
for k in range(4):
    a = math.radians(20.0 * k - 30.0)
    start, end = (9.8, 12.8) if k % 2 else (12.8, 9.8)  # out by frame 20, in at 40
    d["agents"].append({
        "id": 200 + k,
        "body": body,
        "trajectory": {
            "type": "waypoints",
            "points": [[r * math.cos(a), r * math.sin(a)] for r in (start, end)],
            "speed": 1.5,
        },
    })
with open(sys.argv[1], "w") as fh:
    json.dump(d, fh)
EOF
for side in base head; do
  track "$side" --scenario "$work/crowd200.json" --strategy tiles --seed 0 \
    --out "$work/$side/crowd200-live"
done
same crowd200-live
offline_config "$work/head/crowd200-live/detections.jsonl" "$work/crowd200.json" > "$work/crowd200-offline.json"
for side in base head; do
  track "$side" --config "$work/crowd200-offline.json" --out "$work/$side/crowd200-offline"
done
same crowd200-offline
# the same detections re-tracked with a tight and a loose gate: at
# 1 px almost no detection matches, so most frames form the
# innovation stage and update nothing; at 40 px each track's column
# window holds a few detections; at 1000 px, past half the panorama,
# association scores every pair
for gate in 1.0 40.0 1000.0; do
  offline_config "$work/head/crowd200-live/detections.jsonl" "$work/crowd200.json" \
    "{\"tracker\": {\"gate_px\": $gate}}" > "$work/crowd200-gate-$gate.json"
  for side in base head; do
    track "$side" --config "$work/crowd200-gate-$gate.json" --out "$work/$side/crowd200-gate-$gate"
  done
  same "crowd200-gate-$gate"
done
# the same crowd with occlusion on, so that each frame's occlusion
# test meets 204 footprints (the 48-person noisy crowd is the only
# other occlusion case): live under tiles and roi, and tracked
# offline from the head's tiles detections
python3 - "$work/crowd200.json" "$work/crowd200-occluded.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    d = json.load(fh)
d["noise"]["occlusion_enabled"] = True
with open(sys.argv[2], "w") as fh:
    json.dump(d, fh)
EOF
for k in tiles roi; do
  for side in base head; do
    track "$side" --scenario "$work/crowd200-occluded.json" --strategy "$k" --seed 0 \
      --out "$work/$side/crowd200-occluded-$k"
  done
  same "crowd200-occluded-$k"
done
offline_config "$work/head/crowd200-occluded-tiles/detections.jsonl" "$work/crowd200-occluded.json" \
  > "$work/crowd200-occluded-offline.json"
for side in base head; do
  track "$side" --config "$work/crowd200-occluded-offline.json" \
    --out "$work/$side/crowd200-occluded-offline"
done
same crowd200-occluded-offline
# the same records as an external detector might write them, for the
# offline reader's normalization: joints in shuffled order, some
# coordinates rounded to integers, some confidences dropped and some
# written as the integers 0 and 1; and some neck columns written a
# panorama width below or above [0, W), the same column, which the
# reader accepts and association measures the short way round
python3 - "$work/head/crowd200-live/detections.jsonl" "$work/crowd200-raw.jsonl" \
  "$work/crowd200.json" <<'EOF'
import json, random, sys
rng = random.Random(11)
shift = random.Random(13)  # its own stream: the other choices are as before
with open(sys.argv[3]) as fh:
    width = json.load(fh)["cam"]["image_width"]
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as dst:
    for line in src:
        record = json.loads(line)
        for det in record["detections"]:
            joints = list(det["joints"].items())
            rng.shuffle(joints)
            det["joints"] = {}
            for name, (x, y, c) in joints:
                if name == "neck" and shift.random() < 0.2:
                    x += shift.choice([-width, width])
                if rng.random() < 0.3:
                    x, y = round(x), round(y)
                r = rng.random()
                if r < 0.2:
                    det["joints"][name] = [x, y]
                elif r < 0.4:
                    det["joints"][name] = [x, y, rng.choice([0, 1])]
                else:
                    det["joints"][name] = [x, y, c]
        dst.write(json.dumps(record) + "\n")
EOF
offline_config "$work/crowd200-raw.jsonl" "$work/crowd200.json" > "$work/crowd200-raw.json"
for side in base head; do
  track "$side" --config "$work/crowd200-raw.json" --out "$work/$side/crowd200-raw"
done
same crowd200-raw
# the same records with a key the reader does not read added to
# every third record, its value a text that orjson rejects: NaN
# and a lone surrogate escape in turn, so that these lines are
# read by Python's json, which must give the values it gave
python3 - "$work/head/crowd200-live/detections.jsonl" "$work/crowd200-note.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as dst:
    for i, line in enumerate(src):
        record = json.loads(line)
        if i % 3 == 0:
            record["note"] = float("nan") if i % 6 == 0 else "\ud800"
        dst.write(json.dumps(record) + "\n")
EOF
offline_config "$work/crowd200-note.jsonl" "$work/crowd200.json" > "$work/crowd200-note.json"
for side in base head; do
  track "$side" --config "$work/crowd200-note.json" --out "$work/$side/crowd200-note"
done
same crowd200-note
# the same records with one ankle of about one detection in five
# written a panorama width below or above its column, so that the
# reader's ankle midpoint meets columns outside [0, W) on both
# sides of the seam (crowd200-raw shifts only necks); the choices
# come from a stream of their own
python3 - "$work/head/crowd200-live/detections.jsonl" "$work/crowd200-ankles.jsonl" \
  "$work/crowd200.json" <<'EOF'
import json, random, sys
rng = random.Random(17)
with open(sys.argv[3]) as fh:
    width = json.load(fh)["cam"]["image_width"]
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as dst:
    for line in src:
        record = json.loads(line)
        for det in record["detections"]:
            ankles = [n for n in ("left_ankle", "right_ankle") if n in det["joints"]]
            if ankles and rng.random() < 0.2:
                det["joints"][rng.choice(ankles)][0] += rng.choice([-width, width])
        dst.write(json.dumps(record) + "\n")
EOF
offline_config "$work/crowd200-ankles.jsonl" "$work/crowd200.json" > "$work/crowd200-ankles.json"
for side in base head; do
  track "$side" --config "$work/crowd200-ankles.json" --out "$work/$side/crowd200-ankles"
done
same crowd200-ankles
for s in circle_2m seam_walker range_sweep; do
  for k in tiles roi fullframe; do
    for side in base head; do
      track "$side" --scenario "scenarios/$s.json" --strategy "$k" --seed 0 \
        --out "$work/$side/$s-$k"
    done
    same "$s-$k"
    # the offline path: both sides re-track the head's detections
    offline_config "$work/head/$s-$k/detections.jsonl" "scenarios/$s.json" > "$work/$s-$k.json"
    for side in base head; do
      track "$side" --config "$work/$s-$k.json" --out "$work/$side/$s-$k-offline"
    done
    same "$s-$k-offline"
  done
done
# the scenario reader and the defaults it fills in, and the ground
# truth of 204 people, four of them on waypoints
for s in scenarios/circle_2m.json scenarios/seam_walker.json scenarios/range_sweep.json \
  "$work/crowd.json" "$work/noisy.json" "$work/moving.json" \
  "$work/seam-noisy.json" "$work/crowd200.json" \
  "$work/crowd200-occluded.json"; do
  name="sim-$(basename "$s" .json)"
  for side in base head; do
    panotrack_at "$side" simulate --scenario "$s" --out "$work/$side/$name"
  done
  compare "$name" ground_truth.jsonl scenario.json
done
# each side scores its own bundled runs against its own ground truth
for s in circle_2m seam_walker range_sweep; do
  for k in tiles roi fullframe; do
    for side in base head; do
      mkdir -p "$work/$side/$s-$k-eval"
      panotrack_at "$side" eval --gt "$work/$side/sim-$s/ground_truth.jsonl" \
        --tracks "$work/$side/$s-$k/tracks.jsonl" --out "$work/$side/$s-$k-eval" \
        > "$work/$side/$s-$k-eval/summary.txt"
    done
    compare "$s-$k-eval" report.json error_vs_distance.csv summary.txt
  done
done
for side in base head; do
  panotrack_at "$side" sensitivity --out "$work/$side/sensitivity"
done
compare sensitivity sensitivity.csv

echo "$compared files compared, $differing differ"
[ "$differing" -eq 0 ]
