#!/usr/bin/env bash
# End-to-end distributed-scan smoke: build the CLI, train and save a model,
# take a single-process tiled-scan reference report, launch two hotspotd
# backends on localhost, run a distributed scan across them, then run a
# second distributed scan during which one backend is killed mid-flight,
# then kill -9 a third distributed scan (with a shard store) once it has
# stored two shards and resume it from the store — every distributed
# report must be byte-identical to the local reference. Then a layout
# whose coordinates reach the int32 limit is posted to the surviving
# backend: it must answer 400 and stay ready, and a small in-range layout
# in an old body that still carries "tiled": false must scan (200, with
# tile counters). Last, the benchmark's training clip set is posted to
# /v1/detect whole, then its first 16 clips one per request: each lone
# label must equal that clip's label in the whole set's answer.
#
# Mirrors the `e2e` job in .github/workflows/ci.yml; run locally with
# `make e2e`. Tunables (env): BENCH, SCALE, TILE, SHARDS, PORT1, PORT2.
set -euo pipefail

BENCH=${BENCH:-MX_benchmark1}
SCALE=${SCALE:-0.25}
TILE=${TILE:-7500}
SHARDS=${SHARDS:-4}
PORT1=${PORT1:-18311}
PORT2=${PORT2:-18312}

work=$(mktemp -d)
pids=()
cleanup() {
  local code=$?
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$work"
  exit "$code"
}
trap cleanup EXIT

bin="$work/hotspot"
echo "==> building hotspot"
go build -o "$bin" ./cmd/hotspot

echo "==> training model ($BENCH, scale $SCALE)"
"$bin" train -bench "$BENCH" -scale "$SCALE" -out "$work/model.json" >/dev/null

echo "==> local reference scan"
"$bin" scan -bench "$BENCH" -scale "$SCALE" -model "$work/model.json" \
  -tile "$TILE" -report "$work/local.json"

wait_ready() {
  local port=$1
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:$port/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "backend on port $port never became ready" >&2
  return 1
}

start_backend() {
  local port=$1
  "$bin" serve -addr "127.0.0.1:$port" -model "$work/model.json" \
    -timeout 10m >"$work/backend-$port.log" 2>&1 &
  pids+=($!)
  wait_ready "$port"
}

echo "==> launching two hotspotd backends"
start_backend "$PORT1"
start_backend "$PORT2"
backends="127.0.0.1:$PORT1,127.0.0.1:$PORT2"

echo "==> distributed scan across both backends"
"$bin" scan -bench "$BENCH" -scale "$SCALE" -model "$work/model.json" \
  -tile "$TILE" -shards "$SHARDS" -backends "$backends" \
  -report "$work/dist.json"

echo "==> comparing distributed report against local reference"
diff -u "$work/local.json" "$work/dist.json"

echo "==> distributed scan with backend 2 killed mid-scan"
"$bin" scan -bench "$BENCH" -scale "$SCALE" -model "$work/model.json" \
  -tile "$TILE" -shards "$SHARDS" -backends "$backends" \
  -report "$work/dist-kill.json" &
scan_pid=$!
sleep 0.3
kill -9 "${pids[1]}" 2>/dev/null || true
wait "$scan_pid"

echo "==> comparing failover report against local reference"
diff -u "$work/local.json" "$work/dist-kill.json"

echo "==> distributed scan with -store, coordinator killed after two stored shards"
store="$work/resume.store"
"$bin" scan -bench "$BENCH" -scale "$SCALE" -model "$work/model.json" \
  -tile "$TILE" -shards "$SHARDS" -backends "127.0.0.1:$PORT1" \
  -store "$store" >"$work/resume-killed.log" 2>&1 &
scan_pid=$!
# The store is a header line plus one line per completed shard.
store_lines() {
  if [ -f "$store" ]; then wc -l <"$store"; else echo 0; fi
}
for _ in $(seq 1 600); do
  if [ "$(store_lines)" -ge 3 ] || ! kill -0 "$scan_pid" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
kill -9 "$scan_pid" 2>/dev/null || true
wait "$scan_pid" 2>/dev/null || true
stored=$(($(store_lines) - 1))
echo "    coordinator killed with $stored shard(s) stored"
if [ "$stored" -lt 2 ]; then
  cat "$work/resume-killed.log" >&2
  echo "killed scan stored $stored shards, want at least 2" >&2
  exit 1
fi

echo "==> resuming the killed scan from its store"
"$bin" scan -bench "$BENCH" -scale "$SCALE" -model "$work/model.json" \
  -tile "$TILE" -shards "$SHARDS" -backends "127.0.0.1:$PORT1" \
  -store "$store" -incremental -report "$work/dist-resume.json" | tee "$work/resume.log"
cached=$(sed -nE 's/^shards: .*\(([0-9]+) cached,.*/\1/p' "$work/resume.log")
if [ "${cached:-0}" -lt "$stored" ]; then
  echo "resumed scan served ${cached:-0} shards from the store, want at least $stored" >&2
  exit 1
fi

echo "==> comparing resumed report against local reference"
diff -u "$work/local.json" "$work/dist-resume.json"

echo "==> hostile layout: near-MaxInt32 rect must get 400, backend stays ready"
code=$(curl -s -o "$work/hostile.json" -w '%{http_code}' --max-time 20 \
  -d '{"rects": [[2147482000,0,2147483647,100]]}' "http://127.0.0.1:$PORT1/v1/scan")
if [ "$code" != 400 ]; then
  echo "hostile body: status $code, want 400" >&2
  cat "$work/hostile.json" >&2
  exit 1
fi
ready=$(curl -s -o /dev/null -w '%{http_code}' --max-time 5 "http://127.0.0.1:$PORT1/readyz")
if [ "$ready" != 200 ]; then
  echo "backend not ready after the hostile body: /readyz status $ready" >&2
  exit 1
fi

echo "==> old /v1/scan body: \"tiled\": false is ignored and the layout scans"
code=$(curl -s -o "$work/old-body.json" -w '%{http_code}' --max-time 60 \
  -d '{"rects": [[0,0,1200,200],[0,600,1200,800],[300,1200,500,2400]], "tiled": false}' \
  "http://127.0.0.1:$PORT1/v1/scan")
if [ "$code" != 200 ]; then
  echo "old body: status $code, want 200" >&2
  cat "$work/old-body.json" >&2
  exit 1
fi
python3 - "$work/old-body.json" <<'PY'
import json, sys
resp = json.load(open(sys.argv[1]))
done = (resp.get("tiles") or {}).get("TilesDone", 0)
if done <= 0:
    sys.exit(f"old body: response without tiles done: {resp}")
print(f"    scanned {resp['rects']} rects in {done} tiles")
PY

echo "==> /v1/detect: the training clip set whole, then 16 clips one per request"
"$bin" gen -bench "$BENCH" -scale "$SCALE" -train "$work/clips.json" -out "$work/gen.gds" >/dev/null
code=$(curl -s -o "$work/detect-set.json" -w '%{http_code}' --max-time 60 \
  --data-binary @"$work/clips.json" "http://127.0.0.1:$PORT1/v1/detect")
if [ "$code" != 200 ]; then
  echo "clip set: status $code, want 200" >&2
  cat "$work/detect-set.json" >&2
  exit 1
fi
python3 - "$work" <<'PY'
import json, sys
work = sys.argv[1]
clips = json.load(open(f"{work}/clips.json"))
for i, p in enumerate(clips["patterns"][:16]):
    with open(f"{work}/lone-{i}.json", "w") as f:
        json.dump({"version": clips["version"], "patterns": [p]}, f)
PY
for i in $(seq 0 15); do
  code=$(curl -s -o "$work/lone-$i.out" -w '%{http_code}' --max-time 20 \
    --data-binary @"$work/lone-$i.json" "http://127.0.0.1:$PORT1/v1/detect")
  if [ "$code" != 200 ]; then
    echo "lone clip $i: status $code, want 200" >&2
    cat "$work/lone-$i.out" >&2
    exit 1
  fi
done
python3 - "$work" <<'PY'
import json, sys
work = sys.argv[1]
n = len(json.load(open(f"{work}/clips.json"))["patterns"])
whole = json.load(open(f"{work}/detect-set.json"))
if whole["count"] != n or len(whole["labels"]) != n:
    sys.exit(f"clip set of {n}: answer counts {whole['count']} with {len(whole['labels'])} labels")
for i in range(16):
    lone = json.load(open(f"{work}/lone-{i}.out"))
    if lone["count"] != 1 or lone["labels"] != [whole["labels"][i]]:
        sys.exit(f"clip {i}: lone answer {lone}, label {whole['labels'][i]} in the set")
print(f"    {n} clips in one request; 16 lone answers match their set labels")
PY

echo "e2e smoke: OK (distributed reports byte-identical to local scan; hostile body refused; old body scanned; lone /v1/detect labels match the batch)"
