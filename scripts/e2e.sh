#!/usr/bin/env bash
# End-to-end distributed-scan smoke: build the CLI, train and save a model,
# take a single-process tiled-scan reference report, launch two hotspotd
# backends on localhost, run a distributed scan across them, then run a
# second distributed scan during which one backend is killed mid-flight,
# then kill -9 a third distributed scan (with a shard store) once it has
# stored two shards and resume it from the store — every distributed
# report must be byte-identical to the local reference.
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

echo "e2e smoke: OK (distributed reports byte-identical to local scan)"
