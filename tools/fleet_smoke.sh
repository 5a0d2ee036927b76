#!/bin/bash
# Fleet smoke drill (wired into CI): a frontend over two real shard
# processes serving a model produced by the actual pipeline, load
# pushed through the frontend in batches, one shard SIGKILLed
# mid-traffic. Asserts, in order:
#   1. warm traffic is 100% ok with both shards up,
#   2. the batches straddling the kill stay within a 1% error budget
#      (failover re-routes in-flight work to the survivor),
#   3. the survivor serves 100% after the kill,
#   4. hot reload through the frontend still succeeds (the Dead shard
#      is skipped, every live shard swaps),
#   5. the observability surface survives the drill: the merged fleet
#      trace and the federated metrics export are valid JSON, the
#      frontend's event log and metrics scrape are valid JSON-lines,
#      and the --fleet-top console renders.
# Environment: TAGLETS_RUN (taglets_run binary, default build/tools/),
# TAGLETS_FLEET_MODEL (pre-built model.bin; built here when unset),
# TAGLETS_FLEET_ARTIFACTS (copy trace/metrics/events/scrape artifacts
# into this directory for CI upload; unset = skip).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN=${TAGLETS_RUN:-build/tools/taglets_run}
DIR=$(mktemp -d /tmp/taglets_fleet_smoke.XXXXXX)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

MODEL=${TAGLETS_FLEET_MODEL:-$DIR/model.bin}
if [ ! -f "$MODEL" ]; then
  echo "[fleet-smoke] building a pipeline model..."
  $RUN --dataset fmd --shots 1 --scale 0.05 --modules transfer,prototype \
    --save "$MODEL" >/dev/null
fi

echo "[fleet-smoke] starting 2 shards + frontend (tracing on fleet-wide)"
TAGLETS_TRACE=1 $RUN --fleet-shard --load "$MODEL" \
  --fleet-endpoint "unix:$DIR/s0.sock" &
S0=$!; PIDS+=("$S0")
TAGLETS_TRACE=1 $RUN --fleet-shard --load "$MODEL" \
  --fleet-endpoint "unix:$DIR/s1.sock" &
S1=$!; PIDS+=("$S1")
TAGLETS_TRACE=1 $RUN --fleet-frontend --fleet-endpoint "unix:$DIR/front.sock" \
  --fleet-groups "g0=unix:$DIR/s0.sock;g1=unix:$DIR/s1.sock" \
  --fleet-heartbeat-ms 20 --fleet-suspect-ms 150 --fleet-dead-ms 500 \
  --fleet-events-out "$DIR/events.jsonl" \
  --fleet-scrape-out "$DIR/scrape.jsonl" --fleet-scrape-interval-ms 250 &
FE=$!; PIDS+=("$FE")

ready=0
for _ in $(seq 1 100); do
  if $RUN --fleet-connect "unix:$DIR/front.sock" --fleet-ping \
      >/dev/null 2>&1; then
    ready=1; break
  fi
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "FAIL: frontend never became reachable"; exit 1; }

echo "[fleet-smoke] warm traffic (must be 100% ok)"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-predict 200

echo "[fleet-smoke] pushing load, SIGKILLing shard 0 mid-traffic"
(
  for _ in $(seq 1 30); do
    $RUN --fleet-connect "unix:$DIR/front.sock" --fleet-predict 200 \
      >> "$DIR/kill_batches.out" 2>&1 || true
  done
) &
LOAD=$!
sleep 0.4
kill -9 "$S0"
wait "$LOAD"
sent=$(grep -o 'sent=[0-9]*' "$DIR/kill_batches.out" \
  | awk -F= '{s+=$2} END{print s+0}')
ok=$(grep -o 'ok=[0-9]*' "$DIR/kill_batches.out" \
  | awk -F= '{s+=$2} END{print s+0}')
echo "[fleet-smoke] kill-window traffic: $ok/$sent ok"
[ "$sent" -eq 6000 ] || { echo "FAIL: expected 6000 sends, saw $sent"; exit 1; }
budget=$((sent / 100))  # 1% error budget around the kill
[ $((sent - ok)) -le "$budget" ] || {
  echo "FAIL: $((sent - ok)) failures exceed the $budget budget"; exit 1; }

echo "[fleet-smoke] survivor must serve 100%"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-predict 500

# Give the health machine time to move the killed shard to Dead so the
# reload broadcast skips it instead of failing on a connect.
sleep 1.5
echo "[fleet-smoke] hot reload with one shard dead"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-reload "$MODEL"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-metrics
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-predict 200

echo "[fleet-smoke] observability drill (trace merge, federation, console)"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-trace-dump "$DIR/trace.json"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-metrics-out "$DIR/metrics.json"
$RUN --fleet-connect "unix:$DIR/front.sock" --fleet-top \
  --fleet-top-iters 2 --fleet-top-interval-ms 200 | tee "$DIR/top.out"
grep -q 'SHARD' "$DIR/top.out" || { echo "FAIL: --fleet-top rendered nothing"; exit 1; }
grep -q 'g1' "$DIR/top.out" || { echo "FAIL: --fleet-top missing survivor shard"; exit 1; }

python3 -m json.tool "$DIR/trace.json" >/dev/null \
  || { echo "FAIL: merged trace is not valid JSON"; exit 1; }
python3 -m json.tool "$DIR/metrics.json" >/dev/null \
  || { echo "FAIL: federated metrics export is not valid JSON"; exit 1; }
# The merged trace must carry at least two process lanes (frontend +
# surviving shard) even after the SIGKILL took one buffer with it.
python3 - "$DIR/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
pids = {e["pid"] for e in events}
assert len(pids) >= 2, f"expected >=2 process lanes, got {sorted(pids)}"
names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
assert any(n == "frontend" for n in names), names
assert any(n.startswith("shard") for n in names), names
EOF

kill -TERM "$S1" "$FE"
wait "$S1" "$FE" 2>/dev/null || true
PIDS=()

# Event log and scrape series are written by the frontend; validate
# after it exits so the files are complete. Both are JSON-lines.
[ -s "$DIR/events.jsonl" ] || { echo "FAIL: event log empty"; exit 1; }
[ -s "$DIR/scrape.jsonl" ] || { echo "FAIL: metrics scrape empty"; exit 1; }
while IFS= read -r line; do
  printf '%s' "$line" | python3 -m json.tool >/dev/null \
    || { echo "FAIL: bad event log line: $line"; exit 1; }
done < "$DIR/events.jsonl"
head -5 "$DIR/scrape.jsonl" | while IFS= read -r line; do
  printf '%s' "$line" | python3 -m json.tool >/dev/null \
    || { echo "FAIL: bad scrape line"; exit 1; }
done
grep -q '"event":"health"' "$DIR/events.jsonl" \
  || { echo "FAIL: no health transitions in event log"; exit 1; }
grep -q '"event":"reload"' "$DIR/events.jsonl" \
  || { echo "FAIL: no reload event in event log"; exit 1; }

if [ -n "${TAGLETS_FLEET_ARTIFACTS:-}" ]; then
  mkdir -p "$TAGLETS_FLEET_ARTIFACTS"
  cp "$DIR/trace.json" "$DIR/metrics.json" "$DIR/events.jsonl" \
     "$DIR/scrape.jsonl" "$DIR/top.out" "$TAGLETS_FLEET_ARTIFACTS/"
  echo "[fleet-smoke] artifacts copied to $TAGLETS_FLEET_ARTIFACTS"
fi
echo "[fleet-smoke] PASS"
