#!/usr/bin/env bash
# Byte-identity gate for the socket transport (DESIGN.md §15).
#
# Runs the deployment demo twice with identical flags:
#   1. fedcleanse_server --local        — the in-process reference
#   2. scheduler + server + 5 clients   — real processes over TCP
# and asserts with cmp(1) that the two saved models are byte-identical.
# Framing, registration, heartbeats, and the socket recv paths must be
# invisible to the protocol: any divergence (a retransmit that retrained a
# client, a reordered message, a corrupted frame) changes the model bytes.
#
# With --telemetry the socket deployment runs a third time with the full
# observability plane on every node (--metrics-port 0, --trace-out,
# --journal-out) and the saved model is compared against the telemetry-off
# reference: DESIGN.md §17's zero-perturbation invariant, enforced with cmp.
# The per-process traces are then stitched by scripts/trace_merge.py --verify,
# which asserts server sends causally precede same-correlation client spans.
#
# Usage: scripts/multiproc_identity.sh [--telemetry] [BUILD_DIR]   (default: build)
set -euo pipefail

# Re-exec as a process-group leader so cleanup can kill the *whole* group:
# `jobs -p` misses grandchildren, and a failed assertion mid-run used to
# leave orphaned clients spinning in their reconnect loops.
# A caller that already leads its process group (a shell with job control)
# makes setsid fork; --wait then hands back the run's exit status.
if [ "${FC_PGL:-}" != 1 ]; then
  FC_PGL=1 exec setsid --wait "$0" "$@"
fi

TELEMETRY=0
if [ "${1:-}" = "--telemetry" ]; then
  TELEMETRY=1
  shift
fi

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO_ROOT/build}"
WORK="$(mktemp -d)"
cleanup() {
  trap '' TERM  # don't let our own group-kill re-enter this handler
  kill -s TERM -- "-$$" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

FLAGS=(--clients 5 --rounds 3 --samples-train 60 --ft-rounds 3)

TOTAL=$((3 + TELEMETRY))
echo "[1/$TOTAL] in-process reference run"
"$BUILD/examples/fedcleanse_server" --local "${FLAGS[@]}" \
  --save "$WORK/reference.fckp" >"$WORK/local.log" 2>&1

echo "[2/$TOTAL] socket deployment: scheduler + server + 5 client processes"
"$BUILD/examples/fedcleanse_scheduler" --port-file "$WORK/sched.port" \
  --journal-out "$WORK/sched.jsonl" >"$WORK/sched.log" 2>&1 &
for _ in $(seq 100); do [ -s "$WORK/sched.port" ] && break; sleep 0.1; done
[ -s "$WORK/sched.port" ] || { echo "scheduler never published its port" >&2; exit 1; }
PORT="$(cat "$WORK/sched.port")"

for id in 0 1 2 3 4; do
  "$BUILD/examples/fedcleanse_client" --id "$id" "${FLAGS[@]}" \
    --scheduler-port "$PORT" >"$WORK/client$id.log" 2>&1 &
done
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$PORT" \
  --save "$WORK/socket.fckp" --journal-out "$WORK/server.jsonl" >"$WORK/server.log" 2>&1
wait

echo "[3/$TOTAL] comparing models and validating journals"
if ! cmp "$WORK/reference.fckp" "$WORK/socket.fckp"; then
  echo "FAIL: socket-run model diverges from the in-process reference" >&2
  sed -e 's/^/  server: /' "$WORK/server.log" >&2
  exit 1
fi
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/server.jsonl"
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/sched.jsonl"
echo "multiproc identity: OK (socket model byte-identical to the in-process reference)"

[ "$TELEMETRY" = 1 ] || exit 0

echo "[4/4] telemetry-on socket deployment (metrics + traces + journals everywhere)"
"$BUILD/examples/fedcleanse_scheduler" --port-file "$WORK/sched2.port" \
  --metrics-port 0 --journal-out "$WORK/sched-telem.jsonl" \
  --trace-out "$WORK/sched-telem.trace.json" >"$WORK/sched2.log" 2>&1 &
for _ in $(seq 100); do [ -s "$WORK/sched2.port" ] && break; sleep 0.1; done
[ -s "$WORK/sched2.port" ] || { echo "telemetry scheduler never published its port" >&2; exit 1; }
PORT2="$(cat "$WORK/sched2.port")"

for id in 0 1 2 3 4; do
  "$BUILD/examples/fedcleanse_client" --id "$id" "${FLAGS[@]}" \
    --scheduler-port "$PORT2" --metrics-port 0 \
    --journal-out "$WORK/client$id-telem.jsonl" \
    --trace-out "$WORK/client$id-telem.trace.json" >"$WORK/client$id-telem.log" 2>&1 &
done
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$PORT2" \
  --metrics-port 0 --save "$WORK/telemetry.fckp" \
  --journal-out "$WORK/server-telem.jsonl" \
  --trace-out "$WORK/server-telem.trace.json" >"$WORK/server-telem.log" 2>&1
wait

if ! cmp "$WORK/reference.fckp" "$WORK/telemetry.fckp"; then
  echo "FAIL: telemetry-on model diverges from the telemetry-off reference" >&2
  echo "      (the observability plane perturbed the run — DESIGN.md §17)" >&2
  sed -e 's/^/  server: /' "$WORK/server-telem.log" >&2
  exit 1
fi
for j in "$WORK/server-telem.jsonl" "$WORK/sched-telem.jsonl" \
         "$WORK"/client*-telem.jsonl; do
  python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$j"
done
python3 "$REPO_ROOT/scripts/trace_merge.py" "$WORK"/*-telem.trace.json \
  -o "$WORK/merged.trace.json" --verify
echo "multiproc identity: OK (telemetry-on model byte-identical; merged trace causally ordered)"
