#!/usr/bin/env bash
# Process-level chaos for the socket deployment (DESIGN.md §15).
#
# Launches scheduler + server + 8 client processes with the observability
# plane on (journals, traces, scheduler /statusz — DESIGN.md §17), SIGKILLs
# two clients mid-run, restarts one of them, and asserts:
#   * the server finishes the whole run (training + defense) with exit 0 —
#     the quorum gate absorbs the dead clients instead of hanging or crashing
#   * the scheduler's /statusz fleet table, scraped mid-run, lists clients
#     with per-node round progress and heartbeat ages
#   * the server journal records both deaths (kind=client_dead) and the
#     restarted client's reregistration (kind=reconnect); journals open with
#     process-identity lines and the scheduler journals fleet_status roll-ups
#   * every journal still validates under scripts/journal_check.py
#   * the survivors' traces merge into one causally ordered timeline
#     (scripts/trace_merge.py --verify) — the SIGKILLed clients never flush
#     theirs, and the merge must tolerate that
#
# The collect deadline is lowered to 3 s (vs the no-fault default of 60 s):
# retransmit-driven divergence is irrelevant here — no identity is claimed,
# only liveness and bookkeeping.
#
# Usage: scripts/proc_chaos.sh [BUILD_DIR]   (default: build)
set -euo pipefail

# Re-exec as a process-group leader so cleanup can kill the *whole* group:
# `jobs -p` misses grandchildren, and a failed assertion mid-run used to
# leave orphaned clients spinning in their reconnect loops.
# A caller that already leads its process group (a shell with job control)
# makes setsid fork; --wait then hands back the run's exit status.
if [ "${FC_PGL:-}" != 1 ]; then
  FC_PGL=1 exec setsid --wait "$0" "$@"
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

N=8
FLAGS=(--clients "$N" --rounds 4 --samples-train 40 --ft-rounds 2
       --recv-timeout-ms 3000 --heartbeat-interval-ms 100 --heartbeat-timeout-ms 2000)

echo "[1/6] launching scheduler + server + $N clients (telemetry on)"
"$BUILD/examples/fedcleanse_scheduler" --port-file "$WORK/sched.port" \
  --journal-out "$WORK/sched.jsonl" --trace-out "$WORK/sched.trace.json" \
  --metrics-port 0 --metrics-port-file "$WORK/sched.metrics.port" \
  >"$WORK/sched.log" 2>&1 &
for _ in $(seq 100); do [ -s "$WORK/sched.port" ] && break; sleep 0.1; done
[ -s "$WORK/sched.port" ] || { echo "scheduler never published its port" >&2; exit 1; }
PORT="$(cat "$WORK/sched.port")"
[ -s "$WORK/sched.metrics.port" ] || { echo "scheduler never published its metrics port" >&2; exit 1; }
MPORT="$(cat "$WORK/sched.metrics.port")"

declare -a CPID
for id in $(seq 0 $((N - 1))); do
  "$BUILD/examples/fedcleanse_client" --id "$id" "${FLAGS[@]}" \
    --scheduler-port "$PORT" --trace-out "$WORK/client$id.trace.json" \
    >"$WORK/client$id.log" 2>&1 &
  CPID[$id]=$!
done
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$PORT" \
  --journal-out "$WORK/server.jsonl" --trace-out "$WORK/server.trace.json" \
  >"$WORK/server.log" 2>&1 &
SERVER=$!

# Wait until round 0 lands in the journal, so the kills hit a running round
# protocol rather than the registration barrier.
for _ in $(seq 600); do
  grep -q '"kind":"train_round"' "$WORK/server.jsonl" 2>/dev/null && break
  kill -0 "$SERVER" 2>/dev/null || { echo "server died before round 0" >&2; exit 1; }
  sleep 0.1
done
grep -q '"kind":"train_round"' "$WORK/server.jsonl" || {
  echo "round 0 never completed" >&2; exit 1; }

echo "[2/6] scraping the scheduler's /statusz fleet table mid-run"
# Clients beacon their progress snapshots every heartbeat interval; retry the
# scrape briefly so a just-opened round has time to reach the fleet table.
python3 - "$MPORT" <<'EOF'
import json, sys, time, urllib.request
port = sys.argv[1]
last = None
for _ in range(100):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/statusz", timeout=2) as r:
            last = json.load(r)
    except Exception as e:
        last = e
        time.sleep(0.2)
        continue
    if isinstance(last, dict) and last.get("role") == "scheduler":
        clients = [n for n in last.get("nodes", [])
                   if n.get("role") == "client" and "round" in n
                   and "heartbeat_age_ms" in n]
        if clients:
            rounds = sorted(n["round"] for n in clients)
            print(f"  fleet table: {len(clients)} clients reporting, "
                  f"rounds {rounds[0]}..{rounds[-1]}, max heartbeat age "
                  f"{max(n['heartbeat_age_ms'] for n in clients)}ms")
            sys.exit(0)
    time.sleep(0.2)
print(f"FAIL: /statusz never showed a client fleet table; last: {last}",
      file=sys.stderr)
sys.exit(1)
EOF

echo "[3/6] SIGKILL clients 3 and 5 mid-run; restarting client 3"
kill -9 "${CPID[3]}" "${CPID[5]}"
# Restart client 3 as soon as the server journals both deaths: the server
# finishes its remaining rounds and the defense within about a second of the
# kills, so a fixed pause can outlast the run and leave no round to rejoin.
for _ in $(seq 500); do
  [ "$(grep -c '"kind":"client_dead"' "$WORK/server.jsonl" || true)" -ge 2 ] && break
  sleep 0.01
done
"$BUILD/examples/fedcleanse_client" --id 3 "${FLAGS[@]}" \
  --scheduler-port "$PORT" --trace-out "$WORK/client3-restarted.trace.json" \
  >"$WORK/client3-restarted.log" 2>&1 &

echo "[4/6] waiting for the server to finish"
rc=0
wait "$SERVER" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: server exited $rc — the quorum gate should have absorbed 2 dead clients" >&2
  sed -e 's/^/  server: /' "$WORK/server.log" >&2
  exit 1
fi

echo "[5/6] checking journal bookkeeping (deaths, reconnect, open, fleet_status)"
dead=$(grep -c '"kind":"client_dead"' "$WORK/server.jsonl" || true)
if [ "$dead" -lt 2 ]; then
  echo "FAIL: expected >= 2 client_dead events, found $dead" >&2
  exit 1
fi
if ! grep -q '"kind":"reconnect"' "$WORK/server.jsonl"; then
  echo "FAIL: restarted client produced no reconnect event" >&2
  exit 1
fi
for j in "$WORK/server.jsonl" "$WORK/sched.jsonl"; do
  if ! grep -q '"kind":"open"' "$j"; then
    echo "FAIL: $j has no process-identity open line" >&2
    exit 1
  fi
done
if ! grep -q '"kind":"fleet_status"' "$WORK/sched.jsonl"; then
  echo "FAIL: scheduler journal has no fleet_status roll-up" >&2
  exit 1
fi
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/server.jsonl"
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/sched.jsonl"

echo "[6/6] merging the survivors' traces into one timeline"
# The scheduler and surviving clients are still flushing; let them exit.
# (SIGKILLed clients 3 and 5 never wrote a trace — the merge skips them.)
wait || true
python3 "$REPO_ROOT/scripts/trace_merge.py" "$WORK"/*.trace.json \
  -o "$WORK/merged.trace.json" --verify
echo "proc chaos: OK (run completed under quorum; $dead deaths and a reregistration journaled)"
