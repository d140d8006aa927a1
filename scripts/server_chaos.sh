#!/usr/bin/env bash
# Server/scheduler failover gate for the socket deployment (DESIGN.md §18).
#
# The transport chaos test (scripts/proc_chaos.sh) kills *clients* and only
# claims liveness. This script kills the *coordinator* nodes and claims full
# byte-identity:
#
#   phase 1  uninterrupted socket run                    → reference model
#   phase 2  SIGKILL the server mid-round, restart it
#            with --resume                               → cmp vs reference
#   phase 3  SIGKILL the scheduler mid-round, restart it
#            with --registry ... --resume                → cmp vs reference
#
# Phase 2 exercises the whole §18 machinery: the server restores its
# server-scope snapshot at a bumped epoch, re-announces its new data port
# through the scheduler, the surviving clients reconnect, and the kRoundSync
# handshake rolls every replica back to the last committed round before the
# replay — so the final cleansed model must be byte-identical to the
# uninterrupted run. Phase 3 proves the scheduler is not a single point of
# failure: its registry journal rebuilds the roster and the server's session
# reconnects, all without perturbing the data plane.
#
# Timeouts stay at the no-fault defaults: a retransmit would retrain a client
# and break identity, which is exactly what this gate must catch.
#
# Usage: scripts/server_chaos.sh [BUILD_DIR]   (default: build)
set -euo pipefail

# Re-exec as a process-group leader so cleanup can kill the *whole* group:
# `jobs -p` misses grandchildren, and a failed assertion mid-run would leave
# orphaned clients spinning in their reconnect loops.
# A caller that already leads its process group (a shell with job control)
# makes setsid fork; --wait then hands back the run's exit status.
if [ "${FC_PGL:-}" != 1 ]; then
  FC_PGL=1 exec setsid --wait "$0" "$@"
fi

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO_ROOT/build}"
WORK="$(mktemp -d)"
# On failure the work directory stays for the post-mortem, and the restarted
# scheduler's output (step 3) is dumped: it says whether the restart bound its
# port and loaded the registry.
cleanup() {
  local rc=$?
  trap '' TERM  # don't let our own group-kill re-enter this handler
  kill -s TERM -- "-$$" 2>/dev/null
  wait 2>/dev/null
  if [ "$rc" -eq 0 ]; then
    rm -rf "$WORK"
    return
  fi
  if [ -f "$WORK/sk-sched-restarted.log" ]; then
    sed -e 's/^/  restarted scheduler: /' "$WORK/sk-sched-restarted.log" >&2
  fi
  echo "server chaos: work directory kept at $WORK" >&2
}
trap cleanup EXIT

N=5
FLAGS=(--clients "$N" --rounds 3 --samples-train 60 --ft-rounds 2)

wait_for_port_file() {
  for _ in $(seq 100); do [ -s "$1" ] && break; sleep 0.1; done
  [ -s "$1" ] || { echo "scheduler never published its port ($1)" >&2; exit 1; }
}

# Block until the server journal holds a committed training round, so the
# kill lands mid-run rather than on the registration barrier.
wait_for_round() {  # <journal> <pid>
  for _ in $(seq 600); do
    grep -q '"kind":"train_round"' "$1" 2>/dev/null && return 0
    kill -0 "$2" 2>/dev/null || { echo "process $2 died before round 0" >&2; exit 1; }
    sleep 0.1
  done
  echo "round 0 never committed in $1" >&2
  exit 1
}

echo "[1/3] uninterrupted socket run (the byte-identity reference)"
"$BUILD/examples/fedcleanse_scheduler" --port-file "$WORK/ref.port" \
  >"$WORK/ref-sched.log" 2>&1 &
wait_for_port_file "$WORK/ref.port"
PORT="$(cat "$WORK/ref.port")"
for id in $(seq 0 $((N - 1))); do
  "$BUILD/examples/fedcleanse_client" --id "$id" "${FLAGS[@]}" \
    --scheduler-port "$PORT" >"$WORK/ref-client$id.log" 2>&1 &
done
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$PORT" \
  --save "$WORK/reference.fckp" --journal-out "$WORK/ref-server.jsonl" \
  >"$WORK/ref-server.log" 2>&1
wait

echo "[2/3] SIGKILL the server mid-round; restart with --resume"
"$BUILD/examples/fedcleanse_scheduler" --port-file "$WORK/kill.port" \
  --journal-out "$WORK/kill-sched.jsonl" >"$WORK/kill-sched.log" 2>&1 &
wait_for_port_file "$WORK/kill.port"
PORT="$(cat "$WORK/kill.port")"
for id in $(seq 0 $((N - 1))); do
  "$BUILD/examples/fedcleanse_client" --id "$id" "${FLAGS[@]}" \
    --scheduler-port "$PORT" --checkpoint-dir "$WORK/ckpt" --checkpoint-every 1 \
    --journal-out "$WORK/kill-client$id.jsonl" >"$WORK/kill-client$id.log" 2>&1 &
done
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$PORT" \
  --checkpoint-dir "$WORK/ckpt" --checkpoint-every 1 \
  --save "$WORK/resumed.fckp" --journal-out "$WORK/kill-server.jsonl" \
  >"$WORK/kill-server.log" 2>&1 &
SERVER=$!
wait_for_round "$WORK/kill-server.jsonl" "$SERVER"
kill -9 "$SERVER"
echo "  server killed after a committed round; restarting with --resume"
rc=0
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$PORT" \
  --checkpoint-dir "$WORK/ckpt" --checkpoint-every 1 --resume \
  --save "$WORK/resumed.fckp" --journal-out "$WORK/kill-server.jsonl" \
  >"$WORK/kill-server-resumed.log" 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: resumed server exited $rc" >&2
  sed -e 's/^/  server: /' "$WORK/kill-server-resumed.log" >&2
  exit 1
fi
wait
if ! cmp "$WORK/reference.fckp" "$WORK/resumed.fckp"; then
  echo "FAIL: resumed-run model diverges from the uninterrupted reference" >&2
  sed -e 's/^/  server: /' "$WORK/kill-server-resumed.log" >&2
  exit 1
fi
grep -q '"kind":"server_resume"' "$WORK/kill-server.jsonl" || {
  echo "FAIL: server journal has no server_resume marker" >&2; exit 1; }
grep -q '"kind":"round_sync"' "$WORK/kill-server.jsonl" || {
  echo "FAIL: server journal has no round_sync handshake" >&2; exit 1; }
synced=$(grep -c '"kind":"round_sync"' "$WORK"/kill-client*.jsonl | \
  awk -F: '{s += $2} END {print s}')
if [ "$synced" -lt "$N" ]; then
  echo "FAIL: only $synced of $N clients journaled a round_sync" >&2
  exit 1
fi
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/kill-server.jsonl"
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/kill-sched.jsonl"
for id in $(seq 0 $((N - 1))); do
  python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/kill-client$id.jsonl"
done
# The superseded pre-crash rounds must collapse to the reference's table:
# same rounds, same accuracies, same wire bytes (DESIGN.md §18).
python3 "$REPO_ROOT/scripts/journal_check.py" --stable "$WORK/ref-server.jsonl" \
  >"$WORK/ref-table.txt"
python3 "$REPO_ROOT/scripts/journal_check.py" --stable "$WORK/kill-server.jsonl" \
  >"$WORK/kill-table.txt"
if ! diff -u "$WORK/ref-table.txt" "$WORK/kill-table.txt"; then
  echo "FAIL: resumed journal's stable table diverges from the reference" >&2
  exit 1
fi
echo "  server failover: model byte-identical, journal supersession clean"

echo "[3/3] SIGKILL the scheduler mid-round; restart with --registry --resume"
# The scheduler must come back on the *same* port (every node was told it on
# the command line), so pick a free one up front instead of --port-file. It
# comes from below the ephemeral range: a port the kernel hands out for
# outgoing connections can be taken while the scheduler is down, and a
# restart once failed with "bind port …: Address already in use".
SPORT="$(python3 - <<'EOF'
import random, socket
low = int(open("/proc/sys/net/ipv4/ip_local_port_range").read().split()[0])
for port in random.sample(range(max(1024, low - 8192), low), 64):
    with socket.socket() as s:
        try:
            s.bind(("127.0.0.1", port))
        except OSError:
            continue
    print(port)
    break
EOF
)"
[ -n "$SPORT" ] || { echo "no free port below the ephemeral range" >&2; exit 1; }
"$BUILD/examples/fedcleanse_scheduler" --port "$SPORT" \
  --registry "$WORK/registry.txt" >"$WORK/sk-sched.log" 2>&1 &
SCHED=$!
sleep 0.3
for id in $(seq 0 $((N - 1))); do
  "$BUILD/examples/fedcleanse_client" --id "$id" "${FLAGS[@]}" \
    --scheduler-port "$SPORT" >"$WORK/sk-client$id.log" 2>&1 &
done
"$BUILD/examples/fedcleanse_server" "${FLAGS[@]}" --scheduler-port "$SPORT" \
  --save "$WORK/schedkill.fckp" --journal-out "$WORK/sk-server.jsonl" \
  >"$WORK/sk-server.log" 2>&1 &
SERVER=$!
wait_for_round "$WORK/sk-server.jsonl" "$SERVER"
kill -9 "$SCHED"
# Reap it first: until the kernel has torn the process down, its listening
# socket still holds the port.
wait "$SCHED" 2>/dev/null || true
echo "  scheduler killed after a committed round; restarting on port $SPORT"
"$BUILD/examples/fedcleanse_scheduler" --port "$SPORT" \
  --registry "$WORK/registry.txt" --resume >"$WORK/sk-sched-restarted.log" 2>&1 &
rc=0
wait "$SERVER" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: server exited $rc after a scheduler restart" >&2
  sed -e 's/^/  server: /' "$WORK/sk-server.log" >&2
  exit 1
fi
wait
if ! cmp "$WORK/reference.fckp" "$WORK/schedkill.fckp"; then
  echo "FAIL: scheduler restart perturbed the data plane (model diverged)" >&2
  exit 1
fi
grep -q "restored" "$WORK/sk-sched-restarted.log" || {
  echo "FAIL: restarted scheduler did not load its registry" >&2; exit 1; }
python3 "$REPO_ROOT/scripts/journal_check.py" --quiet "$WORK/sk-server.jsonl"
echo "server chaos: OK (server and scheduler each killed and recovered; model byte-identical)"
