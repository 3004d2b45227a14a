#!/usr/bin/env sh
# serve --fleet chaos soak (docs/SERVER.md, "Fleet execution"): one `serve`
# daemon dispatching submitted jobs onto a 3-process campaign-worker fleet
# over TCP, while a seeded kill schedule takes workers out with kill -9 and
# replaces them mid-job. The contract under chaos:
#
#   * every submitted job still reaches exactly one `done` result line;
#   * every result line AND every streamed run report is BYTE-IDENTICAL to
#     the same server running jobs in-process (no fleet, --trace-capacity 0
#     so neither side carries tracer events) — worker death, shard-lease
#     expiry, re-dispatch, and partial recomputation must leave no trace in
#     what the client sees;
#   * the fleet actually computed shards (the fleet ledger under
#     <state-dir>/fleet/ holds shard records — execution did not silently
#     degrade to local);
#   * the coordinator published its shard latency series (scrape shows
#     mpe_coord_shard_latency_ms);
#   * SIGTERM drains gracefully: "(drained)" in the log, exit code 0, and
#     surviving workers go home on the drain reply.
#
# Workers run with DISJOINT state directories — the cross-host posture:
# nothing is shared between fleet members but the protocol. A replacement
# worker starts from an empty directory and simply recomputes; determinism
# makes the result byte-identical either way.
#
# The kill schedule is a seeded LCG, so a failing schedule reproduces with
# the same seed.
#
# usage: server_fleet_soak.sh [path-to-mpe_cli] [work-dir] [seed] [jobs]
#   jobs defaults to $MPE_SERVER_FLEET_JOBS or 24.
set -eu

CLI=${1:-build/tools/mpe_cli}
WORK=${2:-build/server_fleet_soak}
SEED=${3:-20260808}
JOBS=${4:-${MPE_SERVER_FLEET_JOBS:-24}}
ORIG_SEED=$SEED

rm -rf "$WORK"
mkdir -p "$WORK/local_state" "$WORK/local_reports" \
  "$WORK/fleet_state" "$WORK/fleet_reports" "$WORK/workers"

# fail <message>: names the step that failed and shows the tail of both
# daemon logs, so a failure that leaves nothing else behind (ctest keeps
# only this script's output) still says where it happened.
STEP="setup"
fail() {
  echo "server_fleet_soak: FAIL in step '$STEP': $1" >&2
  for log in "$WORK/local.log" "$WORK/fleet.log"; do
    if [ -f "$log" ]; then
      echo "--- last lines of $log:" >&2
      tail -n 20 "$log" >&2
    fi
  done
  exit 1
}

# Cheap, convergent jobs (epsilon 0.25 stops after a handful of
# hyper-samples): the soak's cost is fleet mechanics, which is the point.
MANIFEST="$WORK/jobs.jsonl"
: > "$MANIFEST"
i=0
while [ "$i" -lt "$JOBS" ]; do
  printf '{"job":"s%04d","circuit":"c432","seed":%d,"epsilon":0.25,"confidence":0.8,"max_hyper":40}\n' \
    "$i" $(( 100 + i )) >> "$MANIFEST"
  i=$(( i + 1 ))
done

wait_port() {
  # wait_port <log> <pid> <pattern-prefix> -> prints the port
  _port=""
  _n=0
  while [ "$_n" -lt 200 ]; do
    _port=$(sed -n "s/^$3 .*:\([0-9][0-9]*\)\$/\1/p" "$1")
    [ -n "$_port" ] && break
    kill -0 "$2" 2> /dev/null || fail "server died on startup: $(cat "$1")"
    _n=$(( _n + 1 ))
    sleep 0.1
  done
  [ -n "$_port" ] || fail "server never reported '$3'"
  printf '%s' "$_port"
}

sleep_ms() {
  awk "BEGIN { printf \"%.3f\", $1 / 1000 }" | xargs sleep
}

# --- 1. Reference: the SAME daemon binary running jobs in-process ----------
STEP="1 local reference"
LOCAL_LOG="$WORK/local.log"
# Create the log before the daemon starts: the shell opens the redirect in
# the forked child, and under load the port poll below can run first and
# find no file (sed exits 2, and set -e ends the script without a word).
: > "$LOCAL_LOG"
"$CLI" serve --tcp-port 0 --state-dir "$WORK/local_state" \
  --trace-capacity 0 --max-active 2 --max-queue 256 --queue-per-client 256 > "$LOCAL_LOG" 2>&1 &
LOCAL=$!
trap 'kill "$LOCAL" 2> /dev/null || true' EXIT
LOCAL_PORT=$(wait_port "$LOCAL_LOG" "$LOCAL" "listening tcp")
"$CLI" submit --port "$LOCAL_PORT" --manifest "$MANIFEST" \
  --report-dir "$WORK/local_reports" --timeout-ms 120000 \
  --client-id soak-local > "$WORK/local.out" \
  || fail "local submit client exited non-zero"
kill -TERM "$LOCAL"
wait "$LOCAL" || fail "local server exited non-zero on SIGTERM"
trap - EXIT
n=$(grep -c ' done ' "$WORK/local.out" || true)
[ "$n" -eq "$JOBS" ] || fail "local run: $n done lines, want $JOBS"

# --- 2. The fleet daemon + 3 workers ---------------------------------------
STEP="2 fleet start"
FLEET_LOG="$WORK/fleet.log"
: > "$FLEET_LOG"  # created up front, as local.log is
"$CLI" serve --tcp-port 0 --worker-port 0 --state-dir "$WORK/fleet_state" \
  --trace-capacity 0 --max-active 2 --max-queue 256 --queue-per-client 256 --lease-ms 1000 --max-assign 25 \
  --shard-size 4 \
  --drain-grace-ms 60000 > "$FLEET_LOG" 2>&1 &
SERVER=$!
W_PIDS=""  # before the trap: under set -u an unset W_PIDS would abort the
           # trap and leave the daemon running
trap 'kill -9 "$SERVER" $W_PIDS 2> /dev/null || true' EXIT
CLIENT_PORT=$(wait_port "$FLEET_LOG" "$SERVER" "listening tcp")
WORKER_PORT=$(wait_port "$FLEET_LOG" "$SERVER" "listening worker tcp")

start_worker() {
  # start_worker <name>: its own state dir — fleet members share nothing.
  mkdir -p "$WORK/workers/$1"
  "$CLI" campaign-worker --tcp "127.0.0.1:$WORKER_PORT" \
    --state-dir "$WORK/workers/$1" --worker-id "$1" --heartbeat-ms 200 \
    > /dev/null 2>&1 &
  W_PIDS="$W_PIDS $!"
}
start_worker w0
start_worker w1
start_worker w2

"$CLI" submit --port "$CLIENT_PORT" --manifest "$MANIFEST" \
  --report-dir "$WORK/fleet_reports" --timeout-ms 180000 \
  --client-id soak-fleet > "$WORK/fleet.out" 2> "$WORK/fleet.err" &
CLIENT=$!

# --- 3. Seeded kill -9 chaos against the worker fleet ----------------------
STEP="3 chaos"
lcg() { SEED=$(( (SEED * 1103515245 + 12345) % 2147483648 )); }

ROUND=0
while [ "$ROUND" -lt 5 ] && kill -0 "$CLIENT" 2> /dev/null; do
  ROUND=$(( ROUND + 1 ))
  lcg; sleep_ms $(( 300 + SEED % 700 ))
  lcg; VICTIM=$(( SEED % 3 ))
  set -- $W_PIDS
  eval "V_PID=\$$(( VICTIM + 1 ))"
  kill -9 "$V_PID" 2> /dev/null || true   # a fleet member dies mid-shard
  wait "$V_PID" 2> /dev/null || true
  # A replacement joins from an EMPTY state dir (a fresh host).
  start_worker "r$ROUND"
done

wait "$CLIENT" || fail "fleet submit client exited non-zero: $(cat "$WORK/fleet.err")"
n=$(grep -c ' done ' "$WORK/fleet.out" || true)
[ "$n" -eq "$JOBS" ] || fail "fleet run: $n done lines, want $JOBS"

# --- 4. Observability: the shard latency series was published -------------
STEP="4 scrape"
"$CLI" submit --port "$CLIENT_PORT" --scrape > "$WORK/scrape.txt"
grep -q '^mpe_coord_shard_latency_ms_count' "$WORK/scrape.txt" || \
  fail "scrape missing shard latency histogram"

# --- 5. Graceful drain: server AND surviving workers go home ---------------
STEP="5 drain"
kill -TERM "$SERVER"
wait "$SERVER" || fail "fleet server exited non-zero on SIGTERM"
grep -q '(drained)' "$FLEET_LOG" || \
  fail "fleet server did not drain: $(cat "$FLEET_LOG")"
for p in $W_PIDS; do
  wait "$p" 2> /dev/null || true  # dead victims and drained survivors
done
trap - EXIT

# --- 6. Verdict: byte-identical to in-process execution --------------------
STEP="6 verdict"
sort "$WORK/local.out" > "$WORK/local.sorted"
sort "$WORK/fleet.out" > "$WORK/fleet.sorted"
cmp -s "$WORK/local.sorted" "$WORK/fleet.sorted" || {
  diff "$WORK/local.sorted" "$WORK/fleet.sorted" >&2 || true
  fail "fleet result lines differ from in-process execution"
}
i=0
while [ "$i" -lt "$JOBS" ]; do
  id=$(printf 's%04d' "$i")
  [ -s "$WORK/fleet_reports/$id.jsonl" ] || fail "missing fleet report $id"
  cmp -s "$WORK/local_reports/$id.jsonl" "$WORK/fleet_reports/$id.jsonl" || \
    fail "run report $id differs between fleet and in-process execution"
  i=$(( i + 1 ))
done

# Execution really happened on the fleet: shard records in the fleet ledger.
FLEET_LEDGER="$WORK/fleet_state/fleet/campaign.jsonl"
[ -s "$FLEET_LEDGER" ] || fail "no fleet ledger at $FLEET_LEDGER"
grep -q '"shard":' "$FLEET_LEDGER" || \
  fail "no shard records in the fleet ledger (execution degraded to local?)"

echo "server_fleet_soak: OK (seed $ORIG_SEED, $JOBS jobs, $ROUND kill rounds," \
  "results and reports byte-identical to in-process execution)"
