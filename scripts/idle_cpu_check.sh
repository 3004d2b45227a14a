#!/usr/bin/env sh
# Idle-cost check (docs/SERVER.md, "The readiness loop"): an idle
# `serve --fleet` daemon and two idle campaign workers must cost about
# nothing. The daemon blocks in poll(2) and parks the workers' requests;
# the workers block on their coordinator's reply. Over a 10 s window each
# process's CPU time (utime + stime from /proc/<pid>/stat) must stay at or
# under 2% of one CPU.
#
# usage: idle_cpu_check.sh [path-to-mpe_cli] [work-dir] [seconds]
set -eu

CLI=${1:-build/tools/mpe_cli}
WORK=${2:-build/idle_cpu_check}
SECONDS_IDLE=${3:-10}
MAX_PCT=2

rm -rf "$WORK"
mkdir -p "$WORK/state" "$WORK/w0" "$WORK/w1"
LOG="$WORK/serve.log"
# Create the log before the daemon starts: the shell opens the redirect in
# the forked child, and under load the port poll below can run first and
# find no file (sed exits 2, and set -e ends the script without a word).
: > "$LOG"

fail() { echo "idle_cpu_check: FAIL: $1" >&2; exit 1; }

"$CLI" serve --tcp-port 0 --fleet --worker-port 0 --state-dir "$WORK/state" \
  --trace-capacity 0 > "$LOG" 2>&1 &
SERVER=$!
W_PIDS=""
trap 'kill -9 "$SERVER" $W_PIDS 2> /dev/null || true' EXIT

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^listening worker tcp .*:\([0-9][0-9]*\)$/\1/p' "$LOG")
  [ -n "$PORT" ] && break
  kill -0 "$SERVER" 2> /dev/null || fail "server died on startup: $(cat "$LOG")"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never reported its worker port"

for w in w0 w1; do
  "$CLI" campaign-worker --tcp "127.0.0.1:$PORT" --state-dir "$WORK/$w" \
    --worker-id "$w" > "$WORK/$w.log" 2>&1 &
  W_PIDS="$W_PIDS $!"
done
sleep 1  # let the workers dial in and park their first requests

ticks() { awk '{ print $14 + $15 }' "/proc/$1/stat"; }
BEFORE=""
for p in $SERVER $W_PIDS; do
  kill -0 "$p" 2> /dev/null || fail "process $p exited while idle"
  BEFORE="$BEFORE $(ticks "$p")"
done
sleep "$SECONDS_IDLE"

HZ=$(getconf CLK_TCK)
set -- $BEFORE
for p in $SERVER $W_PIDS; do
  used=$(( $(ticks "$p") - $1 ))
  shift
  # used / HZ seconds of CPU over SECONDS_IDLE seconds of wall time.
  pct=$(awk "BEGIN { printf \"%.2f\", 100 * $used / $HZ / $SECONDS_IDLE }")
  echo "idle_cpu_check: pid $p used $used ticks ($pct% of one CPU)"
  awk "BEGIN { exit !($pct <= $MAX_PCT) }" || \
    fail "pid $p used $pct% of one CPU while idle (limit $MAX_PCT%)"
done

# Idle or not, the fleet still drains on SIGTERM.
kill -TERM "$SERVER"
wait "$SERVER" || fail "server exited non-zero on SIGTERM"
for p in $W_PIDS; do
  wait "$p" || fail "worker $p exited non-zero after the drain"
done
trap - EXIT
echo "idle_cpu_check: OK (daemon + 2 workers at or under $MAX_PCT% each over" \
  "${SECONDS_IDLE}s)"
