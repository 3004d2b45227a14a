#!/usr/bin/env sh
# Estimation-server smoke test (docs/SERVER.md): start one `mpe_cli serve`
# daemon, hit it with 4 concurrent `mpe_cli submit` clients x 3 requests
# each, and hold the daemon to its contract:
#
#   * exactly-once: every client sees exactly one `done` line per request;
#   * determinism: all 12 results (and their streamed run reports) are
#     byte-identical to each other AND to a batch `mpe_cli estimate` of the
#     same job — serving adds reuse, not variance;
#   * the shared circuit cache actually shares: stats report cache hits;
#   * the scrape endpoint serves the mpe_server_* counters;
#   * SIGTERM drains gracefully: "(drained)" in the log, exit code 0.
#
# Run reports carry a per-connection envelope sequence number, so the
# comparison strips `"seq":N` before byte-comparing result lines.
#
# usage: server_smoke.sh [path-to-mpe_cli] [work-dir]
set -eu

CLI=${1:-build/tools/mpe_cli}
WORK=${2:-build/server_smoke}

rm -rf "$WORK"
mkdir -p "$WORK/reports" "$WORK/state"
LOG="$WORK/serve.log"

CLIENTS=4
REQUESTS=3

fail() { echo "server_smoke: FAIL: $1" >&2; exit 1; }

# --- 1. Reference: the same job through the batch CLI ----------------------
"$CLI" estimate --circuit c432 --seed 7 --epsilon 0.1 --tprob 0.5 \
  --delay zero --threads 1 --metrics-out "$WORK/ref.jsonl" > /dev/null
grep '"type":"result"' "$WORK/ref.jsonl" | sed 's/"seq":[0-9]*,*//' \
  > "$WORK/ref_result.txt"
[ -s "$WORK/ref_result.txt" ] || fail "batch reference produced no result line"

# --- 2. Start the daemon on an ephemeral port ------------------------------
# Create the log before the daemon starts: the shell opens the redirect in
# the forked child, and under load the port poll below can run first and
# find no file (sed exits 2, and set -e ends the script without a word).
: > "$LOG"
"$CLI" serve --tcp-port 0 --state-dir "$WORK/state" --max-active 2 \
  --cache-cap 8 > "$LOG" 2>&1 &
SERVER=$!
trap 'kill "$SERVER" 2> /dev/null || true' EXIT

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^listening tcp .*:\([0-9][0-9]*\)$/\1/p' "$LOG")
  [ -n "$PORT" ] && break
  kill -0 "$SERVER" 2> /dev/null || fail "server died on startup: $(cat "$LOG")"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never reported its port"

# --- 3. Concurrent clients -------------------------------------------------
# Unique job ids per client (ids key checkpoints server-side), same circuit
# and seed everywhere (that is what the cache and determinism claims need).
c=0
while [ "$c" -lt "$CLIENTS" ]; do
  : > "$WORK/m$c.jsonl"
  r=0
  while [ "$r" -lt "$REQUESTS" ]; do
    printf '{"job":"c%s-r%s","circuit":"c432","seed":7,"epsilon":0.1,"delay":"zero"}\n' \
      "$c" "$r" >> "$WORK/m$c.jsonl"
    r=$((r + 1))
  done
  c=$((c + 1))
done

PIDS=""
c=0
while [ "$c" -lt "$CLIENTS" ]; do
  "$CLI" submit --port "$PORT" --manifest "$WORK/m$c.jsonl" \
    --report-dir "$WORK/reports" --client-id "smoke-$c" \
    > "$WORK/client$c.out" 2> "$WORK/client$c.err" &
  PIDS="$PIDS $!"
  c=$((c + 1))
done
for pid in $PIDS; do
  wait "$pid" || fail "a submit client exited non-zero"
done

# --- 4. Exactly-once + byte-identical results ------------------------------
c=0
while [ "$c" -lt "$CLIENTS" ]; do
  n=$(grep -c ' done ' "$WORK/client$c.out" || true)
  [ "$n" -eq "$REQUESTS" ] || \
    fail "client $c: $n done lines, want $REQUESTS: $(cat "$WORK/client$c.out")"
  c=$((c + 1))
done
# Drop the (unique) id column; every remaining payload must be identical.
sed 's/^[^ ]* *//' "$WORK"/client*.out | sort -u > "$WORK/uniq_payloads.txt"
[ "$(wc -l < "$WORK/uniq_payloads.txt")" -eq 1 ] || \
  fail "results differ across clients: $(cat "$WORK/uniq_payloads.txt")"

n=$(ls "$WORK/reports" | wc -l)
[ "$n" -eq $((CLIENTS * REQUESTS)) ] || \
  fail "want $((CLIENTS * REQUESTS)) run reports, got $n"
for report in "$WORK/reports"/*.jsonl; do
  grep '"type":"result"' "$report" | sed 's/"seq":[0-9]*,*//' \
    > "$WORK/got_result.txt"
  cmp -s "$WORK/got_result.txt" "$WORK/ref_result.txt" || \
    fail "$report result line differs from the batch CLI reference"
done

# --- 5. Cache + scrape observability ---------------------------------------
"$CLI" submit --port "$PORT" --stats > "$WORK/stats.txt"
grep -q '"cache_hits":[1-9]' "$WORK/stats.txt" || \
  fail "no cache hits after repeated identical circuits: $(cat "$WORK/stats.txt")"
"$CLI" submit --port "$PORT" --scrape > "$WORK/scrape.txt"
grep -q '^mpe_server_jobs_done_total 12$' "$WORK/scrape.txt" || \
  fail "scrape missing jobs_done counter: $(cat "$WORK/scrape.txt")"
grep -q '^mpe_server_cache_hits_total' "$WORK/scrape.txt" || \
  fail "scrape missing cache counters"

# --- 6. Graceful SIGTERM drain ---------------------------------------------
kill -TERM "$SERVER"
STATUS=0
wait "$SERVER" || STATUS=$?
trap - EXIT
[ "$STATUS" -eq 0 ] || fail "server exited $STATUS on SIGTERM"
grep -q '(drained)' "$LOG" || fail "server did not report a drain: $(cat "$LOG")"

echo "server_smoke: OK (port $PORT, $((CLIENTS * REQUESTS)) jobs byte-identical)"
