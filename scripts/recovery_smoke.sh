#!/usr/bin/env sh
# Durability smoke test (docs/ROBUSTNESS.md): start a checkpointed
# estimation, kill -9 it once the first checkpoint is durable, resume from
# the checkpoint, and require the resumed run to be byte-identical (stdout
# and exit code) to an uninterrupted run of the same configuration.
#
# The test is timing-tolerant by construction: wherever the kill lands —
# before the first checkpoint, mid-run, or after the run already finished —
# the re-invocation must still reproduce the uninterrupted result exactly
# (fresh start, mid-run resume, and complete-checkpoint short-circuit are
# all part of the resume contract).
#
# usage: recovery_smoke.sh [path-to-mpe_cli] [work-dir]
set -eu

CLI=${1:-build/tools/mpe_cli}
WORK=${2:-build/recovery_smoke}

rm -rf "$WORK"
mkdir -p "$WORK"

# The estimate is the same at any --threads; the reference and the
# checkpointed runs use the same value anyway.
ARGS="estimate --circuit c432 --epsilon 0.02 --seed 3 --threads 1"
CKPT=$WORK/run.ckpt

# Uninterrupted reference.
set +e
$CLI $ARGS > "$WORK/reference.txt" 2> /dev/null
REF_RC=$?
set -e

# Interrupted run: wait for the first durable checkpoint (or process exit),
# then kill -9 without any chance to clean up.
$CLI $ARGS --checkpoint "$CKPT" --checkpoint-every 1 \
  > "$WORK/interrupted.txt" 2> /dev/null &
PID=$!
i=0
while [ ! -f "$CKPT" ] && kill -0 "$PID" 2> /dev/null && [ "$i" -lt 500 ]; do
  i=$((i + 1))
  sleep 0.01
done
kill -9 "$PID" 2> /dev/null || true
wait "$PID" 2> /dev/null || true

# Resume to completion and compare against the reference.
set +e
$CLI $ARGS --checkpoint "$CKPT" --checkpoint-every 1 \
  > "$WORK/resumed.txt" 2> /dev/null
RES_RC=$?
set -e

if [ "$RES_RC" -ne "$REF_RC" ]; then
  echo "recovery_smoke: FAIL exit code mismatch" \
    "(reference $REF_RC, resumed $RES_RC)" >&2
  exit 1
fi
if ! cmp -s "$WORK/reference.txt" "$WORK/resumed.txt"; then
  echo "recovery_smoke: FAIL resumed output differs from reference" >&2
  diff "$WORK/reference.txt" "$WORK/resumed.txt" >&2 || true
  exit 1
fi
echo "recovery_smoke: OK (exit $RES_RC, resumed output identical to reference)"
