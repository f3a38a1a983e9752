#!/bin/sh
# Overload-path smoke: drive the degradation ladder end to end and
# check that overload never costs evidence.
#
#   1. generate a synthetic binary trace (`rd2 synth`);
#   2. `rd2 check` it offline for the reference race set;
#   3. `rd2 serve --workers 1 --spill-watermark 1 --journal ...`:
#      a one-worker server that spills instead of queueing when
#      concurrent sessions pile up;
#   4. fire CLIENTS concurrent `rd2 send`s — every one must be acked
#      OK (live or spilled: never BUSY, never an error);
#   5. `rd2 health` until the spill backlog drains, then compare every
#      session's journal report race set against the offline one —
#      spilled sessions must catch up to the identical race set;
#   6. SIGTERM must drain the server cleanly.
#
# Environment:
#   EVENTS   synthetic trace size    (default 50000)
#   CLIENTS  concurrent sessions     (default 6)
#   RD2      path to the rd2 binary  (default _build/default/bin/rd2.exe)
set -eu
cd "$(dirname "$0")/.."

EVENTS="${EVENTS:-50000}"
CLIENTS="${CLIENTS:-6}"
RD2="${RD2:-_build/default/bin/rd2.exe}"

if [ ! -x "$RD2" ]; then
  echo "overload_smoke: $RD2 not built (dune build bin/rd2.exe)" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/crd-overload.XXXXXX")
SOCK="$WORK/serve.sock"
SERVER_PID=""
cleanup() {
  # Kill and reap: no server may outlive the script, not even as a
  # zombie.
  if [ -n "$SERVER_PID" ]; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# --- trace + offline reference ---------------------------------------
"$RD2" synth -n "$EVENTS" --seed 7 --format bin -o "$WORK/trace.ctrace"
"$RD2" check "$WORK/trace.ctrace" --format bin -v \
  | grep '^comm' | sort > "$WORK/expected.races"
EXPECTED=$(wc -l < "$WORK/expected.races" | tr -d ' ')
echo "overload_smoke: events=$EVENTS clients=$CLIENTS expected_races=$EXPECTED"

# --- one worker, spill-happy ladder, watchdog armed -------------------
"$RD2" serve -a "unix:$SOCK" --workers 1 --journal "$WORK/journal" \
  --spill-watermark 1 --memory-budget 512m --stall-timeout 30 \
  > "$WORK/server.out" 2> "$WORK/server.err" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "overload_smoke: FAIL — server died on startup" >&2
    cat "$WORK/server.err" >&2
    exit 1
  }
  sleep 0.1
done

# --- concurrent over-capacity burst -----------------------------------
i=1
while [ "$i" -le "$CLIENTS" ]; do
  "$RD2" send "$WORK/trace.ctrace" --format bin -a "unix:$SOCK" \
    --retries 3 --timeout 60 --nonce "smoke-$i" > "$WORK/reply.smoke-$i" 2>&1 &
  eval "SEND_PID_$i=$!"
  i=$((i + 1))
done
i=1
while [ "$i" -le "$CLIENTS" ]; do
  eval "pid=\$SEND_PID_$i"
  wait "$pid" || {
    echo "overload_smoke: FAIL — send smoke-$i failed" >&2
    cat "$WORK/reply.smoke-$i" >&2
    cat "$WORK/server.err" >&2
    exit 1
  }
  i=$((i + 1))
done
echo "overload_smoke: all $CLIENTS concurrent sessions acked"

# --- wait for the catch-up drainer via the health probe ---------------
BACKLOG=""
for _ in $(seq 1 200); do
  HEALTH=$("$RD2" health "unix:$SOCK")
  BACKLOG=$(printf '%s\n' "$HEALTH" | sed -n 's/.*spill_backlog=\([0-9]*\).*/\1/p')
  [ "$BACKLOG" = "0" ] && break
  sleep 0.1
done
echo "overload_smoke: $HEALTH"
if [ "$BACKLOG" != "0" ]; then
  echo "overload_smoke: FAIL — spill backlog never drained" >&2
  cat "$WORK/server.err" >&2
  exit 1
fi
SPILLED=$(printf '%s\n' "$HEALTH" | sed -n 's/.*spilled=\([0-9]*\).*/\1/p')

# --- race-set identity, live and caught-up alike ----------------------
i=1
while [ "$i" -le "$CLIENTS" ]; do
  REPORT="$WORK/journal/smoke-$i.report"
  if [ ! -f "$REPORT" ]; then
    echo "overload_smoke: FAIL — no journal report for smoke-$i" >&2
    exit 1
  fi
  grep '^comm' "$REPORT" | sort > "$WORK/races.smoke-$i"
  if ! cmp -s "$WORK/races.smoke-$i" "$WORK/expected.races"; then
    echo "overload_smoke: FAIL — race set smoke-$i != offline rd2 check" >&2
    diff "$WORK/expected.races" "$WORK/races.smoke-$i" | head -20 >&2
    exit 1
  fi
  i=$((i + 1))
done
echo "overload_smoke: $CLIENTS race sets identical to offline (spilled=${SPILLED:-?})"

# --- graceful shutdown ------------------------------------------------
kill -TERM "$SERVER_PID"
i=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "overload_smoke: FAIL — server did not drain after SIGTERM" >&2
    exit 1
  fi
  sleep 0.1
done
wait "$SERVER_PID" 2>/dev/null || {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "overload_smoke: FAIL — server exited $status after SIGTERM" >&2
    cat "$WORK/server.err" >&2
    exit 1
  fi
}
SERVER_PID=""
echo "overload_smoke: PASS"
