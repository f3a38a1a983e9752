#!/bin/sh
# Two-node sync smoke: two `rd2 serve --racedb` nodes ingest disjoint
# synthetic workloads, node B gossips with node A (`--peers`) under a
# fixed fault-injection seed, and the smoke passes only if:
#
#   1. both race databases converge to byte-identical `rd2 query --json`
#      output (counts, node_counts, version vectors, rollups, samples —
#      the CRDT merge is deterministic, so equality is exact);
#   2. the injected sync faults actually fired (the anti-entropy loop
#      retried through them — convergence despite faults, not around
#      them);
#   3. a standalone `rd2 sync` against the converged pair is idempotent
#      (transfers and applies nothing);
#   4. both servers drain cleanly on SIGTERM.
#
# The faults are `nth:` one-shots (deterministic regardless of timing):
# the first connect attempt, an early frame read and the first delta
# apply all fail once, so the loop's backoff-and-retry path is always
# exercised before convergence.
#
# Environment:
#   SEED    fault stream seed                 (default 42)
#   EVENTS  synthetic events per node         (default 20000)
#   RD2     path to the rd2 binary            (default _build/default/bin/rd2.exe)
set -eu
cd "$(dirname "$0")/.."

SEED="${SEED:-42}"
EVENTS="${EVENTS:-20000}"
RD2="${RD2:-_build/default/bin/rd2.exe}"

if [ ! -x "$RD2" ]; then
  echo "sync_smoke: $RD2 not built (dune build bin/rd2.exe)" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/crd-sync-smoke.XXXXXX")
A_PID=""
B_PID=""
cleanup() {
  # Kill and reap: no server may outlive the script, not even as a
  # zombie.
  if [ -n "$A_PID" ]; then
    kill -9 "$A_PID" 2>/dev/null || true
    wait "$A_PID" 2>/dev/null || true
  fi
  if [ -n "$B_PID" ]; then
    kill -9 "$B_PID" 2>/dev/null || true
    wait "$B_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# --- disjoint workloads ----------------------------------------------
# Different scheduler seeds and spec mixes: the two nodes observe
# different (overlapping is fine — the join handles it) race sets.
"$RD2" synth --seed 101 -n "$EVENTS" --threads 4 \
  --format bin -o "$WORK/t1.bin"
"$RD2" synth --seed 202 -n "$EVENTS" --threads 4 \
  --mix set=5,counter=3 --format bin -o "$WORK/t2.bin"

# --- two nodes, B gossips with A -------------------------------------
FAULTS="seed=$SEED,sync_connect=nth:1,sync_read=nth:5,sync_merge=nth:2"

"$RD2" serve -a "unix:$WORK/a.sock" --workers 2 --racedb "$WORK/dbA" \
  --log info > "$WORK/a.out" 2> "$WORK/a.err" &
A_PID=$!
"$RD2" serve -a "unix:$WORK/b.sock" --workers 2 --racedb "$WORK/dbB" \
  --peers "unix:$WORK/a.sock" --sync-interval 0.5 --log info \
  --faults "$FAULTS" > "$WORK/b.out" 2> "$WORK/b.err" &
B_PID=$!

for sock in "$WORK/a.sock" "$WORK/b.sock"; do
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  if [ ! -S "$sock" ]; then
    echo "sync_smoke: FAIL — server for $sock never came up" >&2
    cat "$WORK/a.err" "$WORK/b.err" >&2
    exit 1
  fi
done

"$RD2" send "$WORK/t1.bin" --format bin -a "unix:$WORK/a.sock" \
  --retries 5 --backoff 0.05 --nonce smoke-a > /dev/null
"$RD2" send "$WORK/t2.bin" --format bin -a "unix:$WORK/b.sock" \
  --retries 5 --backoff 0.05 --nonce smoke-b > /dev/null

# --- convergence ------------------------------------------------------
# `rd2 query` is lock-free (reads the last committed index + segment
# tail), so polling the live databases is safe. The backoff after the
# injected failures is capped well below this 60 s budget.
CONVERGED=0
for i in $(seq 1 120); do
  "$RD2" query "$WORK/dbA" --json > "$WORK/a.json" 2>/dev/null || true
  "$RD2" query "$WORK/dbB" --json > "$WORK/b.json" 2>/dev/null || true
  if [ -s "$WORK/a.json" ] && cmp -s "$WORK/a.json" "$WORK/b.json"; then
    CONVERGED=$i
    break
  fi
  for pid in $A_PID $B_PID; do
    kill -0 "$pid" 2>/dev/null || {
      echo "sync_smoke: FAIL — a server died before convergence" >&2
      cat "$WORK/a.err" "$WORK/b.err" >&2
      exit 1
    }
  done
  sleep 0.5
done
if [ "$CONVERGED" = 0 ]; then
  echo "sync_smoke: FAIL — no convergence within 60s" >&2
  echo "--- node A json bytes: $(wc -c < "$WORK/a.json")" >&2
  echo "--- node B json bytes: $(wc -c < "$WORK/b.json")" >&2
  tail -20 "$WORK/b.err" >&2
  exit 1
fi

FAILURES=$(grep -c sync_peer_failed "$WORK/b.err" || true)
if [ "$FAILURES" -eq 0 ]; then
  echo "sync_smoke: FAIL — injected sync faults never fired" >&2
  exit 1
fi
# The JSON is a single line; count entry objects, not matching lines.
ENTRIES=$(grep -o '"fingerprint"' "$WORK/a.json" | wc -l | tr -d ' ')
if [ "$ENTRIES" -eq 0 ]; then
  echo "sync_smoke: FAIL — converged on empty databases" >&2
  exit 1
fi
echo "sync_smoke: converged after $((CONVERGED / 2))s" \
     "($ENTRIES distinct races, $FAILURES injected sync failures retried)"

# --- standalone sync is idempotent on a converged pair ----------------
# B must release its writer lock first (`rd2 sync` takes it).
kill -TERM "$B_PID"
wait "$B_PID" || {
  echo "sync_smoke: FAIL — node B exited non-zero on SIGTERM" >&2
  cat "$WORK/b.err" >&2
  exit 1
}
B_PID=""

"$RD2" sync "unix:$WORK/a.sock" --racedb "$WORK/dbB" > "$WORK/sync.out"
if ! grep -q "sent 0, received 0, applied 0 (peer applied 0)" "$WORK/sync.out"; then
  echo "sync_smoke: FAIL — sync on a converged pair transferred entries:" >&2
  cat "$WORK/sync.out" >&2
  exit 1
fi

kill -TERM "$A_PID"
wait "$A_PID" || {
  echo "sync_smoke: FAIL — node A exited non-zero on SIGTERM" >&2
  cat "$WORK/a.err" >&2
  exit 1
}
A_PID=""

# --- final offline check ---------------------------------------------
"$RD2" query "$WORK/dbA" --json > "$WORK/a.json"
"$RD2" query "$WORK/dbB" --json > "$WORK/b.json"
if ! cmp -s "$WORK/a.json" "$WORK/b.json"; then
  echo "sync_smoke: FAIL — databases diverged after shutdown" >&2
  exit 1
fi

echo "sync_smoke: PASS — $ENTRIES distinct races replicated both ways," \
     "identical query --json, idempotent re-sync, clean drains"
