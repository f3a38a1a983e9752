#!/bin/sh
# Predictive-pass smoke: end-to-end `rd2 predict` against `rd2 check`
# and the race database. Passes only if:
#
#   1. on a hand-built trace whose only conflicting pair is ordered by
#      an unrelated critical section, `rd2 check` sees nothing and
#      `rd2 predict` reports exactly one predicted race — the strict-
#      superset witness;
#   2. on a synthetic corpus trace, the fingerprint set in the racedb
#      written by `rd2 predict --racedb` is a superset of the
#      `rd2 check --fingerprints` set, the witnessed subset matches it
#      exactly, and the witnessed/predicted counts reported by
#      `rd2 query --provenance` agree with the predict summary line;
#   3. `rd2 predict` output is bit-identical across --jobs 1 and
#      --jobs 4;
#   4. predicted provenance survives a two-node round trip: the predict
#      racedb syncs into a serving node, a fresh third database syncs
#      from that node, and the predicted entries arrive there still
#      marked provenance=predicted.
#
# Environment:
#   EVENTS  synthetic events                  (default 20000)
#   RD2     path to the rd2 binary            (default _build/default/bin/rd2.exe)
set -eu
cd "$(dirname "$0")/.."

EVENTS="${EVENTS:-20000}"
RD2="${RD2:-_build/default/bin/rd2.exe}"

if [ ! -x "$RD2" ]; then
  echo "predict_smoke: $RD2 not built (dune build bin/rd2.exe)" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/crd-predict-smoke.XXXXXX")
A_PID=""
cleanup() {
  # Kill and reap: no server may outlive the script, not even as a
  # zombie.
  if [ -n "$A_PID" ]; then
    kill -9 "$A_PID" 2>/dev/null || true
    wait "$A_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# --- 1. strict-superset witness --------------------------------------
cat > "$WORK/uplift.trace" <<'EOF'
T0 fork T1
T0 call "dictionary:o".put("k", @1) / nil
T0 acquire l0
T0 release l0
T1 acquire l0
T1 release l0
T1 call "dictionary:o".put("k", @2) / @1
T0 join T1
EOF

if ! "$RD2" check "$WORK/uplift.trace" | grep -q "rd2: 0 races"; then
  echo "predict_smoke: FAIL — check was expected to miss the shadowed race" >&2
  exit 1
fi
"$RD2" predict "$WORK/uplift.trace" > "$WORK/uplift.out"
if ! grep -q "predicted +1" "$WORK/uplift.out"; then
  echo "predict_smoke: FAIL — predict missed the lock-shadowed race:" >&2
  cat "$WORK/uplift.out" >&2
  exit 1
fi

# --- 2. synthetic corpus + racedb ------------------------------------
"$RD2" synth --seed 7 -n "$EVENTS" --threads 4 --sync-period 16 \
  --format bin -o "$WORK/t.bin"

"$RD2" check "$WORK/t.bin" --format bin --fingerprints \
  | grep -E '^[0-9a-f]{16}$' | sort > "$WORK/check.fps"

"$RD2" predict "$WORK/t.bin" --format bin --jobs 2 --racedb "$WORK/dbP" \
  > "$WORK/predict.out"
cat "$WORK/predict.out"

json_fps() {
  # one fingerprint per line, sorted, from `rd2 query --json` output
  grep -o '"fingerprint":"[0-9a-f]*"' "$1" | cut -d'"' -f4 | sort
}
"$RD2" query "$WORK/dbP" --json > "$WORK/all.json"
"$RD2" query "$WORK/dbP" --provenance witnessed --json > "$WORK/wit.json"
"$RD2" query "$WORK/dbP" --provenance predicted --json > "$WORK/pred.json"
json_fps "$WORK/all.json" > "$WORK/db.fps"
json_fps "$WORK/wit.json" > "$WORK/db-wit.fps"
json_fps "$WORK/pred.json" > "$WORK/db-pred.fps"

if ! cmp -s "$WORK/check.fps" "$WORK/db-wit.fps"; then
  echo "predict_smoke: FAIL — witnessed racedb entries != check --fingerprints" >&2
  diff "$WORK/check.fps" "$WORK/db-wit.fps" >&2 || true
  exit 1
fi
# db.fps ⊇ check.fps (comm -23 prints check-only lines; must be none)
if [ -n "$(comm -23 "$WORK/check.fps" "$WORK/db.fps")" ]; then
  echo "predict_smoke: FAIL — predict racedb lost witnessed fingerprints" >&2
  exit 1
fi

WITNESSED_DISTINCT=$(wc -l < "$WORK/db-wit.fps" | tr -d ' ')
PREDICTED_DISTINCT=$(wc -l < "$WORK/db-pred.fps" | tr -d ' ')
SUMMARY_W=$(sed -n 's/.*witnessed [0-9]* (\([0-9]*\) distinct).*/\1/p' "$WORK/predict.out")
SUMMARY_P=$(sed -n 's/.*predicted +\([0-9]*\).*/\1/p' "$WORK/predict.out")
if [ "$WITNESSED_DISTINCT" != "$SUMMARY_W" ]; then
  echo "predict_smoke: FAIL — query witnessed=$WITNESSED_DISTINCT, predict said $SUMMARY_W" >&2
  exit 1
fi
if [ "$PREDICTED_DISTINCT" != "$SUMMARY_P" ]; then
  echo "predict_smoke: FAIL — query predicted=$PREDICTED_DISTINCT, predict said $SUMMARY_P" >&2
  exit 1
fi
# STATS hygiene: witnessed `distinct` must not count predicted entries
if ! "$RD2" db stats "$WORK/dbP" | grep -q "predicted: $PREDICTED_DISTINCT"; then
  echo "predict_smoke: FAIL — db stats predicted count mismatch:" >&2
  "$RD2" db stats "$WORK/dbP" >&2
  exit 1
fi

# --- 3. jobs determinism ---------------------------------------------
"$RD2" predict "$WORK/t.bin" --format bin --jobs 1 -v > "$WORK/j1.out"
"$RD2" predict "$WORK/t.bin" --format bin --jobs 4 -v > "$WORK/j4.out"
if ! cmp -s "$WORK/j1.out" "$WORK/j4.out"; then
  echo "predict_smoke: FAIL — predict output depends on --jobs" >&2
  diff "$WORK/j1.out" "$WORK/j4.out" >&2 || true
  exit 1
fi

# --- 4. provenance round-trip through two sync hops -------------------
"$RD2" serve -a "unix:$WORK/a.sock" --workers 1 --racedb "$WORK/dbA" \
  > "$WORK/a.out" 2> "$WORK/a.err" &
A_PID=$!
for _ in $(seq 1 100); do
  [ -S "$WORK/a.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/a.sock" ] || {
  echo "predict_smoke: FAIL — server never came up" >&2
  cat "$WORK/a.err" >&2
  exit 1
}

"$RD2" sync "unix:$WORK/a.sock" --racedb "$WORK/dbP" > /dev/null
# a fresh node pulls everything from A
mkdir -p "$WORK/dbB"
"$RD2" sync "unix:$WORK/a.sock" --racedb "$WORK/dbB" > /dev/null

kill -TERM "$A_PID"
wait "$A_PID" || {
  echo "predict_smoke: FAIL — server exited non-zero on SIGTERM" >&2
  cat "$WORK/a.err" >&2
  exit 1
}
A_PID=""

"$RD2" query "$WORK/dbB" --provenance predicted --json > "$WORK/b-pred.json"
json_fps "$WORK/b-pred.json" > "$WORK/b-pred.fps"
if ! cmp -s "$WORK/db-pred.fps" "$WORK/b-pred.fps"; then
  echo "predict_smoke: FAIL — predicted provenance lost in the sync round trip" >&2
  diff "$WORK/db-pred.fps" "$WORK/b-pred.fps" >&2 || true
  exit 1
fi

echo "predict_smoke: PASS — +1 on the shadowed race," \
     "witnessed=$WITNESSED_DISTINCT predicted=$PREDICTED_DISTINCT on synth," \
     "jobs-deterministic, provenance intact across two sync hops"
