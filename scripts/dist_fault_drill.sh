#!/usr/bin/env bash
# Fault drill for the data-parallel trainer: one run with a worker killed AND
# a gradient corrupted mid-epoch, one fault-free control run, both from the
# same seed. The drill passes when the faulty run (a) detects both faults,
# (b) performs a distributed-consistent rollback verified bit-exact, (c)
# degrades to the surviving worker set and finishes, and (d) lands within an
# accuracy tolerance of the control run. See docs/ROBUSTNESS.md for the
# protocol being exercised.
#
# A third, fully-instrumented postmortem run then proves the observability
# pipeline end-to-end (docs/OBSERVABILITY.md): one Chrome trace with a track
# per worker rank and id-matched all-reduce flow arrows, which python3
# validates; one metrics JSONL holding every worker's records, which
# health_report folds against the catalog bounds; and flight-recorder dumps
# fired by the injected kill.
#
# Usage: scripts/dist_fault_drill.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BIN="$BUILD/examples/mnist_mlp"
[ -x "$BIN" ] || { echo "missing $BIN — build the tree first" >&2; exit 1; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/apamm_dist_drill.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

ARGS=(--epochs=2 --train=1536 --test=384 --batch=32 --workers=3)
FAULTS='kill@2:6,corrupt@1:9'

echo "== control run (fault-free) =="
"$BIN" "${ARGS[@]}" --shard-dir="$WORK/clean" | tee "$WORK/clean.log"
echo
echo "== drill run (inject: $FAULTS) =="
"$BIN" "${ARGS[@]}" --shard-dir="$WORK/faulty" --inject-fault="$FAULTS" \
  | tee "$WORK/faulty.log"
echo

fail() { echo "DRILL FAILED: $1" >&2; exit 1; }

grep -q 'injected: 1 kills, 1 corrupt grads' "$WORK/faulty.log" \
  || fail "both faults should have fired (kill + corrupt gradient)"
grep -q 'workers 3->2' "$WORK/faulty.log" \
  || fail "the killed worker should degrade the set to 2 survivors"
grep -Eq 'rollbacks [1-9][0-9]* \(bit-exact yes\)' "$WORK/faulty.log" \
  || fail "the corrupt gradient should force a bit-exact verified rollback"
grep -q 'bit-exact NO' "$WORK/faulty.log" \
  && fail "a rollback restore was not bit-exact across workers"

# Final accuracy within tolerance of the fault-free control: losing a worker
# changes the batch schedule, so expect "close", not equal.
clean_acc="$(grep -oE 'test-acc [0-9.]+' "$WORK/clean.log" | tail -1 | cut -d' ' -f2)"
fault_acc="$(grep -oE 'test-acc [0-9.]+' "$WORK/faulty.log" | tail -1 | cut -d' ' -f2)"
TOLERANCE="${APAMM_DRILL_TOLERANCE:-0.15}"
awk -v c="$clean_acc" -v f="$fault_acc" -v tol="$TOLERANCE" 'BEGIN {
  d = c - f; if (d < 0) d = -d;
  if (d > tol) { exit 1 }
}' || fail "final accuracy $fault_acc strayed more than $TOLERANCE from control $clean_acc"

echo "DRILL PASSED: kill + corrupt detected, rollback bit-exact, degraded to survivors,"
echo "final accuracy $fault_acc vs fault-free $clean_acc (tolerance $TOLERANCE)"
echo

# ---------------------------------------------------------------------------
# Postmortem drill: the same kill, but with every observability output armed.
# ---------------------------------------------------------------------------
OBS="$WORK/obs"
mkdir -p "$OBS"
echo "== postmortem drill (traced + flight recorder, inject: kill@1:6) =="
# Two epochs: the kill stops rank 1 before its end-of-epoch record in epoch 1;
# epoch 2 runs both workers fault-free, so both ranks report.
"$BIN" --epochs=2 --train=1536 --test=384 --batch=32 --workers=2 --guard \
  --shard-dir="$WORK/postmortem" --inject-fault='kill@1:6' \
  --trace-out="$OBS/trace.json" --metrics-out="$OBS/metrics.jsonl" \
  --flight-dir="$OBS" | tee "$WORK/postmortem.log"
echo

for f in trace.json metrics.jsonl flight_0.json; do
  [ -f "$OBS/$f" ] || fail "postmortem run should have written $OBS/$f"
done
grep -q '"reason":' "$OBS/flight_0.json" \
  || fail "flight dumps should record the trigger reason"
grep -q '"tag":"dist\.' "$OBS"/flight_*.json \
  || fail "flight rings should hold dist.* breadcrumbs from the drill"

echo "== trace and metrics validation =="
python3 scripts/check_obs_outputs.py "$OBS/trace.json" "$OBS/metrics.jsonl" \
  || fail "the trace or the metrics stream failed validation"

echo "== health_report =="
"$BUILD/tools/rule_lint" --bounds-json="$OBS/bounds.json" \
  || fail "rule_lint --bounds-json should export the catalog bounds"
"$BUILD/tools/health_report" --bounds="$OBS/bounds.json" --fail-on-drift \
  "$OBS/metrics.jsonl" | tee "$WORK/health.log" \
  || fail "a healthy guarded run must not report residual drift"
grep -Eq '[1-9][0-9]* stream\(s\)' "$WORK/health.log" \
  || fail "health_report should fold at least one guarded stream (ObsSession
           flush emits a final health snapshot even for short runs)"

echo
echo "POSTMORTEM DRILL PASSED: one trace with rank tracks, one metrics stream"
echo "with both ranks' records, flight dumps and drift table all produced and validated"
