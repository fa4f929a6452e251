#!/usr/bin/env bash
# TCP elastic smoke test: three mgtrain processes form a TCP world on
# loopback; one rank is SIGKILL'd mid-run; the survivors must detect the
# death within the heartbeat timeout, reform as a 2-rank world, resume
# from the shared checkpoint, and train to completion.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=${BIN:-/tmp/mgtrain-smoke}
go build -o "$BIN" ./cmd/mgtrain

WORK=$(mktemp -d)
R0=; R1=; R2=
cleanup() {
  for p in $R0 $R1 $R2; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

CK="$WORK/run.ck"
BASE=$((20000 + RANDOM % 20000))
PEERS="127.0.0.1:$BASE,127.0.0.1:$((BASE + 1)),127.0.0.1:$((BASE + 2))"

ARGS=(-dim 2 -strategy half-v -res 16 -levels 1 -samples 8 -batch 4
  -filters 4 -max-epochs 600 -patience 600 -restriction-epochs 1
  -transport tcp -peers "$PEERS" -elastic
  -checkpoint "$CK" -checkpoint-every 1
  -heartbeat-timeout 1s
  -op-timeout 10s -dial-timeout 20s)

"$BIN" "${ARGS[@]}" -rank 0 >"$WORK/r0.log" 2>&1 &
R0=$!
"$BIN" "${ARGS[@]}" -rank 1 >"$WORK/r1.log" 2>&1 &
R1=$!
"$BIN" "${ARGS[@]}" -rank 2 >"$WORK/r2.log" 2>&1 &
R2=$!

# Wait for the first checkpoint to land, then SIGKILL rank 2 mid-run.
for _ in $(seq 1 100); do
  [ -f "$CK" ] && break
  sleep 0.1
done
[ -f "$CK" ] || { echo "FAIL: no checkpoint appeared"; cat "$WORK"/r*.log; exit 1; }
sleep 0.3
kill -9 "$R2"

fail=0
wait "$R0" || fail=1
wait "$R1" || fail=1
R2_SAVED=$R2
R2=
wait "$R2_SAVED" 2>/dev/null || true
if [ "$fail" -ne 0 ]; then
  echo "FAIL: a surviving rank exited non-zero"
  cat "$WORK/r0.log" "$WORK/r1.log"
  exit 1
fi
for r in r0 r1; do
  grep -q "reforming as rank" "$WORK/$r.log" || {
    echo "FAIL: $r never reformed"; cat "$WORK/$r.log"; exit 1; }
  grep -q "done: final loss" "$WORK/$r.log" || {
    echo "FAIL: $r never finished"; cat "$WORK/$r.log"; exit 1; }
done
echo "tcp elastic smoke OK: rank 2 killed, survivors reformed and finished"
