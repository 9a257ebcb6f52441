#!/bin/sh
# protocol-smoke: CI certification for the timer-driven protocols
# (trickle, dflood). Builds cmd/sweep under the race detector, runs a
# small trickle+dflood grid at slot workers 0 and 1 (inline) and 4 (the
# worker pool), and requires the three CSVs to be byte-identical — the
# engine's worker-count invariance, end to end through the CLI — and a
# rerun at -workers 0 to reproduce its CSV. Run via `make protocol-smoke`;
# CI runs the same script.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -race -o "$workdir/sweep" ./cmd/sweep

grid="-protocols trickle,dflood -duties 0.05,0.10 -seeds 2 -m 5"

for w in 0 1 4; do
  "$workdir/sweep" $grid -workers "$w" -out "$workdir/w$w.csv"
done
"$workdir/sweep" $grid -workers 0 -out "$workdir/rerun.csv"
for other in w1 w4 rerun; do
  if ! cmp -s "$workdir/w0.csv" "$workdir/$other.csv"; then
    echo "sweep CSV $other differs from -workers 0:" >&2
    diff "$workdir/w0.csv" "$workdir/$other.csv" >&2 || true
    exit 1
  fi
done

# The grid must actually have exercised both protocols.
for proto in trickle dflood; do
  if ! grep -qi "^$proto," "$workdir/w0.csv"; then
    echo "protocol $proto missing from the sweep CSV" >&2
    exit 1
  fi
done

echo "protocol-smoke: OK (trickle+dflood grid; workers 0 == 1 == 4, rerun deterministic)"
