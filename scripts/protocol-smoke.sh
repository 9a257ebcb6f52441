#!/bin/sh
# protocol-smoke: CI certification for the timer-driven protocols
# (trickle, dflood). Builds cmd/sweep under the race detector, runs a
# small trickle+dflood grid, and requires a same-seed rerun to reproduce
# its CSV byte for byte. Run via `make protocol-smoke`; CI runs the same
# script.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -race -o "$workdir/sweep" ./cmd/sweep

grid="-protocols trickle,dflood -duties 0.05,0.10 -seeds 2 -m 5"

"$workdir/sweep" $grid -out "$workdir/first.csv"
"$workdir/sweep" $grid -out "$workdir/rerun.csv"
if ! cmp -s "$workdir/first.csv" "$workdir/rerun.csv"; then
  echo "sweep CSV of the rerun differs from the first run:" >&2
  diff "$workdir/first.csv" "$workdir/rerun.csv" >&2 || true
  exit 1
fi

# The grid must actually have exercised both protocols.
for proto in trickle dflood; do
  if ! grep -qi "^$proto," "$workdir/first.csv"; then
    echo "protocol $proto missing from the sweep CSV" >&2
    exit 1
  fi
done

echo "protocol-smoke: OK (trickle+dflood grid; rerun deterministic)"
