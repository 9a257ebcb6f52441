#!/bin/sh
# trace-smoke: end-to-end exercise of the trace pipeline documented in
# docs/TRACE.md. Runs one flood with a trace file, then certifies with
# tracecat that the trace replays as a consistent event stream
# (-validate), that its text rendering is the same on two runs, that a
# torn tail is read to the tear with a warning, and that a sweep writes
# per-cell traces which a resumed sweep leaves byte-identical. Run via
# `make trace-smoke`; CI runs the same script.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/floodsim" ./cmd/floodsim
go build -o "$workdir/tracecat" ./cmd/tracecat
go build -o "$workdir/sweep" ./cmd/sweep

run="-m 20 -seed 7 -coverage 0.99"

# Two identical runs: the trace files and their text renderings must
# match byte for byte.
"$workdir/floodsim" $run -trace "$workdir/a.tracebin" > /dev/null
"$workdir/floodsim" $run -trace "$workdir/b.tracebin" > /dev/null
cmp "$workdir/a.tracebin" "$workdir/b.tracebin"
"$workdir/tracecat" "$workdir/a.tracebin" > "$workdir/a.txt"
"$workdir/tracecat" -o "$workdir/b.txt" "$workdir/b.tracebin"
cmp "$workdir/a.txt" "$workdir/b.txt"
[ -s "$workdir/a.txt" ]
size=$(wc -c < "$workdir/a.tracebin")
echo "trace-smoke: $size-byte trace, $(wc -l < "$workdir/a.txt") events; text rendering is deterministic"

# The trace must pass the physical-consistency replay.
"$workdir/tracecat" -validate "$workdir/a.tracebin" > /dev/null

# A text rendering is not a trace: tracecat must refuse it by the magic.
if "$workdir/tracecat" -summary "$workdir/a.txt" > /dev/null 2> "$workdir/text.err"; then
  echo "tracecat accepted a text rendering as a trace" >&2
  exit 1
fi
grep -q 'LDCT' "$workdir/text.err"

# A torn tail (writer killed mid-record) must still decode up to the
# tear, with a warning rather than an error.
head -c $((size - 1)) "$workdir/a.tracebin" > "$workdir/torn.tracebin"
"$workdir/tracecat" -summary "$workdir/torn.tracebin" > /dev/null 2> "$workdir/torn.err"
grep -q "torn tail" "$workdir/torn.err"
echo "trace-smoke: torn tail tolerated"

# Per-cell sweep traces, each validated; a resumed sweep must leave them
# byte-identical.
grid="-protocols opt -duties 0.05 -seeds 2 -m 5 -journal $workdir/sweep.journal -trace-dir $workdir/cells"
"$workdir/sweep" $grid > /dev/null
[ "$(ls "$workdir/cells"/*.tracebin | wc -l)" -eq 2 ]
for f in "$workdir/cells"/*.tracebin; do
  "$workdir/tracecat" -validate "$f" > /dev/null
done
cp -r "$workdir/cells" "$workdir/cells.first"
"$workdir/sweep" $grid -resume > /dev/null
for f in "$workdir/cells.first"/*.tracebin; do
  cmp "$f" "$workdir/cells/$(basename "$f")"
done
echo "trace-smoke: sweep wrote and validated per-cell traces; resume left them byte-identical"

echo "trace-smoke: OK"
