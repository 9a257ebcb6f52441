#!/bin/sh
# floodd-smoke: black-box smoke test for the job daemon. Builds floodd,
# boots it on an ephemeral port, drives the worked session from
# docs/SERVICE.md with curl (submit -> poll status -> fetch result),
# checks the telemetry mount, and SIGTERM-drains it; then kill -9s a
# daemon mid-job and asserts a restart over the same directory resumes
# and finishes it. Run via `make floodd-smoke`; CI runs the same script.
set -eu

workdir=$(mktemp -d)
trap 'kill -9 "$pid" "$pid2" 2>/dev/null || true; rm -rf "$workdir"' EXIT
pid2=""

go build -o "$workdir/floodd" ./cmd/floodd

"$workdir/floodd" -addr 127.0.0.1:0 -dir "$workdir/jobs" 2> "$workdir/floodd.err" &
pid=$!

# Scrape the announced listen URL from stderr.
url=""
for _ in $(seq 1 100); do
  url=$(sed -n 's/^floodd: serving on //p' "$workdir/floodd.err" | head -1)
  [ -n "$url" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$url" ]; then
  echo "floodd never announced its listen URL" >&2
  cat "$workdir/floodd.err" >&2
  exit 1
fi
echo "floodd-smoke: daemon at $url"

curl -fsS "$url/healthz" | grep -q ok

# Submit a tiny sweep and scrape the job id from the 201 body.
id=$(curl -fsS -X POST "$url/v1/jobs" \
  -d '{"protocols":["opt","dbao"],"duties":[0.1],"seeds":2,"m":10}' |
  sed -n 's/.*"id"[": ]*\([0-9]*\)".*/\1/p')
if [ -z "$id" ]; then
  echo "submit did not return a job id" >&2
  exit 1
fi
echo "floodd-smoke: submitted job $id"

# Poll until terminal.
state=""
for _ in $(seq 1 300); do
  state=$(curl -fsS "$url/v1/jobs/$id" | sed -n 's/.*"state"[": ]*\([a-z]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed|canceled)
      echo "job $id ended $state" >&2
      curl -fsS "$url/v1/jobs/$id" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
if [ "$state" != "done" ]; then
  echo "job $id never finished (last state: $state)" >&2
  exit 1
fi

# The artifact: CSV header plus 2 protocols x 1 duty x 2 seeds rows.
curl -fsS "$url/v1/jobs/$id/result" -o "$workdir/result.csv"
head -1 "$workdir/result.csv" | grep -q '^protocol,duty,period,seed,'
rows=$(wc -l < "$workdir/result.csv")
if [ "$rows" -ne 5 ]; then
  echo "result has $rows lines, want 5 (header + 4 cells)" >&2
  cat "$workdir/result.csv" >&2
  exit 1
fi

# Telemetry: server counters plus the job's mounted registry.
curl -fsS "$url/debug/vars" -o "$workdir/vars.json"
grep -q '"floodd.jobs.submitted": 1' "$workdir/vars.json"
grep -q "\"job.$id.runner.jobs.done\": 4" "$workdir/vars.json"
grep -q "\"job.$id.sim.tx.attempts\"" "$workdir/vars.json"

# Graceful drain on SIGTERM.
kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "floodd did not drain within 10s" >&2
  exit 1
fi
grep -q 'floodd: drained' "$workdir/floodd.err"

# Crash-resume: boot a fresh daemon on its own directory, submit a
# slower job (18 cells at parallel 1), kill -9 the daemon mid-run once
# its first cell is journaled, and require a restart
# over the same directory to requeue, resume from the journal, and
# finish with the full CSV.
"$workdir/floodd" -addr 127.0.0.1:0 -dir "$workdir/jobs2" 2> "$workdir/floodd2.err" &
pid2=$!
url2=""
for _ in $(seq 1 100); do
  url2=$(sed -n 's/^floodd: serving on //p' "$workdir/floodd2.err" | head -1)
  [ -n "$url2" ] && break
  sleep 0.1
done
[ -n "$url2" ] || { echo "second floodd never announced its listen URL" >&2; exit 1; }

id2=$(curl -fsS -X POST "$url2/v1/jobs" \
  -d '{"protocols":["opt","dbao","of"],"duties":[0.02,0.05],"seeds":3,"m":50,"parallel":1}' |
  sed -n 's/.*"id"[": ]*\([0-9]*\)".*/\1/p')
[ -n "$id2" ] || { echo "submit did not return a job id" >&2; exit 1; }

# Wait for the first journaled cell, then pull the plug.
for _ in $(seq 1 300); do
  done_cells=$(curl -fsS "$url2/debug/vars" |
    sed -n "s/^ *\"job\.$id2\.runner\.jobs\.done\": \([0-9][0-9]*\).*/\1/p" | head -1)
  [ "${done_cells:-0}" -ge 1 ] && break
  sleep 0.1
done
[ "${done_cells:-0}" -ge 1 ] || { echo "job $id2 never finished a cell" >&2; exit 1; }
kill -9 "$pid2"
echo "floodd-smoke: SIGKILLed daemon mid-job"

"$workdir/floodd" -addr 127.0.0.1:0 -dir "$workdir/jobs2" 2> "$workdir/floodd3.err" &
pid2=$!
url3=""
for _ in $(seq 1 100); do
  url3=$(sed -n 's/^floodd: serving on //p' "$workdir/floodd3.err" | head -1)
  [ -n "$url3" ] && break
  sleep 0.1
done
[ -n "$url3" ] || { echo "restarted floodd never announced its listen URL" >&2; exit 1; }

state=""
for _ in $(seq 1 600); do
  state=$(curl -fsS "$url3/v1/jobs/$id2" | sed -n 's/.*"state"[": ]*\([a-z]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed|canceled)
      echo "resumed job $id2 ended $state" >&2
      curl -fsS "$url3/v1/jobs/$id2" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
[ "$state" = "done" ] || { echo "resumed job $id2 never finished (last state: $state)" >&2; exit 1; }
grep -q "job $id2: requeued for resume" "$workdir/floodd3.err"
resumed=$(curl -fsS "$url3/v1/jobs/$id2" | sed -n 's/.*"resumed"[": ]*\([0-9]*\).*/\1/p')
[ "${resumed:-0}" -ge 1 ] || { echo "restart replayed ${resumed:-0} cells; expected >= 1" >&2; exit 1; }
curl -fsS "$url3/v1/jobs/$id2/result" -o "$workdir/result2.csv"
rows=$(wc -l < "$workdir/result2.csv")
[ "$rows" -eq 19 ] || { echo "resumed result has $rows lines, want 19" >&2; exit 1; }
echo "floodd-smoke: kill -9 resume replayed $resumed cells and finished"

kill -TERM "$pid2"

echo "floodd-smoke: ok"
