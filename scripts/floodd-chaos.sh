#!/bin/sh
# floodd-chaos: chaos-kill certification for distributed sweeps
# (docs/SERVICE.md "Distributed sweeps"). Builds floodd + floodworker +
# sweep, computes a reference CSV with the flag front-end, then runs the
# same grid as a distributed job while the harness:
#
#   - SIGKILLs three workers at random points mid-sweep,
#   - runs one deliberate zombie worker (-complete-delay > lease TTL) and
#     asserts its double-completions are observed via telemetry and
#     provably dropped (lease.zombie.completions, lease.cells.duplicate),
#   - SIGKILLs the daemon itself mid-sweep and restarts it over the same
#     job directory, asserting the job is requeued and resumed,
#
# and finally requires the job's result CSV to be byte-identical to the
# uninterrupted single-process reference. CHAOS_SHORT=1 shrinks the grid
# for CI. Run via `make floodd-chaos`.
set -eu

short=${CHAOS_SHORT:-0}

workdir=$(mktemp -d)
pids=""
cleanup() {
  for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/floodd" ./cmd/floodd
go build -o "$workdir/floodworker" ./cmd/floodworker
go build -o "$workdir/sweep" ./cmd/sweep

if [ "$short" = "1" ]; then
  protocols="opt,dbao,of" duties="0.02,0.05" seeds=4 m=20
else
  protocols="opt,dbao,of" duties="0.02,0.05,0.1" seeds=4 m=50
fi
ttl=2s

# JSON forms of the grid axes for the job submission.
jproto="\"$(printf '%s' "$protocols" | sed 's/,/","/g')\""
jduties=$duties

echo "floodd-chaos: reference sweep ($protocols x $duties x $seeds seeds, m=$m)"
"$workdir/sweep" -protocols "$protocols" -duties "$duties" -seeds "$seeds" \
  -m "$m" -coverage 0.99 -toposeed 1 -out "$workdir/ref.csv"

# scrape_url FILE: wait for a daemon to announce its listen URL on stderr.
scrape_url() {
  url=""
  for _ in $(seq 1 100); do
    url=$(sed -n 's/^floodd: serving on //p' "$1" | head -1)
    [ -n "$url" ] && return 0
    sleep 0.1
  done
  echo "floodd never announced its listen URL" >&2
  cat "$1" >&2
  return 1
}

# counter NAME: print the integer value of a /debug/vars entry (0 if absent).
counter() {
  v=$(curl -fsS "$url/debug/vars" | sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" | head -1)
  echo "${v:-0}"
}

# wait_counter NAME MIN TRIES: poll until counter NAME reaches MIN.
wait_counter() {
  for _ in $(seq 1 "$3"); do
    [ "$(counter "$1")" -ge "$2" ] && return 0
    sleep 0.1
  done
  echo "counter $1 never reached $2 (last: $(counter "$1"))" >&2
  return 1
}

job_state() {
  curl -fsS "$url/v1/jobs/$id" | sed -n 's/.*"state"[": ]*\([a-z]*\)".*/\1/p'
}

# --- Phase 1: distributed daemon + worker fleet under fire. -----------------

"$workdir/floodd" -addr 127.0.0.1:0 -dir "$workdir/jobs" \
  -chunk 1 -lease-ttl "$ttl" -lease-attempts 10 \
  -local-grace 120s 2> "$workdir/floodd1.err" &
dpid=$!
pids="$pids $dpid"
scrape_url "$workdir/floodd1.err"
echo "floodd-chaos: daemon 1 at $url"

id=$(curl -fsS -X POST "$url/v1/jobs" \
  -d "{\"protocols\":[$jproto],\"duties\":[$jduties],\"seeds\":$seeds,\"m\":$m,\"coverage\":0.99,\"toposeed\":1}" |
  sed -n 's/.*"id"[": ]*\([0-9]*\)".*/\1/p')
[ -n "$id" ] || { echo "submit did not return a job id" >&2; exit 1; }
echo "floodd-chaos: submitted job $id"

# Three paced workers plus one zombie: -complete-delay 800ms keeps the
# sweep slow enough to kill things mid-flight while staying under the 2s
# TTL; the zombie's 4.5s delay overruns it, so every chunk the zombie
# reports has already expired and been reassigned.
"$workdir/floodworker" -server "$url" -name w1 -poll 200ms \
  -complete-delay 800ms 2> "$workdir/w1.err" &
w1pid=$!
"$workdir/floodworker" -server "$url" -name w2 -poll 200ms \
  -complete-delay 800ms 2> "$workdir/w2.err" &
w2pid=$!
"$workdir/floodworker" -server "$url" -name w3 -poll 200ms \
  -complete-delay 800ms 2> "$workdir/w3.err" &
w3pid=$!
"$workdir/floodworker" -server "$url" -name zombie -poll 200ms \
  -complete-delay 4.5s 2> "$workdir/zombie.err" &
zpid=$!
pids="$pids $w1pid $w2pid $w3pid $zpid"

# Kill worker 1 once the fleet has made some progress.
wait_counter "job.$id.lease.chunks.done" 1 300
kill -9 "$w1pid"
echo "floodd-chaos: SIGKILLed worker 1"

# Wait for the zombie certification: a double-completion observed via
# telemetry AND its cells provably dropped as duplicates.
wait_counter "job.$id.lease.zombie.completions" 1 600
wait_counter "job.$id.lease.cells.duplicate" 1 600
zombies=$(counter "job.$id.lease.zombie.completions")
dups=$(counter "job.$id.lease.cells.duplicate")
expired=$(counter "job.$id.lease.expired")
requeues=$(counter "job.$id.lease.requeues")
echo "floodd-chaos: zombie certified (zombie.completions=$zombies cells.duplicate=$dups expired=$expired requeues=$requeues)"
[ "$expired" -ge 1 ] || { echo "no lease ever expired" >&2; exit 1; }
[ "$requeues" -ge 1 ] || { echo "no chunk was ever requeued" >&2; exit 1; }

# SIGKILL the rest of the fleet: zombie plus workers 2 and 3.
for p in $zpid $w2pid $w3pid; do
  kill -9 "$p" 2>/dev/null || true
done
echo "floodd-chaos: SIGKILLed workers 2, 3 and the zombie"

# With every worker dead and a 120s local grace, the job cannot finish:
# the daemon dies mid-sweep by construction.
state=$(job_state)
if [ "$state" != "running" ]; then
  echo "job $id is $state before the daemon kill; expected running" >&2
  exit 1
fi
kill -9 "$dpid"
echo "floodd-chaos: SIGKILLed daemon 1 mid-sweep"

# --- Phase 2: restart over the same directory and finish. -------------------

"$workdir/floodd" -addr 127.0.0.1:0 -dir "$workdir/jobs" \
  -chunk 1 -lease-ttl "$ttl" -lease-attempts 10 \
  -local-grace 1s 2> "$workdir/floodd2.err" &
dpid2=$!
pids="$pids $dpid2"
scrape_url "$workdir/floodd2.err"
echo "floodd-chaos: daemon 2 at $url"
grep -q "job $id: requeued for resume" "$workdir/floodd2.err" || {
  # The scan log may land just after the listen line; give it a moment.
  sleep 1
  grep -q "job $id: requeued for resume" "$workdir/floodd2.err"
}

# A fresh worker joins the restarted sweep; the daemon's own executor
# kicks in after the 1s grace, so the job finishes either way.
"$workdir/floodworker" -server "$url" -name w4 -poll 200ms \
  -idle-exit 5s 2> "$workdir/w4.err" &
pids="$pids $!"

state=""
for _ in $(seq 1 1200); do
  state=$(job_state)
  case "$state" in
    done) break ;;
    failed|canceled)
      echo "job $id ended $state after restart" >&2
      curl -fsS "$url/v1/jobs/$id" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
if [ "$state" != "done" ]; then
  echo "job $id never finished after restart (last state: $state)" >&2
  exit 1
fi

resumed=$(curl -fsS "$url/v1/jobs/$id" | sed -n 's/.*"resumed"[": ]*\([0-9]*\).*/\1/p')
[ "${resumed:-0}" -ge 1 ] || {
  echo "restarted job replayed ${resumed:-0} journaled cells; expected >= 1" >&2
  exit 1
}
echo "floodd-chaos: job resumed with $resumed journaled cells and finished"

# --- The certification: byte-identical to the uninterrupted reference. ------

curl -fsS "$url/v1/jobs/$id/result" -o "$workdir/result.csv"
if ! cmp -s "$workdir/ref.csv" "$workdir/result.csv"; then
  echo "chaos-run CSV differs from the uninterrupted reference:" >&2
  diff "$workdir/ref.csv" "$workdir/result.csv" >&2 || true
  exit 1
fi

kill -TERM "$dpid2" 2>/dev/null || true
echo "floodd-chaos: ok (result byte-identical to reference)"
