#!/usr/bin/env bash
# e2e_distributed.sh — end-to-end harness for the distributed jobs path,
# run by the e2e-distributed CI job and usable locally:
#
#   ./scripts/e2e_distributed.sh
#
# It builds the real binaries, then walks the acceptance criteria:
#
#   1. a single-process dcserved renders every /v1 endpoint (the baseline);
#   2. a worker + front-end pair serves the same endpoints byte-identically
#      — Figures 2/5 and Table I included, so cluster experiments dispatch
#      too — with every counter key AND every cluster cell answered
#      remotely (no fallbacks of either kind); a traced cold request's
#      X-Dcs-Trace ID shows up in BOTH processes' /debug/traces rings with
#      spans covering the job's phases, the worker's per-kind job-latency
#      histogram counts agree with the front-end's per-kind dispatch
#      counters, and both trace rings are dumped to $TRACES_OUT (CI uploads
#      it);
#   3. a restarted front-end over the same store — its worker now dark —
#      serves the same bytes again with zero dispatches and zero
#      re-simulation of either kind (everything from the write-through
#      store);
#   4. a worker started with -max-inflight 1 admits concurrent jobs
#      through its one slot, and any request it sheds answers 429 with a
#      Retry-After hint;
#   5. the async job lifecycle end to end: POST /v1/jobs?wait=false
#      answers 202 + a job id, the job's history walks >= 3 distinct
#      states, its result matches the blocking endpoint's bytes, the SSE
#      stream replays the transitions and closes itself, and DELETE on a
#      job mid-simulation lands it in state "cancelled", frees the
#      admission slot, and leaves no partial record in the store;
#   6. the multi-tenant front door across the dispatch hop: a keyed
#      front-end over an unkeyed worker answers 401 unauthorized to
#      unkeyed callers, admits keyed ones, rate-limits a burst-1 tenant
#      with 429 quota_exceeded + Retry-After (distinguishable from the
#      admission layer's 429 by error code), surfaces per-tenant usage in
#      its own /healthz AND attributes dispatched jobs to the originating
#      tenant in the worker's /metrics (the X-Dcs-Tenant hop), and serves
#      the admin usage report only to the bootstrap token;
#   7. store replication survives losing a record's owner: three replicated
#      workers, one counters job warmed through a front-end, the owner
#      (the only node that simulated) killed — a fresh front-end spreading
#      reads over the full set (-dispatch-replicas 3) answers the same job
#      byte-identically from a survivor with zero re-simulation and zero
#      dispatch fallbacks, and a brand-new empty node pointed at the
#      survivors converges via anti-entropy (pulled records, no writes).
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$WORK"' EXIT

# Small, deterministic run parameters shared by every server and the client.
FLAGS=(-scale 0.004 -instrs 30000 -warmup 10000)
BASE_PORT=18470 WORKER_PORT=18471 FRONT_PORT=18472 FRONT2_PORT=18473 SHED_PORT=18474 ASYNC_PORT=18477 DEAD_PORT=18479
WORKER_DEBUG_PORT=18475 FRONT_DEBUG_PORT=18476
TWORKER_PORT=18480 TFRONT_PORT=18481 TADMIN_PORT=18482
RA_PORT=18483 RB_PORT=18484 RC_PORT=18485 RFRONT_PORT=18486 RFRONT2_PORT=18487 RNEW_PORT=18488
TRACES_OUT=${TRACES_OUT:-$WORK/TRACES_e2e.json}

echo "== build"
go build -o "$WORK/bin/" ./cmd/...

ENDPOINTS=()
for i in $(seq 1 12); do ENDPOINTS+=("/v1/figures/$i"); done
ENDPOINTS+=("/v1/figures/3?format=csv" "/v1/tables/1" "/v1/tables/1?format=csv"
  "/v1/tables/2" "/v1/tables/3" "/v1/workloads" "/v1/workloads/Sort/counters")

wait_ready() { # port
  for _ in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "server on port $1 never became ready" >&2
  return 1
}

fetch_all() { # port outdir
  mkdir -p "$2"
  local n=0
  for ep in "${ENDPOINTS[@]}"; do
    curl -sf "http://127.0.0.1:$1$ep" -o "$2/$n.body"
    n=$((n + 1))
  done
}

healthz_field() { # port python-expr over parsed healthz JSON bound to h
  curl -sf "http://127.0.0.1:$1/healthz" | python3 -c "
import json, sys
h = json.load(sys.stdin)
print($2)"
}

# per_kind helper: the dispatch block's per-kind counter for one job kind.
kind_field() { # port kind field
  healthz_field "$1" "next(k for k in h['store']['dispatch']['per_kind'] if k['kind'] == '$2')['$3']"
}

assert_eq() { # label got want
  if [ "$2" != "$3" ]; then
    echo "FAIL: $1: got $2, want $3" >&2
    exit 1
  fi
  echo "   ok: $1 = $2"
}

echo "== 1. single-process baseline"
"$WORK/bin/dcserved" -addr "127.0.0.1:$BASE_PORT" -store "$WORK/base.store" "${FLAGS[@]}" 2>"$WORK/base.log" &
BASE_PID=$!
wait_ready $BASE_PORT
fetch_all $BASE_PORT "$WORK/baseline"
kill $BASE_PID 2>/dev/null || true
wait $BASE_PID 2>/dev/null || true

echo "== 2. worker + front-end: both job kinds dispatch"
"$WORK/bin/dcserved" -addr "127.0.0.1:$WORKER_PORT" -store "$WORK/worker.store" \
  -debug-addr "127.0.0.1:$WORKER_DEBUG_PORT" "${FLAGS[@]}" 2>"$WORK/worker.log" &
WORKER_PID=$!
wait_ready $WORKER_PORT
"$WORK/bin/dcserved" -addr "127.0.0.1:$FRONT_PORT" -store "$WORK/front.store" \
  -debug-addr "127.0.0.1:$FRONT_DEBUG_PORT" \
  -workers "127.0.0.1:$WORKER_PORT" "${FLAGS[@]}" 2>"$WORK/front.log" &
FRONT_PID=$!
wait_ready $FRONT_PORT
# A cold counters request under a caller-chosen trace ID, fired while the
# stores are empty so it must dispatch: the ID has to come back in the
# response header and appear in both processes' trace rings below.
TRACE_ID=e2e0123456789abc
curl -sf -H "X-Dcs-Trace: $TRACE_ID" -D "$WORK/traced.hdr" -o /dev/null \
  "http://127.0.0.1:$FRONT_PORT/v1/workloads/Sort/counters"
grep -qi "^X-Dcs-Trace: $TRACE_ID" "$WORK/traced.hdr" \
  || { echo "FAIL: response did not echo the inbound trace ID" >&2; exit 1; }
echo "   ok: response echoed X-Dcs-Trace: $TRACE_ID"
fetch_all $FRONT_PORT "$WORK/dist"
diff -r "$WORK/baseline" "$WORK/dist" \
  || { echo "FAIL: front-end bytes diverge from single-process dcserved" >&2; exit 1; }
echo "   ok: ${#ENDPOINTS[@]} endpoints byte-identical (Figures 2/5 + Table I included)"
assert_eq "front-end fallbacks" "$(healthz_field $FRONT_PORT "h['store']['dispatch']['fallbacks']")" 0
REMOTE_HITS=$(healthz_field $FRONT_PORT "h['store']['dispatch']['remote_hits']")
[ "$REMOTE_HITS" -gt 0 ] || { echo "FAIL: front-end never used its worker" >&2; exit 1; }
echo "   ok: remote_hits = $REMOTE_HITS"
COUNTER_HITS=$(kind_field $FRONT_PORT counters remote_hits)
CLUSTER_HITS=$(kind_field $FRONT_PORT cluster remote_hits)
[ "$COUNTER_HITS" -gt 0 ] || { echo "FAIL: no counter jobs reached the worker" >&2; exit 1; }
[ "$CLUSTER_HITS" -gt 0 ] || { echo "FAIL: no cluster jobs reached the worker (Figure 2/5 ran on the front-end)" >&2; exit 1; }
echo "   ok: per-kind remote hits: counters = $COUNTER_HITS, cluster = $CLUSTER_HITS"
assert_eq "cluster-job fallbacks" "$(kind_field $FRONT_PORT cluster fallbacks)" 0

# Trace propagation: the traced request's ID must be in BOTH rings — the
# front-end's inbound trace and the worker-side trace of the dispatched
# job — with the phases each side owns.
trace_phases() { # debug-port trace-id -> space-joined sorted distinct span names
  curl -sf "http://127.0.0.1:$1/debug/traces?limit=512" | python3 -c "
import json, sys
doc = json.load(sys.stdin)
for td in doc['traces']:
    if td['id'] == '$2':
        print(' '.join(sorted({s['name'] for s in td.get('spans', [])})))
        break"
}
FRONT_PHASES=$(trace_phases $FRONT_DEBUG_PORT "$TRACE_ID")
WORKER_PHASES=$(trace_phases $WORKER_DEBUG_PORT "$TRACE_ID")
[ -n "$FRONT_PHASES" ] || { echo "FAIL: front-end ring lacks trace $TRACE_ID" >&2; exit 1; }
[ -n "$WORKER_PHASES" ] \
  || { echo "FAIL: worker ring lacks trace $TRACE_ID (dispatch dropped the ID)" >&2; exit 1; }
echo "   front-end phases: $FRONT_PHASES"
echo "   worker phases:    $WORKER_PHASES"
case " $FRONT_PHASES " in *" dispatch "*) ;; *)
  echo "FAIL: front-end trace has no dispatch span" >&2; exit 1 ;; esac
for p in admission simulate; do
  case " $WORKER_PHASES " in *" $p "*) ;; *)
    echo "FAIL: worker trace has no $p span" >&2; exit 1 ;; esac
done
UNION=$(echo "$FRONT_PHASES $WORKER_PHASES" | tr ' ' '\n' | sort -u | grep -c .)
[ "$UNION" -ge 5 ] || { echo "FAIL: trace covers $UNION distinct phases, want >= 5" >&2; exit 1; }
echo "   ok: trace $TRACE_ID spans both processes, $UNION distinct phases"

# Histogram consistency: every job the front-end counts as a per-kind
# remote hit ran on the worker, where it is one observation in the
# per-kind job-latency histogram.
job_hist_count() { # port kind
  curl -sf "http://127.0.0.1:$1/metrics" \
    | sed -n "s/^dcserved_job_duration_seconds_count{kind=\"$2\"} //p"
}
assert_eq "worker counters histogram _count vs front-end remote hits" \
  "$(job_hist_count $WORKER_PORT counters)" "$COUNTER_HITS"
assert_eq "worker cluster histogram _count vs front-end remote hits" \
  "$(job_hist_count $WORKER_PORT cluster)" "$CLUSTER_HITS"
# The cold-vs-warm latency split is visible in the bucket ladder; leave
# it in the log (and the trace artifact) for eyeballing.
curl -sf "http://127.0.0.1:$WORKER_PORT/metrics" \
  | grep '^dcserved_job_duration_seconds_bucket{kind="counters"' | sed 's/^/   /'

# Dump both rings (newest-first, slowest requests and all their spans
# included) as the run's trace artifact.
curl -sf "http://127.0.0.1:$FRONT_DEBUG_PORT/debug/traces?limit=512" >"$WORK/front_traces.json"
curl -sf "http://127.0.0.1:$WORKER_DEBUG_PORT/debug/traces?limit=512" >"$WORK/worker_traces.json"
python3 -c "
import json
out = {'trace_id': '$TRACE_ID',
       'front': json.load(open('$WORK/front_traces.json')),
       'worker': json.load(open('$WORK/worker_traces.json'))}
json.dump(out, open('$TRACES_OUT', 'w'), indent=2)"
echo "   ok: trace artifact at $TRACES_OUT"

echo "== 3. front-end restart with a dark worker: warm store, no dispatch, no re-simulation"
kill $FRONT_PID $WORKER_PID 2>/dev/null || true
wait $FRONT_PID $WORKER_PID 2>/dev/null || true
"$WORK/bin/dcserved" -addr "127.0.0.1:$FRONT2_PORT" -store "$WORK/front.store" \
  -workers "127.0.0.1:$DEAD_PORT" "${FLAGS[@]}" 2>"$WORK/front2.log" &
wait_ready $FRONT2_PORT
fetch_all $FRONT2_PORT "$WORK/warm"
diff -r "$WORK/baseline" "$WORK/warm" \
  || { echo "FAIL: restarted front-end bytes diverge" >&2; exit 1; }
echo "   ok: restart byte-identical"
assert_eq "restart dispatches" "$(healthz_field $FRONT2_PORT "h['store']['dispatch']['dispatched']")" 0
assert_eq "restart cluster dispatches" "$(kind_field $FRONT2_PORT cluster dispatched)" 0
assert_eq "restart fallbacks" "$(healthz_field $FRONT2_PORT "h['store']['dispatch']['fallbacks']")" 0
STORE_HITS=$(healthz_field $FRONT2_PORT "h['store']['hits']")
[ "$STORE_HITS" -gt 0 ] || { echo "FAIL: restarted front-end never read its store" >&2; exit 1; }
STORE_WRITES=$(healthz_field $FRONT2_PORT "h['store']['writes']")
assert_eq "restart store writes (re-simulations, both kinds)" "$STORE_WRITES" 0
echo "   ok: store hits = $STORE_HITS"

echo "== 4. admission control: a 1-slot worker admits through the slot, sheds with 429 + Retry-After"
# Whether the second concurrent job lands in the slot or is shed depends
# on timing, so assert the invariants rather than a fixed schedule: at
# least one job succeeds, any refusal is a 429 carrying Retry-After, and
# the jobs admission block is exported. (The deterministic saturate-shed-
# release walk is the Go-level TestAdmissionControl.)
"$WORK/bin/dcserved" -addr "127.0.0.1:$SHED_PORT" -store "$WORK/shed.store" -max-inflight 1 \
  "${FLAGS[@]}" 2>"$WORK/shed.log" &
wait_ready $SHED_PORT
# Fire two cluster jobs at the 1-slot worker concurrently; at least one
# must succeed, and any refusal must be a 429 carrying Retry-After.
JOB='{"kind":"cluster","key":{"Workload":"Sort","Slaves":4,"Scale":0.004,"Seed":42}}'
curl -s -o "$WORK/shed1.body" -D "$WORK/shed1.hdr" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' -d "$JOB" \
  "http://127.0.0.1:$SHED_PORT/v1/jobs" >"$WORK/shed1.code" &
C1_PID=$!
curl -s -o "$WORK/shed2.body" -D "$WORK/shed2.hdr" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' -d "$JOB" \
  "http://127.0.0.1:$SHED_PORT/v1/jobs" >"$WORK/shed2.code" &
C2_PID=$!
wait $C1_PID $C2_PID
CODE1=$(cat "$WORK/shed1.code"); CODE2=$(cat "$WORK/shed2.code")
echo "   concurrent job statuses: $CODE1, $CODE2"
case "$CODE1$CODE2" in
  *200*) echo "   ok: at least one job admitted" ;;
  *) echo "FAIL: no job succeeded against the 1-slot worker" >&2; exit 1 ;;
esac
for n in 1 2; do
  if [ "$(cat "$WORK/shed$n.code")" = "429" ]; then
    grep -qi '^Retry-After:' "$WORK/shed$n.hdr" \
      || { echo "FAIL: 429 without Retry-After" >&2; exit 1; }
    echo "   ok: shed response carried Retry-After"
  fi
done
assert_eq "worker max_inflight exported" "$(healthz_field $SHED_PORT "h['jobs']['max_inflight']")" 1

echo "== 5. async lifecycle: 202 submit, state history, SSE, cancel mid-simulation"
# Its own worker on purpose: one slot so the cancelled job provably frees
# it. The slow job spends its life in "simulating", and the cancel stops
# it mid-trace.
"$WORK/bin/dcserved" -addr "127.0.0.1:$ASYNC_PORT" -store "$WORK/async.store" \
  -max-inflight 1 "${FLAGS[@]}" 2>"$WORK/async.log" &
wait_ready $ASYNC_PORT

# Counters keys are hand-built here, so the ConfigFP must be the worker's
# own machine fingerprint at this run's -warmup — healthz exports exactly
# that value for this purpose.
CFP=$(healthz_field $ASYNC_PORT "int(h['config_fp'], 16)")
counters_job() { # seed max-instrs -> JobRequest JSON (warmup matches FLAGS)
  echo "{\"kind\":\"counters\",\"warmup\":10000,\"key\":{\"Name\":\"Sort\",\"Profile\":{\"Seed\":$1,\"MaxInstrs\":$2,\"CodeKB\":64,\"HeapMB\":4},\"ConfigFP\":$CFP,\"MaxInstrs\":$2}}"
}

job_field() { # port job-id python-expr over parsed job JSON bound to j
  curl -sf "http://127.0.0.1:$1/v1/jobs/$2" | python3 -c "
import json, sys
j = json.load(sys.stdin)
print($3)"
}

wait_job_state() { # port job-id state... -> 0 once current state is one of them
  local port=$1 id=$2 st
  shift 2
  for _ in $(seq 1 300); do
    st=$(job_field "$port" "$id" "j['state']")
    local want
    for want in "$@"; do
      [ "$st" = "$want" ] && { echo "$st"; return 0; }
    done
    sleep 0.1
  done
  echo "$st"
  return 1
}

# 5a. submit asynchronously: 202, a Location header, and a job id.
CODE=$(curl -s -o "$WORK/submit1.json" -D "$WORK/submit1.hdr" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' -d "$(counters_job 7 40000)" \
  "http://127.0.0.1:$ASYNC_PORT/v1/jobs?wait=false")
assert_eq "async submit status" "$CODE" 202
JOB1=$(python3 -c "import json; print(json.load(open('$WORK/submit1.json'))['id'])")
grep -qi "^Location: /v1/jobs/$JOB1" "$WORK/submit1.hdr" \
  || { echo "FAIL: 202 without a Location header pointing at the job" >&2; exit 1; }
echo "   ok: job $JOB1 accepted with Location header"

# 5b. the job runs to "done" and its history shows the lifecycle: at
# least queued, an execution phase, and the terminal state.
FINAL=$(wait_job_state $ASYNC_PORT "$JOB1" done failed cancelled) \
  || { echo "FAIL: job $JOB1 never reached a terminal state" >&2; exit 1; }
assert_eq "async job final state" "$FINAL" done
DISTINCT=$(job_field $ASYNC_PORT "$JOB1" "len({t['state'] for t in j['history']})")
[ "$DISTINCT" -ge 3 ] \
  || { echo "FAIL: job history has $DISTINCT distinct states, want >= 3" >&2; exit 1; }
echo "   ok: history walked $DISTINCT distinct states:" \
  "$(job_field $ASYNC_PORT "$JOB1" "' '.join(t['state'] for t in j['history'])")"

# 5c. the stored result is byte-identical to the blocking endpoint's
# answer for the same request.
curl -sf "http://127.0.0.1:$ASYNC_PORT/v1/jobs/$JOB1/result" -o "$WORK/async1.result"
curl -sf -X POST -H 'Content-Type: application/json' -d "$(counters_job 7 40000)" \
  "http://127.0.0.1:$ASYNC_PORT/v1/jobs" -o "$WORK/blocking1.result"
cmp -s "$WORK/async1.result" "$WORK/blocking1.result" \
  || { echo "FAIL: async result diverges from the blocking endpoint's bytes" >&2; exit 1; }
echo "   ok: async result byte-identical to blocking POST /v1/jobs"

# 5d. SSE smoke: the stream replays one `event: state` frame per
# transition and closes itself after the terminal state (the job is
# already terminal, so a hang here means the stream never closes).
curl -sN -H 'Accept: text/event-stream' --max-time 10 \
  "http://127.0.0.1:$ASYNC_PORT/v1/jobs/$JOB1" >"$WORK/sse1.txt" \
  || { echo "FAIL: SSE stream did not close after the terminal state" >&2; exit 1; }
SSE_FRAMES=$(grep -c '^event: state' "$WORK/sse1.txt")
[ "$SSE_FRAMES" -ge 3 ] \
  || { echo "FAIL: SSE stream carried $SSE_FRAMES state frames, want >= 3" >&2; exit 1; }
echo "   ok: SSE stream replayed $SSE_FRAMES state frames and closed"

# 5e. cancel mid-simulation: a long job (500M instructions, ~1000x the
# normal run) is cancelled while simulating; it must land in state
# "cancelled", free the worker's only slot, and write nothing.
W0=$(healthz_field $ASYNC_PORT "h['store']['writes']")
CODE=$(curl -s -o "$WORK/submit2.json" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' -d "$(counters_job 99 500000000)" \
  "http://127.0.0.1:$ASYNC_PORT/v1/jobs?wait=false")
assert_eq "slow submit status" "$CODE" 202
JOB2=$(python3 -c "import json; print(json.load(open('$WORK/submit2.json'))['id'])")
MID=$(wait_job_state $ASYNC_PORT "$JOB2" simulating) \
  || { echo "FAIL: slow job state is '$MID', never reached simulating" >&2; exit 1; }
CODE=$(curl -s -o "$WORK/cancel2.json" -w '%{http_code}' \
  -X DELETE "http://127.0.0.1:$ASYNC_PORT/v1/jobs/$JOB2")
assert_eq "cancel status" "$CODE" 200
FINAL=$(wait_job_state $ASYNC_PORT "$JOB2" done failed cancelled) \
  || { echo "FAIL: cancelled job never reached a terminal state" >&2; exit 1; }
assert_eq "cancelled job state" "$FINAL" cancelled
for _ in $(seq 1 100); do
  INFLIGHT=$(healthz_field $ASYNC_PORT "h['jobs']['in_flight']")
  [ "$INFLIGHT" = 0 ] && break
  sleep 0.1
done
assert_eq "jobs in flight after cancel (slot freed)" "$INFLIGHT" 0
assert_eq "store writes after cancel (no partial record)" \
  "$(healthz_field $ASYNC_PORT "h['store']['writes']")" "$W0"
assert_eq "cancelled jobs counter" "$(healthz_field $ASYNC_PORT "h['jobs']['cancelled']")" 1
CODE=$(curl -s -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:$ASYNC_PORT/v1/jobs/$JOB2/result")
assert_eq "cancelled job result status" "$CODE" 410

echo "== 6. multi-tenant front door: keys, rate limits, attribution across the dispatch hop"
cat >"$WORK/keys.json" <<'EOF'
{"keys": [
  {"id": "alice", "secret": "alice-key"},
  {"id": "bob", "secret": "bob-key", "limits": {"rate_per_sec": 0.01, "burst": 1}}
]}
EOF
# An UNKEYED worker under a KEYED front-end: enforcement happens at the
# front door, attribution crosses the hop in the X-Dcs-Tenant header.
"$WORK/bin/dcserved" -addr "127.0.0.1:$TWORKER_PORT" -store "$WORK/tworker.store" \
  "${FLAGS[@]}" 2>"$WORK/tworker.log" &
wait_ready $TWORKER_PORT
"$WORK/bin/dcserved" -addr "127.0.0.1:$TFRONT_PORT" -store "$WORK/tfront.store" \
  -keys-file "$WORK/keys.json" -admin-addr "127.0.0.1:$TADMIN_PORT" -admin-token boot-token \
  -workers "127.0.0.1:$TWORKER_PORT" "${FLAGS[@]}" 2>"$WORK/tfront.log" &
wait_ready $TFRONT_PORT   # the probe needs no key: LBs keep working

error_code() { # headers-file -> the X-Dcs-Error-Code header value
  sed -n 's/^[Xx]-[Dd]cs-[Ee]rror-[Cc]ode: *//p' "$1" | tr -d '\r'
}

# 6a. no key -> 401 unauthorized, as a machine-readable envelope.
CODE=$(curl -s -o "$WORK/unauth.json" -D "$WORK/unauth.hdr" -w '%{http_code}' \
  "http://127.0.0.1:$TFRONT_PORT/v1/workloads")
assert_eq "unkeyed request status" "$CODE" 401
assert_eq "unkeyed error code header" "$(error_code "$WORK/unauth.hdr")" unauthorized
assert_eq "unkeyed envelope code" \
  "$(python3 -c "import json; print(json.load(open('$WORK/unauth.json'))['error']['code'])")" unauthorized

# 6b. alice's key admits her — including a cold compute job, which
# dispatches to the unkeyed worker carrying her identity.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'Authorization: Bearer alice-key' \
  "http://127.0.0.1:$TFRONT_PORT/v1/workloads")
assert_eq "alice keyed request status" "$CODE" 200
TCFP=$(healthz_field $TFRONT_PORT "int(h['config_fp'], 16)")
TJOB="{\"kind\":\"counters\",\"warmup\":10000,\"key\":{\"Name\":\"Sort\",\"Profile\":{\"Seed\":21,\"MaxInstrs\":40000,\"CodeKB\":64,\"HeapMB\":4},\"ConfigFP\":$TCFP,\"MaxInstrs\":40000}}"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'Authorization: Bearer alice-key' \
  -X POST -H 'Content-Type: application/json' -d "$TJOB" \
  "http://127.0.0.1:$TFRONT_PORT/v1/jobs")
assert_eq "alice dispatched job status" "$CODE" 200

# 6c. bob's burst-1 bucket: the first request passes (the X-Dcs-Api-Key
# spelling), the second answers 429 quota_exceeded with Retry-After —
# the same status as admission shed but a different code, so clients can
# tell "slow down" from "worker full".
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Dcs-Api-Key: bob-key' \
  "http://127.0.0.1:$TFRONT_PORT/v1/workloads")
assert_eq "bob first request status" "$CODE" 200
CODE=$(curl -s -o "$WORK/ratelim.json" -D "$WORK/ratelim.hdr" -w '%{http_code}' \
  -H 'X-Dcs-Api-Key: bob-key' "http://127.0.0.1:$TFRONT_PORT/v1/workloads")
assert_eq "bob second request status" "$CODE" 429
assert_eq "rate-limit error code" "$(error_code "$WORK/ratelim.hdr")" quota_exceeded
grep -qi '^Retry-After:' "$WORK/ratelim.hdr" \
  || { echo "FAIL: rate-limit 429 without Retry-After" >&2; exit 1; }
echo "   ok: quota_exceeded and unauthorized are distinct machine-readable codes"

# 6d. the front-end accounts per tenant in its own /healthz.
ALICE_REQS=$(healthz_field $TFRONT_PORT \
  "next(t for t in h['tenants']['per_tenant'] if t['id'] == 'alice')['usage']['requests']")
[ "$ALICE_REQS" -ge 2 ] || { echo "FAIL: alice's admitted requests = $ALICE_REQS, want >= 2" >&2; exit 1; }
assert_eq "bob rate-limited counter" "$(healthz_field $TFRONT_PORT \
  "next(t for t in h['tenants']['per_tenant'] if t['id'] == 'bob')['usage']['rate_limited']")" 1
echo "   ok: front-end per-tenant usage: alice requests = $ALICE_REQS"

# 6e. attribution crossed the dispatch hop: the UNKEYED worker's metrics
# name alice as the tenant behind the dispatched job.
curl -sf "http://127.0.0.1:$TWORKER_PORT/metrics" | grep -q 'dcserved_tenant_requests_total{tenant="alice"}' \
  || { echo "FAIL: worker metrics lack alice's attribution (X-Dcs-Tenant hop broken)" >&2; exit 1; }
curl -sf "http://127.0.0.1:$TWORKER_PORT/metrics" \
  | grep 'dcserved_tenant_jobs_total{tenant="alice"' | sed 's/^/   /'
echo "   ok: worker attributed the dispatched job to alice"

# 6f. the admin plane: usage report behind the bootstrap token only.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$TADMIN_PORT/admin/v1/usage")
assert_eq "admin without token" "$CODE" 401
curl -sf -H 'Authorization: Bearer boot-token' "http://127.0.0.1:$TADMIN_PORT/admin/v1/usage" \
  | python3 -c "
import json, sys
ids = {t['id'] for t in json.load(sys.stdin)['tenants']}
assert {'alice', 'bob'} <= ids, ids
print('   ok: admin usage report covers', ', '.join(sorted(ids)))"

echo "== 7. replication: kill the owner, survivors answer byte-identically with zero re-simulation"
# Three workers replicating every record to each other (factor 3), fast
# anti-entropy so convergence finishes in CI time.
R_PORTS=($RA_PORT $RB_PORT $RC_PORT)
for i in 0 1 2; do
  PEERS=""
  for j in 0 1 2; do
    [ $i = $j ] && continue
    PEERS="$PEERS${PEERS:+,}127.0.0.1:${R_PORTS[$j]}"
  done
  "$WORK/bin/dcserved" -addr "127.0.0.1:${R_PORTS[$i]}" -store "$WORK/r$i.store" \
    -replicas "$PEERS" -replication-factor 3 -anti-entropy-interval 2s \
    "${FLAGS[@]}" 2>"$WORK/r$i.log" &
  R_PIDS[$i]=$!
done
for p in "${R_PORTS[@]}"; do wait_ready "$p"; done
ALL_WORKERS="127.0.0.1:$RA_PORT,127.0.0.1:$RB_PORT,127.0.0.1:$RC_PORT"
# -store "" : the front-ends must NOT cache (the -store flag defaults to
# a local directory) — every answer in this step has to come off a worker.
"$WORK/bin/dcserved" -addr "127.0.0.1:$RFRONT_PORT" -store "" \
  -workers "$ALL_WORKERS" "${FLAGS[@]}" 2>"$WORK/rfront.log" &
RFRONT_PID=$!
wait_ready $RFRONT_PORT

# 7a. warm one counters job through the front-end: exactly one worker
# simulates it (the key's rendezvous owner); write-through fan-out copies
# the record to both peers without them simulating anything.
RCFP=$(healthz_field $RA_PORT "int(h['config_fp'], 16)")
RJOB="{\"kind\":\"counters\",\"warmup\":10000,\"key\":{\"Name\":\"Sort\",\"Profile\":{\"Seed\":5,\"MaxInstrs\":40000,\"CodeKB\":64,\"HeapMB\":4},\"ConfigFP\":$RCFP,\"MaxInstrs\":40000}}"
curl -sf -X POST -H 'Content-Type: application/json' -d "$RJOB" \
  "http://127.0.0.1:$RFRONT_PORT/v1/jobs" -o "$WORK/replica_warm.body"
OWNER=-1
for i in 0 1 2; do
  W=$(healthz_field "${R_PORTS[$i]}" "h['store']['writes']")
  if [ "$W" != 0 ]; then
    [ "$OWNER" = -1 ] || { echo "FAIL: two owners simulated one key" >&2; exit 1; }
    OWNER=$i
    assert_eq "owner writes" "$W" 1
  fi
done
[ "$OWNER" != -1 ] || { echo "FAIL: no worker recorded the simulation" >&2; exit 1; }
echo "   ok: owner is node $OWNER (port ${R_PORTS[$OWNER]})"

# 7b. both survivors hold the record via the async push (not anti-entropy
# yet — that cadence is 2s, pushes land in milliseconds).
SURVIVORS=()
for i in 0 1 2; do [ $i = "$OWNER" ] || SURVIVORS+=($i); done
for i in "${SURVIVORS[@]}"; do
  for _ in $(seq 1 100); do
    [ "$(healthz_field "${R_PORTS[$i]}" "h['store']['records']")" = 1 ] && break
    sleep 0.05
  done
  assert_eq "survivor $i replicated records" \
    "$(healthz_field "${R_PORTS[$i]}" "h['store']['records']")" 1
  assert_eq "survivor $i writes (no re-simulation)" \
    "$(healthz_field "${R_PORTS[$i]}" "h['store']['writes']")" 0
done
OWNER_PUSHED=$(healthz_field "${R_PORTS[$OWNER]}" "h['store']['replication']['pushed']")
[ "$OWNER_PUSHED" -ge 2 ] || { echo "FAIL: owner pushed $OWNER_PUSHED records, want >= 2" >&2; exit 1; }
echo "   ok: write-through fan-out landed on both survivors (owner pushed $OWNER_PUSHED)"

# 7c. kill the owner; a fresh front-end rotating reads across the full
# worker set answers the same job byte-identically from a survivor:
# no fallback (nothing simulated locally), no survivor write.
kill "${R_PIDS[$OWNER]}" 2>/dev/null || true
wait "${R_PIDS[$OWNER]}" 2>/dev/null || true
"$WORK/bin/dcserved" -addr "127.0.0.1:$RFRONT2_PORT" -store "" \
  -workers "$ALL_WORKERS" -dispatch-replicas 3 "${FLAGS[@]}" 2>"$WORK/rfront2.log" &
wait_ready $RFRONT2_PORT
curl -sf -X POST -H 'Content-Type: application/json' -d "$RJOB" \
  "http://127.0.0.1:$RFRONT2_PORT/v1/jobs" -o "$WORK/replica_failover.body"
cmp -s "$WORK/replica_warm.body" "$WORK/replica_failover.body" \
  || { echo "FAIL: survivor's bytes diverge from the owner's original record" >&2; exit 1; }
echo "   ok: failover answer byte-identical to the dead owner's record"
assert_eq "failover fallbacks" "$(healthz_field $RFRONT2_PORT "h['store']['dispatch']['fallbacks']")" 0
RH=$(healthz_field $RFRONT2_PORT "h['store']['dispatch']['remote_hits']")
[ "$RH" -ge 1 ] || { echo "FAIL: failover request never hit a worker" >&2; exit 1; }
for i in "${SURVIVORS[@]}"; do
  assert_eq "survivor $i writes after failover (zero re-simulation)" \
    "$(healthz_field "${R_PORTS[$i]}" "h['store']['writes']")" 0
done

# 7d. a brand-new empty node pointed at the survivors converges by
# anti-entropy alone: it pulls the record it is missing and never
# simulates.
NEW_PEERS="127.0.0.1:${R_PORTS[${SURVIVORS[0]}]},127.0.0.1:${R_PORTS[${SURVIVORS[1]}]}"
"$WORK/bin/dcserved" -addr "127.0.0.1:$RNEW_PORT" -store "$WORK/rnew.store" \
  -replicas "$NEW_PEERS" -replication-factor 3 -anti-entropy-interval 1s \
  "${FLAGS[@]}" 2>"$WORK/rnew.log" &
wait_ready $RNEW_PORT
for _ in $(seq 1 200); do
  [ "$(healthz_field $RNEW_PORT "h['store']['records']")" = 1 ] && break
  sleep 0.1
done
assert_eq "new node records after anti-entropy" \
  "$(healthz_field $RNEW_PORT "h['store']['records']")" 1
assert_eq "new node writes (convergence costs no simulation)" \
  "$(healthz_field $RNEW_PORT "h['store']['writes']")" 0
PULLED=$(healthz_field $RNEW_PORT "h['store']['replication']['pulled']")
REPAIRED=$(healthz_field $RNEW_PORT "h['store']['replication']['repaired']")
[ "$PULLED" -ge 1 ] || { echo "FAIL: new node pulled $PULLED records" >&2; exit 1; }
[ "$REPAIRED" -ge 1 ] || { echo "FAIL: new node repaired $REPAIRED records" >&2; exit 1; }
echo "   ok: new node converged (pulled $PULLED, repaired $REPAIRED)"
# The cluster-wide gauge (total record copies across self + peers,
# refreshed each digest round) settles at one copy per live node once a
# round runs against the converged stores.
for _ in $(seq 1 100); do
  CLUSTER_RECORDS=$(healthz_field $RNEW_PORT "h['store']['replication']['cluster_records']")
  [ "$CLUSTER_RECORDS" = 3 ] && break
  sleep 0.1
done
assert_eq "cluster record copies (one per live node)" "$CLUSTER_RECORDS" 3

echo "e2e-distributed: PASS"
