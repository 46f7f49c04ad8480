#!/usr/bin/env bash
# Smoke test for the slipd daemon: build, start over a durable -store-dir,
# health-check, submit one run, poll to completion, assert a non-empty
# result, verify the result store answers an identical POST, check that
# jobs record no traces while the experiments suite's trace cache replays,
# the warm-state snapshot cache and the pprof listener, drain cleanly on
# SIGTERM, then restart over the same -store-dir and require the repeat
# POST to be answered from disk with byte-identical result JSON.
set -euo pipefail

ADDR="${SLIPD_ADDR:-127.0.0.1:18080}"
PPROF_ADDR="${SLIPD_PPROF_ADDR:-127.0.0.1:18081}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
BIN="$TMP/slipd"

cd "$(dirname "$0")/.."
go build -o "$BIN" ./cmd/slipd

# start_slipd [flags...] starts the daemon over $TMP/store and waits for it.
start_slipd() {
  "$BIN" -addr "$ADDR" -accesses 20000 -warmup 20000 -queue 8 -store 16 \
    -store-dir "$TMP/store" "$@" &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  curl -fsS "$BASE/healthz" | grep -q ok
}
cleanup() {
  kill "${PID:-}" 2>/dev/null && wait "$PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

start_slipd -pprof-addr "$PPROF_ADDR"
echo "healthz ok"

REQ='{"workload":"milc","policy":"slip+abp","seed":7}'
POST1=$(curl -fsS -X POST -d "$REQ" "$BASE/v1/runs")
ID=$(echo "$POST1" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
FULLKEY=$(echo "$POST1" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "no job id returned"; exit 1; }
echo "submitted job $ID"

BODY=""
for _ in $(seq 1 300); do
  BODY=$(curl -fsS "$BASE/v1/runs/$ID")
  case "$BODY" in
    *'"state":"completed"'*) break ;;
    *'"state":"failed"'* | *'"state":"cancelled"'*) echo "job did not complete: $BODY"; exit 1 ;;
  esac
  sleep 0.2
done
echo "$BODY" | grep -q '"state":"completed"' || { echo "timed out: $BODY"; exit 1; }
echo "$BODY" | grep -q '"full_system_pj":[0-9]' || { echo "empty result: $BODY"; exit 1; }
echo "job completed with a result"

# An identical POST must be served from the result store...
CACHED=$(curl -fsS -X POST -d "$REQ" "$BASE/v1/runs")
echo "$CACHED" | grep -q '"cached":true' || { echo "second POST not cached: $CACHED"; exit 1; }
# ...and the cache-hit counter must observe it. (Capture the body before
# grepping: grep -q exits on match, and pipefail would turn curl's
# resulting SIGPIPE into a spurious failure.)
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^slipd_result_cache_hits_total 1$' || {
  echo "cache hit not visible in /metrics"; exit 1
}
echo "result store hit confirmed via /metrics"
RESULT1=$(curl -fsS "$BASE/v1/results/$FULLKEY")
echo "$RESULT1" | grep -q '"full_system_pj"' || { echo "bad result fetch: $RESULT1"; exit 1; }

# Jobs record no traces: each brings its own stream (its seed and measured
# window are part of the trace key), so a different policy over the same
# workload and seed generates its stream again and never looks up the trace
# cache. That cache belongs to the /v1/experiments suite, whose H-tree runs
# replay the baseline runs' streams: after one render it reports hits and
# a non-zero retained footprint.
REQ2='{"workload":"milc","policy":"slip","seed":7}'
ID2=$(curl -fsS -X POST -d "$REQ2" "$BASE/v1/runs" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ID2" ] || { echo "no job id for second policy"; exit 1; }
for _ in $(seq 1 300); do
  B2=$(curl -fsS "$BASE/v1/runs/$ID2")
  case "$B2" in
    *'"state":"completed"'*) break ;;
    *'"state":"failed"'* | *'"state":"cancelled"'*) echo "second policy job did not complete: $B2"; exit 1 ;;
  esac
  sleep 0.2
done
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^slip_trace_cache_misses 0$' || {
  echo "a job recorded a trace per /metrics"; exit 1
}
echo "jobs recorded no traces"
HTREE=$(curl -fsS "$BASE/v1/experiments/htree")
echo "$HTREE" | grep -q 'H-tree' || { echo "htree render unrecognizable: $HTREE"; exit 1; }
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -Eq '^slip_trace_cache_hits [1-9]' || {
  echo "no trace cache hit after the htree render"; exit 1
}
echo "$METRICS" | grep -Eq '^slip_trace_cache_bytes [1-9]' || {
  echo "trace cache retains no bytes after the htree render"; exit 1
}
echo "experiments trace cache hit/bytes confirmed via /metrics"

# A run repeating an earlier job's warmup identity — same workload, policy,
# seed and warmup, different measured window — must start from the cached
# warm snapshot instead of re-simulating its warmup: the warm cache reports
# the earlier jobs' misses, this job's hit, and a retained footprint.
REQ3='{"workload":"milc","policy":"slip","seed":7,"accesses":10000}'
ID3=$(curl -fsS -X POST -d "$REQ3" "$BASE/v1/runs" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ID3" ] || { echo "no job id for warm-repeat run"; exit 1; }
for _ in $(seq 1 300); do
  B3=$(curl -fsS "$BASE/v1/runs/$ID3")
  case "$B3" in
    *'"state":"completed"'*) break ;;
    *'"state":"failed"'* | *'"state":"cancelled"'*) echo "warm-repeat job did not complete: $B3"; exit 1 ;;
  esac
  sleep 0.2
done
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -Eq '^slip_warm_cache_hits [1-9]' || {
  echo "no warm cache hit in /metrics"; exit 1
}
echo "$METRICS" | grep -Eq '^slip_warm_cache_misses [1-9]' || {
  echo "no warm cache miss in /metrics"; exit 1
}
echo "$METRICS" | grep -Eq '^slip_warm_cache_bytes [1-9]' || {
  echo "warm cache retains no bytes per /metrics"; exit 1
}
echo "$METRICS" | grep -q '^slip_warm_cache_evictions ' || {
  echo "warm cache evictions gauge missing from /metrics"; exit 1
}
echo "warm cache hit/miss/bytes confirmed via /metrics"

# A set-sampled spec must be a first-class run: its key splits from the
# full-fidelity twin (no cache collision possible), the result round-trips
# the sampling factor and the raw sampled/skipped partition alongside the
# extrapolated counters, and the sampled-runs counter observes it.
REQS='{"workload":"milc","policy":"slip+abp","seed":7,"sampling":8}'
SPOST=$(curl -fsS -X POST -d "$REQS" "$BASE/v1/runs")
SID=$(echo "$SPOST" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
SKEY=$(echo "$SPOST" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$SID" ] || { echo "no job id for sampled run"; exit 1; }
[ -n "$SKEY" ] && [ "$SKEY" != "$FULLKEY" ] || {
  echo "sampled key $SKEY collides with full-fidelity key $FULLKEY"; exit 1
}
SBODY=""
for _ in $(seq 1 300); do
  SBODY=$(curl -fsS "$BASE/v1/runs/$SID")
  case "$SBODY" in
    *'"state":"completed"'*) break ;;
    *'"state":"failed"'* | *'"state":"cancelled"'*) echo "sampled job did not complete: $SBODY"; exit 1 ;;
  esac
  sleep 0.2
done
echo "$SBODY" | grep -q '"state":"completed"' || { echo "sampled job timed out: $SBODY"; exit 1; }
echo "$SBODY" | grep -q '"sampling":8' || { echo "result lost the sampling factor: $SBODY"; exit 1; }
echo "$SBODY" | grep -Eq '"sampled_accesses":[1-9]' || { echo "no sampled accesses reported: $SBODY"; exit 1; }
echo "$SBODY" | grep -Eq '"skipped_accesses":[1-9]' || { echo "no skipped accesses reported: $SBODY"; exit 1; }
echo "$SBODY" | grep -Eq '"full_system_pj":[0-9]' || { echo "sampled run has no extrapolated energy: $SBODY"; exit 1; }
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -Eq '^slip_sampled_runs_total [1-9]' || {
  echo "sampled run not counted in /metrics"; exit 1
}
echo "sampled run confirmed: distinct key, round-tripped factor, counted in /metrics"

# The opt-in pprof listener must serve the profile index on its own
# address, never on the API address.
curl -fsS "http://$PPROF_ADDR/debug/pprof/" | grep -qi profile || {
  echo "pprof index not served on $PPROF_ADDR"; exit 1
}
curl -fsS "$BASE/debug/pprof/" >/dev/null 2>&1 && {
  echo "pprof exposed on the API address"; exit 1
}
echo "pprof listener confirmed on $PPROF_ADDR"

# A full declarative spec — every field of the canonical run description,
# including a policy alias, knobs and an explicit DRAM block — must decode,
# canonicalize and simulate. The daemon's wire format IS the spec format.
FULL='{"policy":"slip-abp","workload":"milc","mix_with":"sphinx3","cores":2,
  "accesses":20000,"warmup":10000,"seed":9,"bin_bits":3,"use_rrip":true,
  "tech":"22nm","topology":"way-interleaved",
  "l2_bytes":262144,"l3_bytes":2097152,
  "dram":{"latency_cycles":100,"pj_per_bit":12},"timeout_ms":60000}'
FID=$(curl -fsS -X POST -d "$FULL" "$BASE/v1/runs" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$FID" ] || { echo "full-spec POST returned no job id"; exit 1; }
FBODY=""
for _ in $(seq 1 300); do
  FBODY=$(curl -fsS "$BASE/v1/runs/$FID")
  case "$FBODY" in
    *'"state":"completed"'*) break ;;
    *'"state":"failed"'* | *'"state":"cancelled"'*) echo "full-spec job did not complete: $FBODY"; exit 1 ;;
  esac
  sleep 0.2
done
echo "$FBODY" | grep -q '"state":"completed"' || { echo "full-spec job timed out: $FBODY"; exit 1; }
# The result must echo the canonical spec: alias collapsed, both cores run.
echo "$FBODY" | grep -q '"policy":"slip+abp"' || { echo "policy alias not canonicalized: $FBODY"; exit 1; }
echo "$FBODY" | grep -q '"spec":{' || { echo "result carries no spec: $FBODY"; exit 1; }
echo "full-spec run completed with canonical result"

# A misspelled field must be rejected, not silently ignored.
curl -fsS -X POST -d '{"workload":"milc","policy":"slip","acesses":5}' "$BASE/v1/runs" \
  >/dev/null 2>&1 && { echo "typo field accepted"; exit 1; }
echo "unknown-field rejection confirmed"

# SIGTERM must drain cleanly (exit 0).
kill -TERM "$PID"
wait "$PID"
echo "SIGTERM drain clean"

# Restarted over the same -store-dir, the daemon's memory store is empty,
# so the durable store must answer the repeat POST: cached, counted as a
# castore hit, and the stored result byte-identical to the one served
# before the restart.
start_slipd
CACHED=$(curl -fsS -X POST -d "$REQ" "$BASE/v1/runs")
echo "$CACHED" | grep -q '"cached":true' || {
  echo "post-restart POST re-simulated instead of reading disk: $CACHED"; exit 1
}
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -Eq '^slip_castore_hits [1-9]' || {
  echo "restart served the result without a castore hit"; exit 1
}
RESULT2=$(curl -fsS "$BASE/v1/results/$FULLKEY")
[ "$RESULT2" = "$RESULT1" ] || {
  echo "result changed across restart:"; echo "before: $RESULT1"; echo "after:  $RESULT2"; exit 1
}
echo "restart answered from disk with byte-identical result JSON"
kill -TERM "$PID"
wait "$PID"
echo "slipd smoke test passed"
