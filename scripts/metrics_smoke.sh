#!/usr/bin/env bash
# Metrics smoke test: boot a race-enabled sesd, scrape /metrics cold, drive a
# mixed workload (uploads, solves, a cache hit, PATCH mutations, a traced
# solve), scrape again, and assert the counters that correspond to that
# traffic actually moved. Also checks the /healthz JSON shape, the traced
# solve's stages at /debug/traces, traceparent propagation into the JSON
# access log, and the pprof listener. Run by CI; runnable
# locally: ./scripts/metrics_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18331"
PPROF_ADDR="127.0.0.1:18332"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SESD_PID=""

cleanup() {
  [ -n "$SESD_PID" ] && kill -9 "$SESD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building (race-enabled sesd) =="
go build -race -o "$WORK/sesd" ./cmd/sesd
go build -o "$WORK/sesgen" ./cmd/sesgen

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "sesd never became ready" >&2
  return 1
}

# sample NAME FILE — print the value of the first sample line for NAME
# (label block allowed) in a scraped FILE; 0 if absent.
sample() {
  awk -v name="$1" '
    $0 !~ /^#/ && (index($0, name " ") == 1 || index($0, name "{") == 1) {
      print $NF; found = 1; exit
    }
    END { if (!found) print 0 }' "$2"
}

# moved NAME BEFORE AFTER — assert the sample increased between scrapes.
moved() {
  local b a
  b="$(sample "$1" "$2")"
  a="$(sample "$1" "$3")"
  awk -v b="$b" -v a="$a" 'BEGIN { exit !(a > b) }' || {
    echo "metric $1 did not move: before=$b after=$a" >&2
    exit 1
  }
}

echo "== boot with JSON logs and a pprof listener =="
"$WORK/sesgen" -k 4 -users 300 -seed 7 -o "$WORK/a.json"
"$WORK/sesd" -addr "$ADDR" -pprof-addr "$PPROF_ADDR" -log-format json \
  > "$WORK/sesd.log" 2>&1 &
SESD_PID=$!
wait_ready

echo "== healthz is JSON with an uptime =="
curl -sf "$BASE/healthz" > "$WORK/healthz.json"
jq -e '.status == "ok" and .uptime_seconds >= 0 and .durable == false' \
  "$WORK/healthz.json" >/dev/null || {
  echo "unexpected healthz document:" >&2
  cat "$WORK/healthz.json" >&2
  exit 1
}

echo "== cold scrape =="
curl -sf "$BASE/metrics" > "$WORK/before.txt"
grep -q '^# TYPE sesd_http_requests_total counter$' "$WORK/before.txt"
grep -q '^# TYPE sesd_http_request_duration_seconds histogram$' "$WORK/before.txt"
# The catalogue renders whole even with no traffic: every layer's families
# are present from the first scrape, including persist (zero, memory-only).
for fam in sesd_score_evals_total sesd_pool_queue_depth sesd_wal_enabled \
  sesd_result_cache_entries sesd_snapshot_bytes sesd_uptime_seconds; do
  grep -q "^# TYPE $fam " "$WORK/before.txt" || {
    echo "cold scrape missing family $fam" >&2
    exit 1
  }
done

echo "== mixed workload =="
curl -sf -X PUT --data-binary @"$WORK/a.json" "$BASE/instances/alpha" >/dev/null
curl -sf -X POST -d '{"algorithm":"HOR-I","k":3}' "$BASE/instances/alpha/solve" >/dev/null
# Same request again: a result-cache hit.
curl -sf -X POST -d '{"algorithm":"HOR-I","k":3}' "$BASE/instances/alpha/solve" >/dev/null
curl -sf -X PATCH -d '{"interest":[{"user":2,"index":1,"value":0.4}]}' "$BASE/instances/alpha" >/dev/null
# The PATCH invalidated the cache; this solve recomputes under a caller's
# traceparent, and its stored trace holds the per-stage breakdown.
TID="4bf92f3577b34da6a3ce929d0e0e4736"
curl -sf -D "$WORK/timed.headers" -H "traceparent: 00-$TID-00f067aa0ba902b7-01" \
  -X POST -d '{"algorithm":"HOR-I","k":3}' \
  "$BASE/instances/alpha/solve" > "$WORK/timed.json"
jq -e --arg tid "$TID" '.trace_id == $tid' "$WORK/timed.json" >/dev/null || {
  echo "solve did not adopt the caller's trace:" >&2
  jq .trace_id "$WORK/timed.json" >&2
  exit 1
}
curl -sf "$BASE/debug/traces/$TID" > "$WORK/timed.trace.json"
jq -e '[.root.children[].name | select(. != "queue")] == ["engine_acquire","score","evaluate","select","encode","release","wal_append"]' \
  "$WORK/timed.trace.json" >/dev/null || {
  echo "solve trace missing the seven-stage breakdown:" >&2
  jq '[.root.children[].name]' "$WORK/timed.trace.json" >&2
  exit 1
}
curl -sf "$BASE/stats" > "$WORK/stats.json"
jq -e 'type == "object" and .sesd_result_cache_hits_total >= 1' "$WORK/stats.json" >/dev/null || {
  echo "/stats is not the flat registry view:" >&2
  head -c 2000 "$WORK/stats.json" >&2
  exit 1
}

echo "== warm scrape: the workload's counters must have moved =="
curl -sf "$BASE/metrics" > "$WORK/after.txt"
moved 'sesd_http_requests_total{route="solve",code="200"}' "$WORK/before.txt" "$WORK/after.txt"
moved 'sesd_http_requests_total{route="put_instance",code="201"}' "$WORK/before.txt" "$WORK/after.txt"
moved 'sesd_http_request_duration_seconds_count{route="solve"}' "$WORK/before.txt" "$WORK/after.txt"
moved sesd_instances "$WORK/before.txt" "$WORK/after.txt"
moved sesd_score_evals_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_score_batches_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_result_cache_misses_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_result_cache_hits_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_result_cache_invalidations_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_engine_cache_misses_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_pool_jobs_completed_total "$WORK/before.txt" "$WORK/after.txt"
moved sesd_pool_queue_wait_seconds_count "$WORK/before.txt" "$WORK/after.txt"
moved sesd_solve_score_evals_total "$WORK/before.txt" "$WORK/after.txt"

echo "== trace IDs: the caller's traceparent is echoed =="
grep -qi "^traceparent: 00-$TID-" "$WORK/timed.headers" || {
  echo "response did not echo the caller's trace:" >&2
  cat "$WORK/timed.headers" >&2
  exit 1
}

echo "== structured logs: JSON access lines with the trace id =="
grep -q "\"trace_id\":\"$TID\"" "$WORK/sesd.log" || {
  echo "JSON log is missing the caller's trace id" >&2
  tail -5 "$WORK/sesd.log" >&2
  exit 1
}

echo "== pprof listener answers on its own port =="
curl -sf "http://$PPROF_ADDR/debug/pprof/cmdline" >/dev/null
# And the main listener does NOT expose pprof.
code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/cmdline")"
[ "$code" = "404" ] || { echo "main listener exposed pprof ($code)" >&2; exit 1; }

echo "metrics smoke: OK"
