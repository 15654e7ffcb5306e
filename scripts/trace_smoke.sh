#!/usr/bin/env bash
# Tracing smoke test: boot a race-enabled sesd with a one-millisecond
# slow-trace threshold, drive it with a sesload burst, and assert the whole
# tracing story end to end: a caller-minted traceparent is adopted and
# echoed, the stored solve trace exposes the queue / engine_acquire / score /
# select / encode span tree with child durations bounded by the root, the
# engine_acquire span is annotated cold or warm, slow traces tail-sample into
# the structured log, and the runtime/metrics families render in the scrape.
# Run by CI; runnable locally: ./scripts/trace_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18341"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SESD_PID=""

cleanup() {
  [ -n "$SESD_PID" ] && kill -9 "$SESD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building (race-enabled sesd + sesload) =="
go build -race -o "$WORK/sesd" ./cmd/sesd
go build -o "$WORK/sesload" ./cmd/sesload

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "sesd never became ready" >&2
  return 1
}

echo "== boot with JSON logs and a 1ms slow-trace threshold =="
# -trace-store is sized past the burst's request count so the slowest
# request's trace is still retained when sesload resolves it at the end.
"$WORK/sesd" -addr "$ADDR" -log-format json -trace-slow 1ms -trace-store 4096 \
  > "$WORK/sesd.log" 2>&1 &
SESD_PID=$!
wait_ready

echo "== sesload burst: open-loop mixed traffic with traceparent injection =="
"$WORK/sesload" -addr "$BASE" -rate 200 -duration 2s \
  -mix solve=8,extend=1,patch=1,batch=1 -k 4 -users 300 -seed 7 \
  | tee "$WORK/sesload.out"
grep -q 'p50' "$WORK/sesload.out"
grep -q 'slowest: .* traceparent trace_id=' "$WORK/sesload.out"
# The slowest request must resolve to a retained server trace.
grep -q '^server trace .*: route=' "$WORK/sesload.out" || {
  echo "sesload's slowest request did not resolve on the server" >&2
  exit 1
}

echo "== a caller-minted traceparent is adopted and echoed =="
TP="00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
TID="0af7651916cd43dd8448eb211c80319c"
# k=3 differs from the burst's solves, so this one misses the result cache
# and actually runs (a cached response's trace has no solve stages).
curl -sf -D "$WORK/headers.txt" -H "traceparent: $TP" \
  -X POST -d '{"algorithm":"HOR-I","k":3}' \
  "$BASE/instances/sesload/solve" > "$WORK/solve.json"
grep -qi "^traceparent: 00-$TID-" "$WORK/headers.txt" || {
  echo "response did not echo the adopted trace:" >&2
  cat "$WORK/headers.txt" >&2
  exit 1
}
jq -e --arg tid "$TID" '.trace_id == $tid' "$WORK/solve.json" >/dev/null

echo "== the stored trace exposes the full solve span tree =="
curl -sf "$BASE/debug/traces/$TID" > "$WORK/trace.json"
jq -e '.route == "solve"' "$WORK/trace.json" >/dev/null
for span in queue engine_acquire score select encode; do
  jq -e --arg s "$span" '[.root.children[].name] | index($s) != null' \
    "$WORK/trace.json" >/dev/null || {
    echo "span $span missing from the stored trace:" >&2
    jq '[.root.children[].name]' "$WORK/trace.json" >&2
    exit 1
  }
done
jq -e '([.root.children[].duration_ms] | add) <= .duration_ms' \
  "$WORK/trace.json" >/dev/null || {
  echo "child spans exceed the root duration:" >&2
  jq '{root: .duration_ms, children: [.root.children[] | {name, duration_ms}]}' \
    "$WORK/trace.json" >&2
  exit 1
}
jq -e '.root.children[] | select(.name == "engine_acquire")
       | .attrs.engine == "cold" or .attrs.engine == "warm"' \
  "$WORK/trace.json" >/dev/null

echo "== the listing filters by route =="
curl -sf "$BASE/debug/traces?route=solve&limit=5" > "$WORK/list.json"
jq -e '.traces | length > 0 and all(.route == "solve")' "$WORK/list.json" >/dev/null

echo "== slow traces tail-sample into the structured log =="
grep -q '"msg":"slow_trace"' "$WORK/sesd.log" || {
  echo "no slow_trace line despite the 1ms threshold" >&2
  tail -5 "$WORK/sesd.log" >&2
  exit 1
}
grep '"msg":"slow_trace"' "$WORK/sesd.log" | jq -s -e \
  'length > 0
   and all(.trace_id != "" and .duration_ms > 0)
   and any(.spans | contains("score="))' >/dev/null || {
  echo "slow_trace lines malformed or none carries a span breakdown" >&2
  grep '"msg":"slow_trace"' "$WORK/sesd.log" | head -3 >&2
  exit 1
}

echo "== runtime and trace families render in the scrape =="
curl -sf "$BASE/metrics" > "$WORK/metrics.txt"
for fam in sesd_go_goroutines sesd_go_gc_pause_seconds sesd_go_sched_latency_seconds \
  sesd_go_heap_objects_bytes sesd_go_mem_total_bytes sesd_go_gc_cycles_total \
  sesd_build_info sesd_traces_stored_total sesd_traces_retained \
  sesd_trace_slow_total sesd_http_stream_duration_seconds; do
  grep -q "^# TYPE $fam " "$WORK/metrics.txt" || {
    echo "scrape missing family $fam" >&2
    exit 1
  }
done
# The burst definitely stored traces and crossed the 1ms threshold at least once.
awk '$1 == "sesd_traces_stored_total" { exit !($2 > 0) }' "$WORK/metrics.txt"
awk '$1 == "sesd_trace_slow_total" { exit !($2 > 0) }' "$WORK/metrics.txt"

echo "trace smoke: OK"
