#!/usr/bin/env bash
# Crash-recovery smoke test: start sesd with a data directory, load and
# mutate instances, SIGKILL the daemon mid-flight (no graceful shutdown, no
# final flush), restart it on the same directory, and require the instance
# listing — names, versions, digests — to be byte-identical. Run by CI with
# a race-enabled build; runnable locally: ./scripts/crash_recovery_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18321"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
DATA="$WORK/data"
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

echo "== first boot: populate the store =="
"$WORK/sesgen" -k 4 -users 300 -seed 7 -o "$WORK/a.json"
"$WORK/sesgen" -k 3 -users 200 -seed 8 -o "$WORK/b.json"
# A sparse (format version 2) instance: 5% interest density, forced sparse
# columns. Its WAL put record carries the sparse document, so the restart
# below also proves sparse instances round-trip through crash recovery.
"$WORK/sesgen" -k 3 -users 500 -seed 9 -density 0.05 -rep sparse -o "$WORK/c.json"
"$WORK/sesd" -addr "$ADDR" -data-dir "$DATA" &
SESD_PID=$!
wait_ready

curl -sf -X PUT --data-binary @"$WORK/a.json" "$BASE/instances/alpha" >/dev/null
curl -sf -X PUT --data-binary @"$WORK/b.json" "$BASE/instances/beta" >/dev/null
curl -sf -X PUT --data-binary @"$WORK/c.json" "$BASE/instances/gamma" >/dev/null
jq -e '.rep == "sparse" and .interest_nnz > 0' < <(curl -sf "$BASE/instances" | jq '.instances[] | select(.name=="gamma")') >/dev/null || {
  echo "gamma did not upload as a sparse instance" >&2
  exit 1
}
# Mutations bump versions; a delete + re-put stresses the version sequence.
# The gamma mutation exercises the WAL replay re-apply path on sparse columns.
curl -sf -X PATCH -d '{"activity":[{"user":1,"index":0,"value":0.7}]}' "$BASE/instances/alpha" >/dev/null
curl -sf -X PATCH -d '{"interest":[{"user":2,"index":1,"value":0.4}]}' "$BASE/instances/alpha" >/dev/null
curl -sf -X PATCH -d '{"interest":[{"user":5,"index":2,"value":0.9}]}' "$BASE/instances/gamma" >/dev/null
curl -sf -X DELETE "$BASE/instances/beta" >/dev/null
curl -sf -X PUT --data-binary @"$WORK/b.json" "$BASE/instances/beta" >/dev/null
# Boundary validation: a value that would overflow the float32 store to +Inf
# must bounce with a 400 naming the cell, and must not bump the version.
code=$(curl -s -o "$WORK/badpatch.json" -w '%{http_code}' -X PATCH \
  -d '{"interest":[{"user":0,"index":0,"value":1e308}]}' "$BASE/instances/gamma")
[ "$code" = "400" ] || { echo "non-finite PATCH returned $code, want 400" >&2; exit 1; }
grep -q "user 0, index 0" "$WORK/badpatch.json" || {
  echo "400 body does not name the offending cell:" >&2
  cat "$WORK/badpatch.json" >&2
  exit 1
}
# Solves seed the result cache, which must also survive (dense and sparse).
curl -sf -X POST -d '{"algorithm":"HOR-I","k":3}' "$BASE/instances/alpha/solve" > "$WORK/solve_before.json"
curl -sf -X POST -d '{"algorithm":"HOR-I","k":3}' "$BASE/instances/gamma/solve" > "$WORK/sparse_solve_before.json"

curl -sf "$BASE/instances" > "$WORK/before.json"

echo "== SIGKILL (no graceful shutdown) =="
kill -9 "$SESD_PID"
wait "$SESD_PID" 2>/dev/null || true
SESD_PID=""

echo "== restart on the same data dir =="
"$WORK/sesd" -addr "$ADDR" -data-dir "$DATA" &
SESD_PID=$!
wait_ready
curl -sf "$BASE/instances" > "$WORK/after.json"

echo "== diff /instances (must be byte-identical) =="
diff "$WORK/before.json" "$WORK/after.json"

echo "== recovered cache must answer the same solve without re-solving =="
curl -sf -X POST -d '{"algorithm":"HOR-I","k":3}' "$BASE/instances/alpha/solve" > "$WORK/solve_after.json"
jq -e '.cached == true' "$WORK/solve_after.json" >/dev/null || {
  echo "solve after restart was not served from the recovered cache" >&2
  exit 1
}
diff <(jq 'del(.cached, .trace_id)' "$WORK/solve_before.json") <(jq 'del(.cached, .trace_id)' "$WORK/solve_after.json")

echo "== sparse instance must survive recovery byte-for-byte too =="
curl -sf -X POST -d '{"algorithm":"HOR-I","k":3}' "$BASE/instances/gamma/solve" > "$WORK/sparse_solve_after.json"
jq -e '.cached == true and .instance.rep == "sparse"' "$WORK/sparse_solve_after.json" >/dev/null || {
  echo "sparse solve after restart was not served from the recovered cache" >&2
  exit 1
}
diff <(jq 'del(.cached, .trace_id)' "$WORK/sparse_solve_before.json") <(jq 'del(.cached, .trace_id)' "$WORK/sparse_solve_after.json")
# The downloaded document must still be the version-2 sparse encoding with
# the pre-crash mutation applied.
curl -sf "$BASE/instances/gamma" > "$WORK/gamma.json"
jq -e '.version == 2 and (.interest_sparse | length > 0) and (.interest | not)' "$WORK/gamma.json" >/dev/null || {
  echo "recovered gamma is not a sparse document" >&2
  exit 1
}
jq -e '.interest_sparse[2].users | index(5) != null' "$WORK/gamma.json" >/dev/null || {
  echo "recovered gamma lost the pre-crash mutation" >&2
  exit 1
}

echo "crash-recovery smoke: OK"
