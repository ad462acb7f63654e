#!/usr/bin/env bash
# End-to-end smoke test for nodbd: build the binary, generate a TPC-H
# fixture, and drive the HTTP API from outside the process — happy path,
# per-query deadline, admission-control 429, typed errors, the metrics
# endpoint, and a clean SIGTERM drain. CI runs this as the
# nodbd-integration job; it also runs locally with no arguments.
set -euo pipefail

WORK=$(mktemp -d)
PORT=${NODBD_PORT:-18095}
BASE="http://127.0.0.1:${PORT}"
NODBD_PID=""
SLOW_PIDS=""

cleanup() {
  [ -n "$SLOW_PIDS" ] && kill $SLOW_PIDS 2>/dev/null || true
  [ -n "$NODBD_PID" ] && kill -9 "$NODBD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; echo "--- server log ---" >&2; cat "$WORK/nodbd.log" >&2 || true; exit 1; }

echo "== build =="
go build -o "$WORK/nodbd" ./cmd/nodbd

echo "== fixture (TPC-H SF 0.01) =="
go run ./cmd/nodbgen tpch -sf 0.01 -dir "$WORK/tpch" >/dev/null

echo "== start =="
"$WORK/nodbd" -schema "$WORK/tpch/schema.nodb" -listen "127.0.0.1:${PORT}" \
  -max-concurrent 1 -max-queue 1 -queue-timeout 500ms -query-timeout 60s \
  >"$WORK/nodbd.log" 2>&1 &
NODBD_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && fail "server did not come up"
  sleep 0.1
done

echo "== deadline enforced (1ms against a cold scan) =="
DL=$(curl -s -X POST "$BASE/query" \
  -d '{"sql": "SELECT count(*) FROM lineitem WHERE l_quantity < 10", "timeout_ms": 1}')
echo "$DL" | grep -q "deadline" || fail "1ms deadline did not fire: $DL"

echo "== happy path (streaming NDJSON) =="
OUT=$(curl -sf -X POST "$BASE/query" \
  -d '{"sql": "SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity < 10 GROUP BY l_returnflag"}')
echo "$OUT" | head -1 | grep -q '"columns"' || fail "no header line: $OUT"
echo "$OUT" | tail -1 | grep -q '"rows":3' || fail "expected 3 group rows: $OUT"

echo "== row budget truncates =="
TRUNC=$(curl -sf -X POST "$BASE/query" -d '{"sql": "SELECT * FROM lineitem", "max_rows": 5}' | tail -1)
echo "$TRUNC" | grep -q '"rows":5' || fail "row budget ignored: $TRUNC"
echo "$TRUNC" | grep -q '"truncated":true' || fail "truncation not flagged: $TRUNC"

echo "== typed client errors =="
CODE=$(curl -s -o "$WORK/err.json" -w '%{http_code}' -X POST "$BASE/query" -d '{"sql": "SELEC nope"}')
[ "$CODE" = 400 ] || fail "bad SQL returned $CODE"
grep -q '"kind":"invalid"' "$WORK/err.json" || fail "bad SQL not typed: $(cat "$WORK/err.json")"
CODE=$(curl -s -o "$WORK/err.json" -w '%{http_code}' -X POST "$BASE/query" \
  -d '{"sql": "SELECT 1 FROM lineitem", "session": "nope"}')
[ "$CODE" = 404 ] || fail "unknown session returned $CODE"

echo "== admission control: saturate one slot, queue one, expect 429 =="
# Slow readers pin the single execution slot: the server blocks writing
# into a client that reads at 20 KB/s, so the query stays in flight.
curl -s --limit-rate 20k -X POST "$BASE/query" -d '{"sql": "SELECT * FROM lineitem"}' -o /dev/null &
SLOW_PIDS="$!"
curl -s --limit-rate 20k -X POST "$BASE/query" -d '{"sql": "SELECT * FROM lineitem"}' -o /dev/null &
SLOW_PIDS="$SLOW_PIDS $!"
for i in $(seq 1 100); do
  curl -s "$BASE/metrics" | grep -q '^nodb_queries_queued 1' && break
  [ "$i" = 100 ] && fail "second query never queued"
  sleep 0.1
done
CODE=$(curl -s -o "$WORK/adm.json" -w '%{http_code}' -X POST "$BASE/query" -d '{"sql": "SELECT count(*) FROM region"}')
[ "$CODE" = 429 ] || fail "full queue returned $CODE: $(cat "$WORK/adm.json")"
grep -q '"kind":"queue_full"' "$WORK/adm.json" || fail "429 not typed: $(cat "$WORK/adm.json")"
kill $SLOW_PIDS 2>/dev/null || true
wait $SLOW_PIDS 2>/dev/null || true
SLOW_PIDS=""

echo "== profile trailer (?profile=1) =="
PROF=$(curl -sf -X POST "$BASE/query?profile=1" \
  -d '{"sql": "SELECT count(*) FROM nation"}')
LAST=$(echo "$PROF" | tail -1)
echo "$LAST" | grep -q '"profile"' || fail "no profile trailer: $PROF"
for k in '"wall_ns"' '"phases"' '"counters"' '"rows_out"' '"execute_ns"'; do
  echo "$LAST" | grep -q "$k" || fail "profile trailer missing $k: $LAST"
done
# The profile rides after the normal trailer, so existing clients see an
# unchanged stream.
echo "$PROF" | tail -2 | head -1 | grep -q '"rows":1' || fail "normal trailer not preserved before profile: $PROF"
NOPROF=$(curl -sf -X POST "$BASE/query" -d '{"sql": "SELECT count(*) FROM nation"}')
echo "$NOPROF" | grep -q '"profile"' && fail "profile trailer leaked without ?profile=1: $NOPROF"

echo "== /debug/queries: completed + in-flight =="
curl -sf "$BASE/debug/queries" >"$WORK/dq.json"
grep -q 'FROM nation' "$WORK/dq.json" || fail "completed query missing from /debug/queries: $(cat "$WORK/dq.json")"
# A slow reader pins a query in flight; it must show up under running[]
# with its live phase.
curl -s --limit-rate 20k -X POST "$BASE/query" -d '{"sql": "SELECT * FROM lineitem"}' -o /dev/null &
SLOW_PIDS="$!"
for i in $(seq 1 100); do
  curl -s "$BASE/debug/queries" >"$WORK/dq.json"
  grep -q '"running":\[{' "$WORK/dq.json" && break
  [ "$i" = 100 ] && fail "in-flight query never appeared in /debug/queries"
  sleep 0.1
done
grep -q '"phase"' "$WORK/dq.json" || fail "running entry has no live phase: $(cat "$WORK/dq.json")"
kill $SLOW_PIDS 2>/dev/null || true
wait $SLOW_PIDS 2>/dev/null || true
SLOW_PIDS=""

echo "== metrics exposition =="
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
FAMILIES=$(grep -c '^# TYPE ' "$WORK/metrics.txt")
[ "$FAMILIES" -ge 12 ] || fail "only $FAMILIES metric families, want >= 12"
for m in nodb_queries_total nodb_query_duration_seconds nodb_admission_rejected_total \
         nodb_engine_scans_cold_total nodb_engine_stmt_cache_hits_total nodb_query_errors_total; do
  grep -q "^# TYPE $m" "$WORK/metrics.txt" || fail "metric $m missing"
done
grep -q 'nodb_admission_rejected_total{reason="queue_full"} 1' "$WORK/metrics.txt" \
  || fail "queue_full rejection not counted"
grep -q 'nodb_query_errors_total{kind="deadline"}' "$WORK/metrics.txt" \
  || fail "deadline error not counted by kind"

echo "== graceful SIGTERM drain =="
kill -TERM "$NODBD_PID"
for i in $(seq 1 100); do
  kill -0 "$NODBD_PID" 2>/dev/null || break
  [ "$i" = 100 ] && fail "server did not exit within 10s of SIGTERM"
  sleep 0.1
done
wait "$NODBD_PID" 2>/dev/null && RC=0 || RC=$?
[ "$RC" = 0 ] || fail "server exited with $RC after SIGTERM"
grep -q "drained clean" "$WORK/nodbd.log" || fail "no clean-drain log line"
NODBD_PID=""

echo "== slow-query log fires past its threshold =="
# A fresh instance with a 1ns threshold: every query is slow, so the cold
# lineitem scan's full profile must land in the log. (That fast queries
# stay quiet is TestSlowQueryLog's job.)
"$WORK/nodbd" -schema "$WORK/tpch/schema.nodb" -listen "127.0.0.1:${PORT}" \
  -parallel 1 -slow-query 1ns \
  >"$WORK/nodbd.log" 2>&1 &
NODBD_PID=$!
for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && fail "slow-query server did not come up"
  sleep 0.1
done
curl -sf -X POST "$BASE/query" \
  -d '{"sql": "SELECT count(*) FROM lineitem WHERE l_quantity < 10"}' >/dev/null \
  || fail "query against slow-query server failed"
grep -q "slow query" "$WORK/nodbd.log" || fail "slow-query log did not fire: $(cat "$WORK/nodbd.log")"
grep -q "Execution:" "$WORK/nodbd.log" || fail "slow-query log has no rendered profile"
grep -q "FROM lineitem" "$WORK/nodbd.log" || fail "slow-query log names the wrong statement"
kill -9 "$NODBD_PID" 2>/dev/null || true
wait "$NODBD_PID" 2>/dev/null || true
NODBD_PID=""

echo "PASS: nodbd integration smoke"
