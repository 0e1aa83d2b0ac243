#!/usr/bin/env sh
# End-to-end smoke test: build the binaries, generate a tiny dataset, start a
# site with observability endpoints, run one distributed query through the
# coordinator, and assert /healthz and /metrics look right. A second site
# serves the same partition from disk segments (-disk): the same query must
# print the same groups, and every detail pass there must have run the
# compiled kernel. A second
# coordinator run in REPL mode then exercises the query profiler: after a
# query, /debug/queries must list a well-formed profile with a non-empty
# plan fingerprint, and its /trace export must be trace-event JSON. A third
# coordinator run in -serve mode takes two concurrent skalla-client sessions
# and must report a plan-cache hit in /metrics; a storm of repeat sessions
# must then be served from the super-aggregate result cache with zero
# additional site rounds and byte-identical rows, before draining on SIGINT.
#
# Failure discipline: set -eu plus explicit exit-code checks on every stage,
# and a liveness probe (kill -0) on the site daemon before each assertion —
# a site that crashes mid-run fails the script immediately with its log
# dumped, instead of the readiness loop timing out or curl asserting against
# a dead endpoint.
set -eu

workdir=$(mktemp -d)
site_pid=""
site_log=""
disk_pid=""
coord_pid=""
serve_pid=""
trap 'kill $site_pid $disk_pid $coord_pid $serve_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

fail() {
  echo "SMOKE FAILURE: $1" >&2
  if [ -n "$site_log" ] && [ -f "$site_log" ]; then
    echo "---- site log ----" >&2
    cat "$site_log" >&2
    echo "------------------" >&2
  fi
  exit 1
}

# site_alive fails the whole run loudly if the site daemon has exited.
site_alive() {
  kill -0 "$site_pid" 2>/dev/null || fail "site daemon died ($1)"
}

echo "==> build"
mkdir -p "$workdir/bin"
go build -o "$workdir/bin/" ./cmd/... || fail "go build ./cmd/... failed"

echo "==> generate dataset"
"$workdir/bin/tpcgen" -out "$workdir/tpcr" -kind tpc -sites 2 -rows 2000 \
  -customers 500 -seed 1 || fail "tpcgen failed"

echo "==> start site"
site_log="$workdir/site.log"
"$workdir/bin/skalla-site" -addr 127.0.0.1:7471 -site 0 -data "$workdir/tpcr" \
  -obs-addr 127.0.0.1:9471 -log-level info >"$site_log" 2>&1 &
site_pid=$!

echo "==> wait for readiness"
ready=""
for _ in $(seq 1 50); do
  site_alive "during readiness wait"
  if curl -sf http://127.0.0.1:9471/healthz >/dev/null 2>&1; then
    ready=yes
    break
  fi
  sleep 0.2
done
[ -n "$ready" ] || fail "site never became ready"
curl -s http://127.0.0.1:9471/healthz | grep -q '"status":"ok"' \
  || fail "healthz not ok"

echo "==> run query"
query='base TPCR key NationKey
op B.NationKey = R.NationKey :: count(*) as items, avg(ExtendedPrice) as avgPrice'
"$workdir/bin/skalla-coordinator" -sites 127.0.0.1:7471 -data "$workdir/tpcr" \
  -q "$query" -plan-mode none -stats-json "$workdir/stats.json" >"$workdir/mem.out" \
  || { cat "$workdir/mem.out"; fail "coordinator query failed"; }
cat "$workdir/mem.out"

grep -q '"summary"' "$workdir/stats.json" \
  || fail "stats JSON missing summary"

echo "==> check metrics"
site_alive "before metrics scrape"
metrics=$(curl -s http://127.0.0.1:9471/metrics) || fail "metrics scrape failed"
for family in \
  skalla_server_requests_total \
  skalla_server_bytes_total \
  skalla_codec_encode_bytes_total \
  skalla_engine_evals_total; do
  echo "$metrics" | grep -q "^$family" \
    || fail "metrics missing $family"
done
# The served base request must be counted.
echo "$metrics" | grep 'skalla_server_requests_total{kind="base"}' \
  | grep -qv ' 0$' || fail "base request not counted"

echo "==> disk-backed site: same groups, every pass compiled"
disk_log="$workdir/disk.log"
"$workdir/bin/skalla-site" -disk -addr 127.0.0.1:7474 -site 0 -data "$workdir/tpcr" \
  -obs-addr 127.0.0.1:9474 -log-level info >"$disk_log" 2>&1 &
disk_pid=$!
disk_ready=""
for _ in $(seq 1 50); do
  kill -0 "$disk_pid" 2>/dev/null || { cat "$disk_log" >&2; fail "disk site died during startup"; }
  if curl -sf http://127.0.0.1:9474/healthz >/dev/null 2>&1; then
    disk_ready=yes
    break
  fi
  sleep 0.2
done
[ -n "$disk_ready" ] || { cat "$disk_log" >&2; fail "disk site never became ready"; }
"$workdir/bin/skalla-coordinator" -sites 127.0.0.1:7474 -data "$workdir/tpcr" \
  -q "$query" -plan-mode none >"$workdir/disk.out" \
  || { cat "$workdir/disk.out" "$disk_log" >&2; fail "coordinator query against the disk site failed"; }
# The groups only: the round table after them carries timings.
sed -n '/group(s):$/,/^$/p' "$workdir/mem.out" >"$workdir/mem.groups"
sed -n '/group(s):$/,/^$/p' "$workdir/disk.out" >"$workdir/disk.groups"
[ -s "$workdir/mem.groups" ] || fail "no groups printed by the in-memory run"
cmp -s "$workdir/mem.groups" "$workdir/disk.groups" \
  || { diff "$workdir/mem.groups" "$workdir/disk.groups" >&2 || true; \
       fail "the disk site printed other groups than the in-memory site"; }
disk_metrics=$(curl -s http://127.0.0.1:9474/metrics) || fail "disk site metrics scrape failed"
echo "$disk_metrics" | grep '^skalla_engine_scan_path_total{path="kernel",reason="ok"}' \
  | grep -qv ' 0$' || fail "disk site counted no kernel pass: $(echo "$disk_metrics" | grep scan_path)"
if echo "$disk_metrics" | grep -q '^skalla_engine_scan_path_total{path="scalar"'; then
  fail "disk site ran scalar passes: $(echo "$disk_metrics" | grep scan_path)"
fi
kill "$disk_pid"
wait "$disk_pid" 2>/dev/null || true
disk_pid=""

echo "==> start coordinator (repl, profiler endpoints)"
coord_log="$workdir/coord.log"
fifo="$workdir/repl-in"
mkfifo "$fifo"
"$workdir/bin/skalla-coordinator" -sites 127.0.0.1:7471 -data "$workdir/tpcr" \
  -repl -obs-addr 127.0.0.1:9472 <"$fifo" >"$coord_log" 2>&1 &
coord_pid=$!
# Hold the fifo's write end open for the whole stage; closing it ends the REPL.
exec 3>"$fifo"

coord_ready=""
for _ in $(seq 1 50); do
  kill -0 "$coord_pid" 2>/dev/null || { cat "$coord_log" >&2; fail "coordinator died during startup"; }
  if curl -sf http://127.0.0.1:9472/healthz >/dev/null 2>&1; then
    coord_ready=yes
    break
  fi
  sleep 0.2
done
[ -n "$coord_ready" ] || fail "coordinator obs endpoint never became ready"

echo "==> run query through repl"
printf 'base TPCR key NationKey\nop B.NationKey = R.NationKey :: count(*) as items;\n' >&3

echo "==> check /debug/queries"
# The profile is published when the query finishes; poll the list for it.
queries=""
for _ in $(seq 1 50); do
  queries=$(curl -s http://127.0.0.1:9472/debug/queries) || true
  case "$queries" in *'"QueryID":"'*) break ;; esac
  sleep 0.2
done
case "$queries" in
  *'"QueryID":"'*) ;;
  *) cat "$coord_log" >&2; fail "/debug/queries never listed a profile: $queries" ;;
esac
echo "$queries" | grep -q '"Fingerprint":"[a-z0-9]' \
  || fail "profile list has no plan fingerprint: $queries"

qid=$(echo "$queries" | sed -n 's/.*"QueryID":"\([^"]*\)".*/\1/p' | head -1)
[ -n "$qid" ] || fail "could not extract a query id from $queries"

detail=$(curl -sf "http://127.0.0.1:9472/debug/queries/$qid") \
  || fail "profile detail fetch failed for $qid"
echo "$detail" | grep -q '"Rounds":\[{' || fail "profile detail has no rounds: $detail"
echo "$detail" | grep -q '"Breakdown":{' || fail "profile detail has no site breakdown: $detail"

trace=$(curl -sf "http://127.0.0.1:9472/debug/queries/$qid/trace") \
  || fail "trace export fetch failed for $qid"
echo "$trace" | grep -q '"traceEvents": *\[' || fail "trace export is not trace-event JSON: $trace"
echo "$trace" | grep -q '"ph": *"X"' || fail "trace export has no complete events: $trace"

printf '\\q\n' >&3
exec 3>&-
wait $coord_pid 2>/dev/null || true
coord_pid=""

echo "==> start coordinator (serve mode)"
serve_log="$workdir/serve.log"
"$workdir/bin/skalla-coordinator" -sites 127.0.0.1:7471 -data "$workdir/tpcr" \
  -serve 127.0.0.1:7473 -max-concurrent 4 -obs-addr 127.0.0.1:9473 \
  >"$serve_log" 2>&1 &
serve_pid=$!

serve_ready=""
for _ in $(seq 1 50); do
  kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log" >&2; fail "query server died during startup"; }
  # /healthz stays 503 until the listener is accepting sessions.
  if curl -sf http://127.0.0.1:9473/healthz >/dev/null 2>&1; then
    serve_ready=yes
    break
  fi
  sleep 0.2
done
[ -n "$serve_ready" ] || fail "query server never became ready"

echo "==> run concurrent client sessions"
stmt='base TPCR key NationKey
op B.NationKey = R.NationKey :: count(*) as items'
# Warm the plan cache with one serial session, then two concurrent sessions
# must both reuse the prepared plan.
"$workdir/bin/skalla-client" -addr 127.0.0.1:7473 -q "$stmt" \
  >"$workdir/client0.out" 2>&1 || { cat "$workdir/client0.out" >&2; fail "warm client session failed"; }
"$workdir/bin/skalla-client" -addr 127.0.0.1:7473 -q "$stmt" \
  >"$workdir/client1.out" 2>&1 &
client1_pid=$!
"$workdir/bin/skalla-client" -addr 127.0.0.1:7473 -q "$stmt" \
  >"$workdir/client2.out" 2>&1 &
client2_pid=$!
wait $client1_pid || { cat "$workdir/client1.out" >&2; fail "client session 1 failed"; }
wait $client2_pid || { cat "$workdir/client2.out" >&2; fail "client session 2 failed"; }
grep -q 'group(s):' "$workdir/client1.out" || fail "client 1 printed no result"
grep -q 'plan cache hit' "$workdir/client1.out" || fail "client 1 missed the plan cache"
grep -q 'plan cache hit' "$workdir/client2.out" || fail "client 2 missed the plan cache"

echo "==> check server metrics"
serve_metrics=$(curl -s http://127.0.0.1:9473/metrics) || fail "server metrics scrape failed"
echo "$serve_metrics" | grep '^skalla_server_plan_cache_hits_total' \
  | grep -qv ' 0$' || fail "plan cache hits not counted: $(echo "$serve_metrics" | grep plan_cache)"
echo "$serve_metrics" | grep '^skalla_server_sessions_total' \
  | grep -qv ' 0$' || fail "client sessions not counted"

echo "==> storm: repeat queries served from the result cache"
# The statement's result is committed to the server's super-aggregate result
# cache (default-on) by the sessions above. A storm of repeat sessions must be
# answered with ZERO additional site rounds: the site-side operator-request
# counter must not move, and every session's rows must be byte-identical to
# the warm run's.
site_alive "before storm"
ops_before=$(curl -s http://127.0.0.1:9471/metrics \
  | sed -n 's/^skalla_server_requests_total{kind="operator"} \([0-9][0-9]*\)$/\1/p')
[ -n "$ops_before" ] || fail "could not read site operator-request counter"
"$workdir/bin/skalla-client" -addr 127.0.0.1:7473 -q "$stmt" \
  >"$workdir/storm1.out" 2>&1 &
storm1_pid=$!
"$workdir/bin/skalla-client" -addr 127.0.0.1:7473 -q "$stmt" \
  >"$workdir/storm2.out" 2>&1 &
storm2_pid=$!
wait $storm1_pid || { cat "$workdir/storm1.out" >&2; fail "storm session 1 failed"; }
wait $storm2_pid || { cat "$workdir/storm2.out" >&2; fail "storm session 2 failed"; }
ops_after=$(curl -s http://127.0.0.1:9471/metrics \
  | sed -n 's/^skalla_server_requests_total{kind="operator"} \([0-9][0-9]*\)$/\1/p')
[ "$ops_after" = "$ops_before" ] \
  || fail "storm reached the site: operator requests $ops_before -> $ops_after (result cache bypassed)"
# Rows only — the trailing "query <id>: <elapsed>" line is timing-dependent.
grep -v '^query ' "$workdir/client0.out" >"$workdir/warm.rows"
for n in 1 2; do
  grep -v '^query ' "$workdir/storm$n.out" >"$workdir/storm$n.rows"
  cmp -s "$workdir/warm.rows" "$workdir/storm$n.rows" \
    || { diff "$workdir/warm.rows" "$workdir/storm$n.rows" >&2 || true; \
         fail "storm session $n rows differ from the warm run"; }
done
serve_metrics=$(curl -s http://127.0.0.1:9473/metrics) || fail "server metrics scrape failed"
echo "$serve_metrics" | grep '^skalla_coord_result_cache_hits_total' \
  | grep -qv ' 0$' || fail "result cache hits not counted: $(echo "$serve_metrics" | grep result_cache)"

echo "==> drain query server"
kill -INT "$serve_pid"
wait "$serve_pid" || { cat "$serve_log" >&2; fail "query server exited non-zero after SIGINT"; }
serve_pid=""

echo "==> shut down"
kill $site_pid
wait $site_pid 2>/dev/null || true
echo "smoke test passed"
