#!/usr/bin/env bash
# metrics_smoke.sh — build dswpd, serve traffic, and validate the
# telemetry surface end to end:
#
#   - /metrics in Prometheus mode (Accept negotiation AND ?format=) is
#     lint-clean (telemetry.LintProm via dswpload -smoke) and carries
#     the core families;
#   - /metrics without negotiation stays JSON;
#   - /run stamps X-Request-ID and the trace is retrievable from
#     /debug/requests/{id} in JSON, text, and Chrome formats;
#   - a request that resumes sequentially after an injected stage panic
#     shows the sequential-resume marker in its trace;
#   - /debug/vars serves the windowed series;
#   - the debug listener (-debug-addr) carries pprof off the main port.
#
#   scripts/metrics_smoke.sh           # plain build
#   RACE=1 scripts/metrics_smoke.sh    # under the race detector (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-17637}"
DBGPORT="${DBGPORT:-17638}"
DUR="${DUR:-1s}"
RACE="${RACE:-}"
BUILDFLAGS=()
if [ -n "$RACE" ]; then
  BUILDFLAGS+=(-race)
fi

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build "${BUILDFLAGS[@]}" -o "$BIN/dswpd" ./cmd/dswpd
go build "${BUILDFLAGS[@]}" -o "$BIN/dswpload" ./cmd/dswpload

# -trace-sample 1 keeps every trace so the post-hoc fetches below are
# deterministic; -trace-slow -1s disables the slow rule to keep "kept"
# reasons stable.
"$BIN/dswpd" -addr "localhost:$PORT" -debug-addr "localhost:$DBGPORT" \
  -trace-sample 1 -trace-slow=-1s &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

for i in $(seq 1 50); do
  if curl -sf "http://localhost:$PORT/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$DPID" 2>/dev/null; then
    echo "metrics_smoke: dswpd exited before becoming healthy" >&2
    exit 1
  fi
  sleep 0.2
done

# The load generator's -smoke pass includes the telemetry gate: a
# LintProm-validated Prometheus scrape, X-Request-ID round-trip, and
# /debug/requests + /debug/vars checks.
"$BIN/dswpload" -addr "localhost:$PORT" -smoke -duration "$DUR" -clients 2

fail() { echo "metrics_smoke: $*" >&2; exit 1; }

# Content negotiation: Accept: text/plain flips to Prometheus text...
CT=$(curl -s -o /dev/null -w '%{content_type}' -H 'Accept: text/plain' "http://localhost:$PORT/metrics")
case "$CT" in text/plain*) ;; *) fail "/metrics prom Content-Type: $CT";; esac
# ...and the default stays JSON.
CT=$(curl -s -o /dev/null -w '%{content_type}' "http://localhost:$PORT/metrics")
case "$CT" in application/json*) ;; *) fail "/metrics default Content-Type: $CT";; esac

PROM="$BIN/metrics.prom"
curl -s "http://localhost:$PORT/metrics?format=prometheus" > "$PROM"
for family in dswp_requests_total dswp_latency_us_bucket dswp_workload_requests_total \
              dswp_traces_started_total dswp_uptime_seconds; do
  grep -q "^$family" "$PROM" || fail "/metrics missing family $family"
done

# Both /metrics formats encode one snapshot: once dswpd is idle after the
# load pass, the Prometheus request count equals the JSON one.
for i in $(seq 1 50); do
  curl -sf "http://localhost:$PORT/healthz" | tr -d ' \n' \
    | grep '"in_flight":0,"queued":0' >/dev/null && break
  sleep 0.1
done
JREQ=$(curl -s "http://localhost:$PORT/metrics" | sed -n 's/^ *"requests": *\([0-9]*\),*$/\1/p')
PREQ=$(curl -s "http://localhost:$PORT/metrics?format=prometheus" | awk '$1=="dswp_requests_total"{print $2}')
[ -n "$JREQ" ] && [ "$JREQ" = "$PREQ" ] \
  || fail "dswp_requests_total $PREQ != JSON requests $JREQ"

# A traced request is retrievable post-hoc in all three formats.
RID=$(curl -s -D - -o /dev/null -X POST -d '{"workload":"list-traversal","n":64}' \
  "http://localhost:$PORT/run" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ -n "$RID" ] || fail "/run returned no X-Request-ID"
# grep reads each body to the end: grep -q would exit at the first match
# and, under pipefail, fail the check whenever curl then hits SIGPIPE.
curl -sf "http://localhost:$PORT/debug/requests/$RID" | grep '"id"' >/dev/null \
  || fail "/debug/requests/$RID JSON fetch failed"
curl -sf "http://localhost:$PORT/debug/requests/$RID?format=text" | grep "request $RID" >/dev/null \
  || fail "/debug/requests/$RID text fetch failed"
curl -sf "http://localhost:$PORT/debug/requests/$RID?format=chrome" | grep 'traceEvents' >/dev/null \
  || fail "/debug/requests/$RID chrome fetch failed"

# A resumed request's trace carries the supervisor's resume marker: the
# attempt panics at its 400th retired instruction and the loop finishes
# on the sequential resume.
RID=$(curl -s -D - -o /dev/null -X POST \
  -d '{"workload":"list-traversal","n":20000,"inject_panic":400}' \
  "http://localhost:$PORT/run" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ -n "$RID" ] || fail "resumed /run returned no X-Request-ID"
curl -sf "http://localhost:$PORT/debug/requests/$RID?format=text" | grep 'sequential-resume' >/dev/null \
  || fail "/debug/requests/$RID lacks the sequential-resume marker"

curl -sf "http://localhost:$PORT/debug/vars" | grep '"window"' >/dev/null \
  || fail "/debug/vars missing window"

# The debug listener carries the same surface plus pprof; the serving
# port must NOT expose pprof.
curl -sf "http://localhost:$DBGPORT/debug/pprof/cmdline" >/dev/null \
  || fail "debug listener missing pprof"
curl -sf "http://localhost:$DBGPORT/metrics" >/dev/null \
  || fail "debug listener missing /metrics"
if curl -sf "http://localhost:$PORT/debug/pprof/cmdline" >/dev/null 2>&1; then
  fail "pprof leaked onto the serving port"
fi

kill -TERM "$DPID"
if ! wait "$DPID"; then
  echo "metrics_smoke: dswpd did not drain cleanly" >&2
  exit 1
fi
echo "metrics_smoke: ok"
