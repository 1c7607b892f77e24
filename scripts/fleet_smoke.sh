#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke test of the fault-tolerant fleet:
# three `bandwall serve` replicas behind a `bandwall gateway`.
#
# Phase 1 (chaos survival): evaluate the shipped stacked-compression
# spec through the gateway (the Fig 12 answer: 18 cores), resolve the
# gateway's own trace of it at the gateway's /v1/trace, check the routes
# the gateway answers itself (validate, catalog, NDJSON metrics), then
# run `loadgen -chaos` against the gateway and kill -9 one replica
# mid-run, restarting it before the run ends. The gateway's
# failover/retry path must absorb the death completely: zero
# client-visible errors.
#
# Phase 2 (seeded-fault determinism): a fresh topology where replica 1
# carries BANDWALL_FAULTS='serve.eval=panic x*' (every eval on it
# panics; the replica containment turns that into a 500 the gateway
# fails over). Twelve sequential distinct-id evals record
# "id replica attempts" from the response headers; two consecutive
# runs must produce byte-identical traces, with at least one id
# showing a failover (attempts >= 2).
#
# Run from the repo root: bash scripts/fleet_smoke.sh
set -euo pipefail

BIN="$(mktemp -d)/bandwall"
SPEC="examples/scenarios/stacked-compression.json"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
}
trap cleanup EXIT

wait_health() { # wait_health PORT...
  for port in "$@"; do
    local up=0
    for _ in $(seq 1 100); do
      if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then up=1; break; fi
      sleep 0.1
    done
    if [[ "$up" != 1 ]]; then
      echo "FAIL: 127.0.0.1:$port never became healthy" >&2
      exit 1
    fi
  done
}

stop_all() { # stop_all PID...
  for pid in "$@"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "$@"; do
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()
}

echo "== build"
go build -o "$BIN" ./cmd/bandwall

echo "== phase 1: start 3 replicas + gateway"
"$BIN" serve -addr 127.0.0.1:18101 -quiet & R1=$!
"$BIN" serve -addr 127.0.0.1:18102 -quiet & R2=$!
"$BIN" serve -addr 127.0.0.1:18103 -quiet & R3=$!
PIDS+=("$R1" "$R2" "$R3")
wait_health 18101 18102 18103
"$BIN" gateway -addr 127.0.0.1:18100 \
  -replicas 127.0.0.1:18101,127.0.0.1:18102,127.0.0.1:18103 -quiet & GW=$!
PIDS+=("$GW")
wait_health 18100
BASE="http://127.0.0.1:18100"

echo "== eval $SPEC through the gateway"
HDRS="$(mktemp)"
RESP="$(curl -sf -D "$HDRS" -X POST --data-binary "@$SPEC" "$BASE/v1/eval")"
grep -q '"cores@cc+lc":18' <<<"$RESP" || {
  echo "FAIL: gateway eval missing the Fig 12 answer (cores@cc+lc=18):" >&2
  echo "$RESP" | head -c 600 >&2
  exit 1
}
grep -qi '^x-bandwall-replica:' "$HDRS" || {
  echo "FAIL: gateway response missing X-Bandwall-Replica" >&2
  exit 1
}

echo "== the gateway's own trace of that eval resolves at the gateway"
TRACE_ID="$(grep -i '^x-bandwall-trace:' "$HDRS" | tr -d '\r' | awk '{print $2}')"
TRACE="$(curl -sf "$BASE/v1/trace?id=$TRACE_ID")"
grep -q "\"id\":\"$TRACE_ID\"" <<<"$TRACE" && grep -q '"name":"forward"' <<<"$TRACE" \
  && grep -q '"replica_trace"' <<<"$TRACE" || {
  echo "FAIL: gateway /v1/trace?id=$TRACE_ID does not resolve the eval's trace:" >&2
  echo "$TRACE" | head -c 600 >&2
  exit 1
}

echo "== the gateway answers validate, catalog and NDJSON metrics itself"
curl -sf -X POST --data-binary "@$SPEC" "$BASE/v1/validate" | grep -q '"valid":true' || {
  echo "FAIL: gateway /v1/validate did not validate the shipped spec" >&2
  exit 1
}
curl -sf -o /dev/null "$BASE/v1/catalog" || {
  echo "FAIL: gateway /v1/catalog did not answer 200" >&2
  exit 1
}
# Captured first: grep -q would close the pipe on a long dump mid-write.
METRICS="$(curl -sf "$BASE/metrics?format=ndjson")"
grep -q '"name":"fleet.requests"' <<<"$METRICS" || {
  echo "FAIL: gateway NDJSON /metrics missing fleet.requests" >&2
  exit 1
}

echo "== chaos loadgen with a mid-run replica kill"
LOADLOG="$(mktemp)"
"$BIN" loadgen -url "$BASE" -spec "$SPEC" -chaos -c 8 -d 6s >"$LOADLOG" 2>&1 & LG=$!
sleep 1.5
echo "   kill -9 replica 2"
kill -9 "$R2"
wait "$R2" 2>/dev/null || true
sleep 2
echo "   restart replica 2"
"$BIN" serve -addr 127.0.0.1:18102 -quiet & R2=$!
PIDS+=("$R2")
rc=0
wait "$LG" || rc=$?
cat "$LOADLOG"
if [[ "$rc" != 0 ]]; then
  echo "FAIL: chaos loadgen saw client-visible errors (exit $rc)" >&2
  exit 1
fi

echo "== gateway /healthz reports per-replica breakers"
curl -sf "$BASE/healthz" | grep -q '"replicas"' || {
  echo "FAIL: gateway /healthz missing replica breaker report" >&2
  exit 1
}

echo "== SIGTERM gateway → graceful exit 0"
kill -TERM "$GW"
rc=0
wait "$GW" || rc=$?
if [[ "$rc" != 0 ]]; then
  echo "FAIL: gateway exited $rc after SIGTERM, want 0" >&2
  exit 1
fi
stop_all "$R1" "$R2" "$R3"

# det_run OUTFILE — fresh topology with a seeded fault plan on replica
# 1, twelve sequential distinct-id evals, one "id replica attempts"
# line each. Hedging off and a long breaker cooldown keep the trace a
# pure function of the request sequence.
det_run() {
  local out="$1"
  BANDWALL_FAULTS='serve.eval=panic x*' "$BIN" serve -addr 127.0.0.1:18111 -quiet & D1=$!
  "$BIN" serve -addr 127.0.0.1:18112 -quiet & D2=$!
  "$BIN" serve -addr 127.0.0.1:18113 -quiet & D3=$!
  PIDS+=("$D1" "$D2" "$D3")
  wait_health 18111 18112 18113
  "$BIN" gateway -addr 127.0.0.1:18110 \
    -replicas 127.0.0.1:18111,127.0.0.1:18112,127.0.0.1:18113 \
    -hedge 0 -breaker-cooldown 60s -quiet & DGW=$!
  PIDS+=("$DGW")
  wait_health 18110
  : > "$out"
  local hdrs spec rep att
  hdrs="$(mktemp)"
  for i in $(seq 1 12); do
    spec="$(printf '{"id":"det-%d","axis":{"n2":[32]},"cases":[{"label":"BASE","value_key":"cores"}]}' "$i")"
    curl -sf -D "$hdrs" -X POST --data-binary "$spec" \
      "http://127.0.0.1:18110/v1/eval" >/dev/null || {
      echo "FAIL: det-$i did not reach a healthy replica" >&2
      exit 1
    }
    rep="$(grep -i '^x-bandwall-replica:' "$hdrs" | tr -d '\r' | awk '{print $2}')"
    att="$(grep -i '^x-bandwall-attempts:' "$hdrs" | tr -d '\r' | awk '{print $2}')"
    echo "det-$i $rep $att" >> "$out"
  done
  stop_all "$DGW" "$D1" "$D2" "$D3"
}

echo "== phase 2: seeded serve.eval=panic plan, determinism across two runs"
RUN1="$(mktemp)"; RUN2="$(mktemp)"
det_run "$RUN1"
det_run "$RUN2"
echo "   failover trace:"
sed 's/^/   /' "$RUN1"
diff -u "$RUN1" "$RUN2" || {
  echo "FAIL: two seeded runs produced different failover traces" >&2
  exit 1
}
if ! awk '$3 >= 2 { found = 1 } END { exit !found }' "$RUN1"; then
  echo "FAIL: no request ever failed over (want >=1 line with attempts >= 2)" >&2
  exit 1
fi
if ! awk '$2 ~ /18111/ { bad = 1 } END { exit bad }' "$RUN1"; then
  echo "FAIL: a response was served by the faulted replica 18111" >&2
  exit 1
fi

echo "fleet smoke: OK"
