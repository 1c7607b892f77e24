#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of `bandwall serve` as a real
# process: build, start, probe /healthz, evaluate the shipped
# stacked-compression spec over HTTP (the Fig 12 answer: 18 cores),
# pull the request's trace from /v1/trace, inspect and purge the caches
# via /v1/cache, scrape /metrics, then SIGTERM and require a graceful
# exit 0.
#
# Run from the repo root: bash scripts/serve_smoke.sh
set -euo pipefail

ADDR="127.0.0.1:18089"
BASE="http://$ADDR"
SPEC="examples/scenarios/stacked-compression.json"
BIN="$(mktemp -d)/bandwall"

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

echo "== build"
go build -o "$BIN" ./cmd/bandwall

echo "== start serve on $ADDR"
"$BIN" serve -addr "$ADDR" -quiet &
SERVER_PID=$!

echo "== wait for /healthz"
up=0
for _ in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [[ "$up" != 1 ]]; then
  echo "FAIL: server never became healthy" >&2
  exit 1
fi
curl -sf "$BASE/healthz" | grep -q '"ok"'

echo "== POST $SPEC"
HDRS="$(mktemp)"
RESP="$(curl -sf -D "$HDRS" -X POST --data-binary "@$SPEC" "$BASE/v1/eval")"
grep -q '"cores@cc+lc":18' <<<"$RESP" || {
  echo "FAIL: eval response missing the Fig 12 answer (cores@cc+lc=18):" >&2
  echo "$RESP" | head -c 600 >&2
  exit 1
}
TRACE_ID="$(grep -i '^x-bandwall-trace:' "$HDRS" | tr -d '\r' | awk '{print $2}')"
if [[ -z "$TRACE_ID" ]]; then
  echo "FAIL: eval response missing the X-Bandwall-Trace header" >&2
  exit 1
fi

echo "== GET /v1/trace?id=$TRACE_ID"
TRACES="$(curl -sf "$BASE/v1/trace?id=$TRACE_ID")"
grep -q "\"id\":\"$TRACE_ID\"" <<<"$TRACES" || {
  echo "FAIL: /v1/trace does not return the eval's trace" >&2
  echo "$TRACES" | head -c 600 >&2
  exit 1
}
# The span tree must be non-empty and carry the pipeline stages.
for stage in '"singleflight"' '"cache.lookup"' '"scenario.eval"'; do
  grep -q "$stage" <<<"$TRACES" || {
    echo "FAIL: trace span tree missing $stage" >&2
    echo "$TRACES" | head -c 600 >&2
    exit 1
  }
done

echo "== GET /v1/cache"
CACHE="$(curl -sf "$BASE/v1/cache")"
grep -q '"response_cache"' <<<"$CACHE" || {
  echo "FAIL: /v1/cache missing response_cache" >&2
  exit 1
}
grep -q '"entries":1' <<<"$CACHE" || {
  echo "FAIL: /v1/cache does not show the cached eval" >&2
  echo "$CACHE" | head -c 600 >&2
  exit 1
}

echo "== DELETE /v1/cache"
PURGED="$(curl -sf -X DELETE "$BASE/v1/cache")"
grep -q '"response_entries_purged":1' <<<"$PURGED" || {
  echo "FAIL: purge did not report the cached response" >&2
  echo "$PURGED" | head -c 600 >&2
  exit 1
}
curl -sf "$BASE/v1/cache" | grep -q '"entries":0' || {
  echo "FAIL: caches not empty after purge" >&2
  exit 1
}

echo "== POST /v1/optimize (inverse query round trip)"
OPT_SPEC="examples/scenarios/optimize-area-budget.json"
OPT_HDRS="$(mktemp)"
OPT_RESP="$(curl -sf -D "$OPT_HDRS" -X POST --data-binary "@$OPT_SPEC" "$BASE/v1/optimize")"
grep -Eq '"best":\{"stack":\[[^]]*\],"label":"Fltr \+ CC/LC \+ DRAM","split":[^,]*,"cost":8,"cores":28,' <<<"$OPT_RESP" || {
  echo "FAIL: optimize response's best design is not Fltr + CC/LC + DRAM at 28 cores:" >&2
  echo "$OPT_RESP" | head -c 600 >&2
  exit 1
}
grep -q '"binding":"thermal"' <<<"$OPT_RESP" || {
  echo "FAIL: optimize response missing the thermal binding attribution" >&2
  echo "$OPT_RESP" | head -c 600 >&2
  exit 1
}
grep -qi '^x-bandwall-cache: miss' "$OPT_HDRS" || {
  echo "FAIL: first optimize request should be a cache miss" >&2
  cat "$OPT_HDRS" >&2
  exit 1
}
OPT_HDRS2="$(mktemp)"
OPT_RESP2="$(curl -sf -D "$OPT_HDRS2" -X POST --data-binary "@$OPT_SPEC" "$BASE/v1/optimize")"
grep -qi '^x-bandwall-cache: hit' "$OPT_HDRS2" || {
  echo "FAIL: repeated optimize request should be a cache hit" >&2
  cat "$OPT_HDRS2" >&2
  exit 1
}
if [[ "$OPT_RESP" != "$OPT_RESP2" ]]; then
  echo "FAIL: cached optimize response differs from the original" >&2
  exit 1
fi
# The split field is accepted and ignored, so it shares the plain key.
OPT_SPLIT="$(sed 's/"max_techniques": 3/"max_techniques": 3, "split": {"min": 0.5, "max": 2, "points": 3}/' "$OPT_SPEC")"
grep -q '"split": {' <<<"$OPT_SPLIT" || {
  echo "FAIL: could not add split to $OPT_SPEC" >&2
  exit 1
}
OPT_HDRS3="$(mktemp)"
OPT_RESP3="$(curl -sf -D "$OPT_HDRS3" -X POST --data-binary "$OPT_SPLIT" "$BASE/v1/optimize")"
grep -qi '^x-bandwall-cache: hit' "$OPT_HDRS3" || {
  echo "FAIL: optimize request with the ignored split should be a cache hit" >&2
  cat "$OPT_HDRS3" >&2
  exit 1
}
if [[ "$OPT_RESP" != "$OPT_RESP3" ]]; then
  echo "FAIL: optimize response with the ignored split differs from the original" >&2
  exit 1
fi

echo "== scrape /metrics"
# Capture first, then grep a here-string: grep -q exits at the first
# match, so any writer piped into it (curl, or echo of a ~75 KB body)
# can take SIGPIPE and trip pipefail even on a healthy response.
METRICS="$(curl -sf "$BASE/metrics")"
grep -q '^bandwall_serve_requests ' <<<"$METRICS" || {
  echo "FAIL: /metrics missing bandwall_serve_requests" >&2
  exit 1
}

echo "== SIGTERM → graceful exit 0"
kill -TERM "$SERVER_PID"
rc=0
wait "$SERVER_PID" || rc=$?
if [[ "$rc" != 0 ]]; then
  echo "FAIL: server exited $rc after SIGTERM, want 0" >&2
  exit 1
fi
SERVER_PID=""

echo "serve smoke: OK"
