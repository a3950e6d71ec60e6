#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the otem-serve subsystem: boots the
# server on an ephemeral port, hits /healthz and one /v1/simulate, checks
# the cache reports a hit on the second identical request, then SIGTERMs
# and requires a clean graceful-drain exit. Run via `make serve-smoke`.
set -eu

cd "$(dirname "$0")/.."
go build -o bin/otem-serve ./cmd/otem-serve

tmpdir=$(mktemp -d)
portfile="$tmpdir/addr"
cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

bin/otem-serve -addr 127.0.0.1:0 -portfile "$portfile" &
pid=$!

# Wait for the listener (the portfile is written once bound).
i=0
while [ ! -s "$portfile" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never wrote $portfile" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$portfile")
base="http://$addr"
echo "serve-smoke: server up on $addr"

curl -fsS "$base/healthz" | grep -q '"status": "ok"'
echo "serve-smoke: healthz ok"

body='{"method":"Parallel","cycle":"NYCC"}'
curl -fsS -X POST -d "$body" "$base/v1/simulate" | grep -q '"schema": "otem.result/v1"'
echo "serve-smoke: simulate ok"

# The second identical request must be served from the deterministic
# result cache.
xcache=$(curl -fsS -D - -o /dev/null -X POST -d "$body" "$base/v1/simulate" | tr -d '\r' | sed -n 's/^X-Cache: //p')
if [ "$xcache" != "hit" ]; then
    echo "serve-smoke: expected X-Cache: hit, got '$xcache'" >&2
    exit 1
fi
echo "serve-smoke: cache hit ok"

# Fleet round trip: a tiny Monte Carlo fleet must come back with the
# otem.fleet/v1 schema and a deterministic digest, and the identical
# request must be a cache hit carrying the same digest.
fleet_body='{"vehicles":4,"seed":42,"method":"Parallel","route_seconds":60}'
fleet_json=$(curl -fsS -X POST -d "$fleet_body" "$base/v1/fleet")
echo "$fleet_json" | grep -q '"schema": "otem.fleet/v1"'
digest1=$(echo "$fleet_json" | sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p')
if [ -z "$digest1" ]; then
    echo "serve-smoke: fleet response carried no digest" >&2
    exit 1
fi
echo "serve-smoke: fleet ok (digest $digest1)"

fleet_hdrs="$tmpdir/fleet_hdrs"
fleet_json2=$(curl -fsS -D "$fleet_hdrs" -X POST -d "$fleet_body" "$base/v1/fleet")
xcache=$(tr -d '\r' < "$fleet_hdrs" | sed -n 's/^X-Cache: //p')
if [ "$xcache" != "hit" ]; then
    echo "serve-smoke: expected fleet X-Cache: hit, got '$xcache'" >&2
    exit 1
fi
digest2=$(echo "$fleet_json2" | sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p')
if [ "$digest1" != "$digest2" ]; then
    echo "serve-smoke: fleet digest changed across cache hit: $digest1 vs $digest2" >&2
    exit 1
fi
echo "serve-smoke: fleet cache hit ok"

# Plan round trip: the two-layer outer plan must come back with the
# otem.plan/v1 schema, and the identical request must be a cache hit.
plan_body='{"cycle":"NYCC","ambient_kelvin":308}'
plan_json=$(curl -fsS -X POST -d "$plan_body" "$base/v1/plan")
echo "$plan_json" | grep -q '"schema": "otem.plan/v1"'
echo "serve-smoke: plan ok"

plan_hdrs="$tmpdir/plan_hdrs"
curl -fsS -D "$plan_hdrs" -X POST -d "$plan_body" "$base/v1/plan" > /dev/null
xcache=$(tr -d '\r' < "$plan_hdrs" | sed -n 's/^X-Cache: //p')
if [ "$xcache" != "hit" ]; then
    echo "serve-smoke: expected plan X-Cache: hit, got '$xcache'" >&2
    exit 1
fi
echo "serve-smoke: plan cache hit ok"

# Fleet stream: progress lines then the otem.fleet/v1 summary line.
fleet_stream=$(curl -fsS "$base/v1/fleet/stream?vehicles=4&seed=43&method=Parallel&route_seconds=60")
echo "$fleet_stream" | head -n 1 | grep -q '"event":"progress"'
echo "$fleet_stream" | tail -n 1 | grep -q '"schema":"otem.fleet/v1"'
echo "serve-smoke: fleet stream ok"

curl -fsS "$base/metrics" | grep -q '^otem_serve_requests_total{code="200",endpoint="simulate"} 2$'
curl -fsS "$base/metrics" | grep -q '^otem_serve_requests_total{code="200",endpoint="fleet"} 2$'
curl -fsS "$base/metrics" | grep -q '^otem_serve_requests_total{code="200",endpoint="plan"} 2$'
curl -fsS "$base/metrics" | grep -q '^otem_serve_requests_total{code="200",endpoint="fleetstream"} 1$'
curl -fsS "$base/metrics" | grep -q '^otem_serve_cache_events_total{endpoint="plan",kind="hit"} 1$'
echo "serve-smoke: metrics ok"

kill -TERM "$pid"
wait "$pid"
pid=""
echo "serve-smoke: graceful drain ok"
