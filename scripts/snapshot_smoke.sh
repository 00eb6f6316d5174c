#!/bin/sh
# snapshot smoke: the drain/restore loop end to end. Build fleetd,
# start it with -snapshot-file, admit two tenants (one of them naming
# its monitor, "monitor":"cawot"), read one telemetry line, then
# SIGTERM: the server drains at an epoch-aligned gate and writes the
# sealed control-plane snapshot. Restart with -restore and check both
# tenants are live again WITHOUT a re-PUT (the registry rode along in
# the snapshot) and their telemetry streams resume. Finally check that
# a drain whose snapshot cannot be written exits with status 1. Exercises
# the full checkpoint path (drain-to-snapshot, atomic write, decode,
# config guard, slot-preserving restore, reconciler convergence) in a
# few seconds; CI runs it after the unit suites.
set -eu

ADDR="${SNAPSHOT_SMOKE_ADDR:-127.0.0.1:8346}"
TOKEN=smoke-token
AUTH="Authorization: Bearer $TOKEN"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
SNAP="$TMP/fleetd.snap"
trap 'status=$?; [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null; rm -rf "$TMP"; exit $status' EXIT INT TERM

# Both runs must share the deterministic geometry (platform, steps,
# seed, sink-epoch, admit-every); -restore validates exactly that.
FLAGS="-addr $ADDR -scenarios 40 -max-sessions 16 -parallel 2 -steps 10 -seed 1 -token $TOKEN"

echo "snapshot-smoke: building"
go build -o "$TMP/fleetd" ./cmd/fleetd

wait_healthy() {
  i=0
  until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "snapshot-smoke: server never came up" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
}

wait_exit() {
  i=0
  while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
      echo "snapshot-smoke: server ignored SIGTERM" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
  PID=
}

# read_line TENANT OUT LOG: one telemetry line of TENANT into OUT.
read_line() {
  curl -sN -m 30 -H "$AUTH" "$BASE/v1/tenants/$1/telemetry" | head -n 1 >"$2" || true
  [ -s "$2" ] || { echo "snapshot-smoke: no $1 telemetry line arrived" >&2; cat "$3" >&2; exit 1; }
  grep -q "\"group\":\"$1\"" "$2" || {
    echo "snapshot-smoke: telemetry line lacks the $1 tag: $(cat "$2")" >&2; exit 1
  }
}

# put_tenant TENANT SPEC: declare a new tenant.
put_tenant() {
  code=$(curl -s -o "$TMP/put.json" -w '%{http_code}' -X PUT -H "$AUTH" -d "$2" "$BASE/v1/tenants/$1")
  [ "$code" = 201 ] || { echo "PUT $1 gave $code: $(cat "$TMP/put.json")" >&2; exit 1; }
}

# check_live TENANT LOG: TENANT answers with live sessions.
check_live() {
  code=$(curl -s -o "$TMP/get.json" -w '%{http_code}' -H "$AUTH" "$BASE/v1/tenants/$1")
  [ "$code" = 200 ] || { echo "restored GET $1 gave $code: $(cat "$TMP/get.json")" >&2; exit 1; }
  grep -q '"live":[1-9]' "$TMP/get.json" || {
    echo "snapshot-smoke: restored tenant $1 has no live sessions: $(cat "$TMP/get.json")" >&2
    cat "$2" >&2
    exit 1
  }
  echo "snapshot-smoke: restored tenant: $(cat "$TMP/get.json")"
}

echo "snapshot-smoke: starting (run 1, -snapshot-file)"
# shellcheck disable=SC2086
"$TMP/fleetd" $FLAGS -snapshot-file "$SNAP" 2>"$TMP/run1.log" &
PID=$!
wait_healthy "$TMP/run1.log"

echo "snapshot-smoke: admitting tenants"
put_tenant smoke '{"patients":[0,1],"scenarios":[0,1],"mitigate":true}'
put_tenant named '{"patients":[2],"scenarios":[2],"monitor":"cawot"}'

echo "snapshot-smoke: reading one telemetry line per tenant"
read_line smoke "$TMP/line1.json" "$TMP/run1.log"
echo "snapshot-smoke: got $(cat "$TMP/line1.json")"
read_line named "$TMP/line1.json" "$TMP/run1.log"
echo "snapshot-smoke: got $(cat "$TMP/line1.json")"

echo "snapshot-smoke: draining to snapshot (SIGTERM)"
kill -TERM "$PID"
wait_exit "$TMP/run1.log"
grep -q 'fleetd: snapshot:' "$TMP/run1.log" || {
  echo "snapshot-smoke: drain did not write a snapshot:" >&2
  cat "$TMP/run1.log" >&2
  exit 1
}
[ -s "$SNAP" ] || { echo "snapshot-smoke: snapshot file missing or empty" >&2; exit 1; }
echo "snapshot-smoke: snapshot is $(wc -c <"$SNAP") bytes"

echo "snapshot-smoke: starting (run 2, -restore)"
# shellcheck disable=SC2086
"$TMP/fleetd" $FLAGS -restore "$SNAP" 2>"$TMP/run2.log" &
PID=$!
wait_healthy "$TMP/run2.log"

echo "snapshot-smoke: tenants resumed without a re-PUT"
check_live smoke "$TMP/run2.log"
check_live named "$TMP/run2.log"

echo "snapshot-smoke: restored telemetry streams flow"
read_line smoke "$TMP/line2.json" "$TMP/run2.log"
echo "snapshot-smoke: got $(cat "$TMP/line2.json")"
read_line named "$TMP/line2.json" "$TMP/run2.log"
echo "snapshot-smoke: got $(cat "$TMP/line2.json")"

echo "snapshot-smoke: draining restored server (SIGTERM)"
kill -TERM "$PID"
wait_exit "$TMP/run2.log"
grep -q 'fleetd: stopped' "$TMP/run2.log" || {
  echo "snapshot-smoke: restored server did not drain cleanly:" >&2
  cat "$TMP/run2.log" >&2
  exit 1
}

echo "snapshot-smoke: a snapshot that cannot be written fails the exit status (run 3)"
# shellcheck disable=SC2086
"$TMP/fleetd" $FLAGS -snapshot-file "$TMP/missing-dir/fleetd.snap" 2>"$TMP/run3.log" &
PID=$!
wait_healthy "$TMP/run3.log"
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=
[ "$rc" = 1 ] && grep -q 'no snapshot written' "$TMP/run3.log" || {
  echo "snapshot-smoke: lost snapshot exited with status $rc, want 1:" >&2
  cat "$TMP/run3.log" >&2
  exit 1
}
echo "snapshot-smoke: PASS"
