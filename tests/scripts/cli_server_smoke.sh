#!/usr/bin/env bash
# Loopback smoke test for the ocastad daemon, driven through ocasta_cli:
#   1. corrupt-snapshot handling: the CLI must report `error:` and exit 1;
#   2. batch subcommand against the in-process sharded backend;
#   3. serve → remote put/get/delete/history/stats/list/batch → shutdown.
# Usage: cli_server_smoke.sh <path-to-ocasta_cli>
set -u

CLI="$1"
DIR="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# --- 1. Corrupt snapshots must be reported, not crash -----------------------
printf 'garbage, definitely not a TTKV snapshot' > "$DIR/bad.ttkv"
if "$CLI" history "$DIR/bad.ttkv" somekey > /dev/null 2> "$DIR/err.txt"; then
  fail "history on a corrupt snapshot should exit nonzero"
fi
grep -q '^error:' "$DIR/err.txt" || fail "expected 'error:' prefix, got: $(cat "$DIR/err.txt")"

# Truncated-but-valid-prefix snapshot: same contract.
head -c 4 "$DIR/bad.ttkv" > "$DIR/trunc.ttkv"
if "$CLI" history "$DIR/trunc.ttkv" somekey > /dev/null 2> "$DIR/err2.txt"; then
  fail "history on a truncated snapshot should exit nonzero"
fi
grep -q '^error:' "$DIR/err2.txt" || fail "expected 'error:' prefix on truncated snapshot"

# --- 2. batch subcommand over the in-process sharded backend ----------------
OUT="$(printf 'put /b/one 1\nput /b/one 2\nget /b/one\ndelete /b/one\ndelete /b/one\ndelete /b/one force\nhistory /b/one\n' \
        | "$CLI" batch --backend sharded)" || fail "batch --backend sharded"
echo "$OUT" | head -3 | tail -1 | grep -q '^2$' || fail "batch get should print 2, got: $OUT"
echo "$OUT" | sed -n 4p | grep -q 'deleted' || fail "batch delete should report deleted"
echo "$OUT" | sed -n 5p | grep -q '(absent)' || fail "batch re-delete should be suppressed"
echo "$OUT" | grep -q '2 writes, 2 deletions' || fail "forced tombstone missing from history: $OUT"

# A bad line must fail the whole batch parse with the error: contract —
# unknown commands and malformed numeric arguments alike.
if printf 'frobnicate /b/x\n' | "$CLI" batch --backend sharded > /dev/null 2> "$DIR/err3.txt"; then
  fail "batch with an unknown command should exit nonzero"
fi
grep -q '^error:' "$DIR/err3.txt" || fail "expected 'error:' prefix from batch parse"
if printf 'getat /b/x notanumber\n' | "$CLI" batch --backend sharded > /dev/null 2> "$DIR/err4.txt"; then
  fail "batch getat with a bad timestamp should exit nonzero"
fi
grep -q '^error:.*number' "$DIR/err4.txt" || fail "expected numeric parse error, got: $(cat "$DIR/err4.txt")"

# --- 3. Loopback daemon round trip ------------------------------------------
"$CLI" serve --port 0 --shards 4 --port-file "$DIR/port" > "$DIR/serve.log" 2>&1 &
SRV_PID=$!

for _ in $(seq 1 100); do
  [ -s "$DIR/port" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || fail "server died during startup: $(cat "$DIR/serve.log")"
  sleep 0.1
done
[ -s "$DIR/port" ] || fail "server did not write its port file"
PORT="$(tr -d '[:space:]' < "$DIR/port")"

R() { "$CLI" remote "$@" --port "$PORT"; }

R ping > /dev/null || fail "remote ping"
R put /apps/demo/answer 42 > /dev/null || fail "remote put"
R put /apps/demo/name hello > /dev/null || fail "remote put (string)"
R put /apps/demo/answer 43 > /dev/null || fail "remote put (overwrite)"

OUT="$(R get /apps/demo/answer)" || fail "remote get"
[ "$OUT" = "43" ] || fail "remote get: expected 43, got '$OUT'"

if R get /apps/demo/missing > /dev/null; then
  fail "remote get on a missing key should exit nonzero"
fi

OUT="$(R history /apps/demo/answer)" || fail "remote history"
echo "$OUT" | grep -q '2 writes' || fail "history should show 2 writes, got: $OUT"

OUT="$(R list /apps/demo/)" || fail "remote list"
[ "$(echo "$OUT" | wc -l)" = "2" ] || fail "list should show 2 keys, got: $OUT"

R delete /apps/demo/name > /dev/null || fail "remote delete"
OUT="$(R list /apps/demo/)" || fail "remote list after delete"
[ "$(echo "$OUT" | wc -l)" = "1" ] || fail "list should show 1 key after delete, got: $OUT"

OUT="$(R stats)" || fail "remote stats"
echo "$OUT" | grep -q 'shards 4' || fail "stats should report 4 shards, got: $OUT"

# Batch against the running daemon: one BATCH frame end to end.
OUT="$(printf 'put /apps/demo/batched 7\nget /apps/demo/batched\n' \
        | "$CLI" batch --port "$PORT")" || fail "batch against daemon"
echo "$OUT" | tail -1 | grep -q '^7$' || fail "remote batch get should print 7, got: $OUT"

R snapshot "$DIR/remote.ttkv" > /dev/null || fail "remote snapshot"
OUT="$("$CLI" history "$DIR/remote.ttkv" /apps/demo/answer)" || fail "history on remote snapshot"
echo "$OUT" | grep -q '2 writes' || fail "snapshot history should show 2 writes"

R shutdown > /dev/null || fail "remote shutdown"
wait "$SRV_PID" || fail "server exited nonzero after shutdown"
SRV_PID=""
grep -q 'ocastad stopped' "$DIR/serve.log" || fail "server did not log clean stop"

echo "OK"
