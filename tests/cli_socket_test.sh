#!/usr/bin/env bash
# CLI-level socket backend coverage, driven by ctest (label "socket"):
#
#   1. `hydra run --backend=<unknown>` fails fast with an actionable error
#      naming every registered backend.
#   2. Single-process `hydra run --backend=tcp` on the 4-party hybrid spec
#      passes under strict monitors (the ISSUE acceptance run).
#   3. A real 4-process `hydra serve`/`join` deployment over UDS: one party
#      per process, fixed socket paths, every process must exit 0 without a
#      write-error line (a peer that finished first is not an error).
#   4. serve checks the resilience bound and the fault plan against the n
#      that --peers gives, not the default n.
#
# Usage: cli_socket_test.sh /path/to/hydra
set -u

HYDRA="${1:?usage: cli_socket_test.sh /path/to/hydra}"
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

TMPDIR_ROOT="$(mktemp -d /tmp/hydra-cli-socket-XXXXXX)"
trap 'rm -rf "$TMPDIR_ROOT"' EXIT

# --- 1. unknown backend: exit 2 + actionable message -----------------------
ERR="$TMPDIR_ROOT/unknown.err"
"$HYDRA" run --backend=bogus --n 4 --ts 1 --ta 1 --dim 1 2>"$ERR"
STATUS=$?
[ "$STATUS" -eq 2 ] || fail "unknown backend: expected exit 2, got $STATUS"
grep -q 'unknown backend "bogus"' "$ERR" || fail "unknown backend: error does not name the rejected value: $(cat "$ERR")"
grep -q 'registered backends:' "$ERR" || fail "unknown backend: error does not list alternatives"
for name in sim threads tcp uds; do
  grep -q "$name" "$ERR" || fail "unknown backend: error does not offer '$name'"
done

# --- 1b. over-long UDS endpoint: rejected at parse time, not at bind -------
# sockaddr_un::sun_path caps AF_UNIX paths at ~107 bytes; a longer --peers
# entry must produce an actionable usage error (exit 2) naming the limit
# instead of a confusing bind() failure deep inside the transport.
LONG_PATH="/tmp/$(printf 'x%.0s' $(seq 1 120)).sock"
ERR="$TMPDIR_ROOT/longuds.err"
"$HYDRA" serve --party 0 --backend uds --peers "$LONG_PATH,$LONG_PATH,$LONG_PATH,$LONG_PATH" \
    --n 4 --ts 1 --ta 1 --dim 1 2>"$ERR"
STATUS=$?
[ "$STATUS" -eq 2 ] || fail "long uds path: expected exit 2, got $STATUS"
grep -q 'sun_path' "$ERR" || fail "long uds path: error does not name the sun_path limit: $(cat "$ERR")"
grep -q "$LONG_PATH" "$ERR" || fail "long uds path: error does not name the offending endpoint"

# --- 2. single-process tcp acceptance run ----------------------------------
if ! "$HYDRA" run --backend=tcp --n 4 --ts 1 --ta 1 --dim 1 \
    --adversary none --corrupt 0 --network sync-worst \
    --monitors strict --seed 1 >"$TMPDIR_ROOT/tcp.out" 2>&1; then
  fail "single-process --backend=tcp run failed: $(cat "$TMPDIR_ROOT/tcp.out")"
fi

# --- 3. four-process serve/join over UDS -----------------------------------
PEERS="$TMPDIR_ROOT/p0.sock,$TMPDIR_ROOT/p1.sock,$TMPDIR_ROOT/p2.sock,$TMPDIR_ROOT/p3.sock"
SPEC="--peers $PEERS --backend uds --ts 1 --ta 1 --dim 1 \
      --adversary none --corrupt 0 --network sync-worst --seed 1"
PIDS=()
for party in 0 1 2 3; do
  CMD=join
  [ "$party" -eq 0 ] && CMD=serve  # same code path; exercise both spellings
  # shellcheck disable=SC2086
  "$HYDRA" "$CMD" --party "$party" $SPEC \
      >"$TMPDIR_ROOT/party$party.out" 2>&1 &
  PIDS+=($!)
done
for party in 0 1 2 3; do
  if ! wait "${PIDS[$party]}"; then
    fail "serve/join: party $party exited nonzero: $(cat "$TMPDIR_ROOT/party$party.out")"
  fi
  if grep -q 'write to party' "$TMPDIR_ROOT/party$party.out"; then
    fail "serve/join: party $party logged a write error on a clean run: $(grep 'write to party' "$TMPDIR_ROOT/party$party.out")"
  fi
done

# --- 4. n comes from --peers --------------------------------------------------
# 7 endpoints: (D+1) ts + ta = 6 < 7 holds, and the plan's party 6 exists.
# Both checks used to run against the default n = 5 and exit 2.
PEERS7=""
for party in 0 1 2 3 4 5 6; do
  PEERS7="$PEERS7${PEERS7:+,}$TMPDIR_ROOT/q$party.sock"
done
if ! "$HYDRA" serve --party 0,1,2,3,4,5,6 --peers "$PEERS7" --backend uds \
    --ts 2 --ta 0 --faults 'crash(party=6,at=5000)' >"$TMPDIR_ROOT/serve7.out" 2>&1; then
  fail "7-endpoint serve exited nonzero: $(head -3 "$TMPDIR_ROOT/serve7.out")"
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "cli_socket_test: all checks passed"
