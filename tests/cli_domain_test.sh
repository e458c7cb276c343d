#!/usr/bin/env bash
# CLI-level value-domain coverage, driven by ctest (label "domain"):
#
#   1. Unknown --domain and unknown --protocol fail fast with actionable
#      errors naming every registered value (mirroring the backend error).
#   2. Graph-domain argument validation: wrong --dim, a baseline --protocol,
#      sub-vertex --eps, and infeasible (n, ts, ta) each produce a usage
#      error that says what to change.
#   3. Tree/path end-to-end: `hydra run --domain=tree` passes under strict
#      monitors on the sim AND threads backends (the ISSUE acceptance runs).
#   4. Euclidean byte-identity: the six golden runs captured at the
#      pre-domain-layer commit (tests/golden/) are re-executed and their
#      traces, metrics JSON, and stdout compared byte-for-byte. This is the
#      seam guarantee: extracting src/domain/ changed no Euclidean byte.
#      `hydra report` on each re-run trace + metrics must match the golden
#      report (tests/golden/g*.report.md) byte-for-byte too.
#   5. Sweep determinism with a domain: --jobs 1 and --jobs 8 tree sweeps
#      produce identical summaries (modulo the echoed jobs count).
#   6. Option typos and non-numeric values are usage errors (exit 2) that
#      name the offending key, on every subcommand; so is a key the
#      subcommand does not act on, and perf_gate checks its options the same
#      way.
#
# Usage: cli_domain_test.sh /path/to/hydra /path/to/tests/golden /path/to/perf_gate
set -u

HYDRA="${1:?usage: cli_domain_test.sh /path/to/hydra /path/to/golden-dir /path/to/perf_gate}"
GOLDEN="${2:?usage: cli_domain_test.sh /path/to/hydra /path/to/golden-dir /path/to/perf_gate}"
PERF_GATE="${3:?usage: cli_domain_test.sh /path/to/hydra /path/to/golden-dir /path/to/perf_gate}"
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

TMPDIR_ROOT="$(mktemp -d /tmp/hydra-cli-domain-XXXXXX)"
trap 'rm -rf "$TMPDIR_ROOT"' EXIT

# --- 1. unknown --domain / --protocol: exit 2 + every registered value -----
ERR="$TMPDIR_ROOT/unknown-domain.err"
"$HYDRA" run --domain=bogus 2>"$ERR"
STATUS=$?
[ "$STATUS" -eq 2 ] || fail "unknown domain: expected exit 2, got $STATUS"
grep -q 'unknown domain "bogus"' "$ERR" || fail "unknown domain: error does not name the rejected value: $(head -1 "$ERR")"
grep -q 'registered domains:' "$ERR" || fail "unknown domain: error does not list alternatives"
for name in euclid tree path; do
  grep -q "$name" "$ERR" || fail "unknown domain: error does not offer '$name'"
done

ERR="$TMPDIR_ROOT/unknown-protocol.err"
"$HYDRA" run --protocol=bogus 2>"$ERR"
STATUS=$?
[ "$STATUS" -eq 2 ] || fail "unknown protocol: expected exit 2, got $STATUS"
grep -q 'unknown protocol "bogus"' "$ERR" || fail "unknown protocol: error does not name the rejected value: $(head -1 "$ERR")"
grep -q 'registered protocols:' "$ERR" || fail "unknown protocol: error does not list alternatives"
for name in hybrid sync-lockstep async-mh; do
  grep -q -- "$name" "$ERR" || fail "unknown protocol: error does not offer '$name'"
done

"$HYDRA" list >"$TMPDIR_ROOT/list.out" 2>&1
grep -q '^domain     : euclid tree path' "$TMPDIR_ROOT/list.out" \
  || fail "hydra list: missing/incomplete domain row: $(grep '^domain' "$TMPDIR_ROOT/list.out")"

# --- 2. graph-domain argument validation -----------------------------------
check_usage_error() {  # <label> <pattern> <args...>
  local label="$1" pattern="$2"
  shift 2
  local err="$TMPDIR_ROOT/$label.err"
  "$HYDRA" run "$@" 2>"$err"
  local status=$?
  [ "$status" -eq 2 ] || fail "$label: expected exit 2, got $status"
  grep -q "$pattern" "$err" || fail "$label: error not actionable: $(head -1 "$err")"
}
check_usage_error tree-dim 'drop --dim or pass --dim 1' --domain tree --dim 2
check_usage_error tree-baseline 'hybrid protocol only' --domain tree --protocol sync-lockstep
check_usage_error tree-eps 'needs --eps >= 1' --domain tree --eps 0.5
check_usage_error tree-infeasible 'n > 3 ts and n > 2 ts + ta' --domain tree --n 3 --ts 1 --ta 1

# --- 3. tree/path end-to-end under strict monitors -------------------------
for domain in tree path; do
  for backend in sim threads; do
    OUT="$TMPDIR_ROOT/$domain-$backend.out"
    if ! "$HYDRA" run --domain "$domain" --backend "$backend" \
        --n 5 --ts 1 --ta 1 --monitors strict --seed 3 >"$OUT" 2>&1; then
      fail "--domain=$domain --backend=$backend strict run failed: $(cat "$OUT")"
    fi
    grep -q "monitor violations     0" "$OUT" \
      || fail "--domain=$domain --backend=$backend: nonzero monitor violations"
    grep -q "domain                 $domain" "$OUT" \
      || fail "--domain=$domain: verdict table lacks the domain row"
  done
done

# --- 3b. hydra report renders vertex labels for graph domains ---------------
TREE_TRACE="$TMPDIR_ROOT/tree.trace.jsonl"
TREE_METRICS="$TMPDIR_ROOT/tree.metrics.json"
"$HYDRA" run --domain tree --n 5 --ts 1 --ta 1 --monitors record --seed 3 \
    --trace-out "$TREE_TRACE" --metrics-json "$TREE_METRICS" >/dev/null 2>&1 \
  || fail "tree trace capture for report failed"
"$HYDRA" report --trace "$TREE_TRACE" --metrics "$TREE_METRICS" \
    >"$TMPDIR_ROOT/tree.report.md" 2>&1 \
  || fail "hydra report on a tree trace failed"
grep -q 'vertex labels' "$TMPDIR_ROOT/tree.report.md" \
  || fail "tree report: missing the vertex-label value rendering"
grep -q 'arXiv:2502.05591' "$TMPDIR_ROOT/tree.report.md" \
  || fail "tree report: convergence section does not cite the graph-AA bound"
grep -q '"domain":"tree"' "$TREE_METRICS" \
  || fail "tree metrics: spec block lacks the domain key"

# --- 4. Euclidean golden byte-identity --------------------------------------
# The exact specs captured at the pre-domain-layer commit. Re-run each and
# byte-compare trace, metrics, and stdout against tests/golden/.
declare -A SPEC
SPEC[g1]="--protocol hybrid --n 5 --ts 1 --ta 1 --dim 2 --eps 0.01 --network sync-jitter --adversary silent --corrupt 1 --workload ball --scale 10 --seed 1 --monitors record"
SPEC[g2]="--protocol hybrid --n 6 --ts 1 --ta 1 --dim 3 --eps 2.0 --network sync-worst --adversary equivocate --corrupt 1 --workload simplex --scale 10 --seed 2 --monitors strict"
SPEC[g3]="--protocol hybrid --n 5 --ts 1 --ta 0 --dim 1 --eps 0.001 --network async-reorder --adversary crash --corrupt 1 --workload collinear --scale 5 --seed 3 --monitors record"
SPEC[g4]="--protocol sync-lockstep --n 5 --ts 1 --ta 0 --dim 2 --eps 0.5 --network sync-worst --adversary none --corrupt 0 --workload gaussian --scale 10 --seed 4 --monitors record"
SPEC[g5]="--protocol async-mh --n 7 --ts 1 --ta 1 --dim 2 --eps 1.0 --network async-exp --adversary outlier --corrupt 1 --workload clustered --scale 10 --seed 5 --monitors record"
SPEC[g6]="--protocol hybrid --n 6 --ts 1 --ta 1 --dim 2 --eps 0.2 --network sync-jitter --adversary none --corrupt 0 --workload ball --scale 10 --seed 6 --monitors record --faults dup(p=0.2);crash(party=0,at=5000) --aggregation centroid"

for g in g1 g2 g3 g4 g5 g6; do
  TRACE="$TMPDIR_ROOT/$g.trace.jsonl"
  METRICS="$TMPDIR_ROOT/$g.metrics.json"
  STDOUT="$TMPDIR_ROOT/$g.stdout.txt"
  # shellcheck disable=SC2086
  "$HYDRA" run ${SPEC[$g]} --trace-out "$TRACE" --metrics-json "$METRICS" \
      >"$STDOUT" 2>"$TMPDIR_ROOT/$g.stderr.txt"
  gunzip -c "$GOLDEN/$g.trace.jsonl.gz" >"$TMPDIR_ROOT/$g.golden.trace.jsonl" \
    || fail "$g: cannot decompress golden trace"
  cmp -s "$TMPDIR_ROOT/$g.golden.trace.jsonl" "$TRACE" \
    || fail "$g: trace differs from the pre-domain-layer golden"
  cmp -s "$GOLDEN/$g.metrics.json" "$METRICS" \
    || fail "$g: metrics JSON differs from the pre-domain-layer golden"
  cmp -s "$GOLDEN/$g.stdout.txt" "$STDOUT" \
    || fail "$g: stdout differs from the pre-domain-layer golden"
  "$HYDRA" report --trace "$TRACE" --metrics "$METRICS" \
      >"$TMPDIR_ROOT/$g.report.md" 2>"$TMPDIR_ROOT/$g.report.err" \
    || fail "$g: hydra report failed: $(head -1 "$TMPDIR_ROOT/$g.report.err")"
  cmp -s "$GOLDEN/$g.report.md" "$TMPDIR_ROOT/$g.report.md" \
    || fail "$g: hydra report differs from the golden report"
done

# --- 5. sweep determinism with a non-Euclidean domain ----------------------
for jobs in 1 8; do
  "$HYDRA" sweep --domain tree --n 5 --ts 1 --ta 1 --seeds 8 --jobs "$jobs" \
      --monitors record --sweep-json "$TMPDIR_ROOT/sweep-j$jobs.json" \
      >"$TMPDIR_ROOT/sweep-j$jobs.out" 2>&1 \
    || fail "tree sweep --jobs $jobs failed: $(cat "$TMPDIR_ROOT/sweep-j$jobs.out")"
  # The summary echoes the worker count; normalize it before comparing.
  sed 's/"jobs":[0-9]*/"jobs":N/' "$TMPDIR_ROOT/sweep-j$jobs.json" \
      >"$TMPDIR_ROOT/sweep-j$jobs.norm.json"
done
cmp -s "$TMPDIR_ROOT/sweep-j1.norm.json" "$TMPDIR_ROOT/sweep-j8.norm.json" \
  || fail "tree sweep: --jobs 1 and --jobs 8 summaries differ"
grep -q '"domain":"tree"' "$TMPDIR_ROOT/sweep-j1.json" \
  || fail "tree sweep: summary spec lacks the domain key"

# --- 6. option typos and non-numbers -----------------------------------------
check_cli_error() {  # <label> <pattern> <args...>
  local label="$1" pattern="$2"
  shift 2
  local err="$TMPDIR_ROOT/$label.err"
  "$HYDRA" "$@" >/dev/null 2>"$err"
  local status=$?
  [ "$status" -eq 2 ] || fail "$label: expected exit 2, got $status"
  grep -q -- "$pattern" "$err" || fail "$label: error does not name the key: $(head -1 "$err")"
}
check_cli_error typo-run 'unknown option --sed' run --sed 7
check_cli_error typo-eq 'unknown option --sed' run --sed=7
check_cli_error typo-sweep 'unknown option --seedz' sweep --seedz 3
check_cli_error serve-key-on-run 'unknown option --party' run --party 0
check_cli_error typo-report 'unknown option --trce' report --trce x.jsonl
check_cli_error typo-perf 'unknown option --inputs' perf --inputs x.json
check_cli_error typo-top 'unknown option --in' top --in x.jsonl
check_cli_error nan-seed '--seed needs a number, got "abc"' run --seed abc
check_cli_error trailing-junk '--n needs a number, got "5x"' run --n 5x
check_cli_error empty-eps '--eps needs a number' run --eps=
check_cli_error negative-n '--n is out of range' run --n -1
check_cli_error nan-instances '--instances needs a number' bench serve --instances many
check_cli_error nan-top '--top needs a number' perf --input x.json --top ten
# Numeric spellings strtod accepts still work.
"$HYDRA" run --n 5 --ts 1 --ta 1 --eps 1e-2 --seed 2.0 >/dev/null 2>&1 \
  || fail "run with --eps 1e-2 --seed 2.0 failed"
# A key the subcommand accepts must be one it acts on: run writes no sweep
# summary, a sweep's seeds would truncate one heartbeat file, and bench serve
# always runs hybrid Euclidean agreement with no trace.
check_cli_error run-seeds 'unknown option --seeds' run --seeds 3
check_cli_error run-jobs 'unknown option --jobs' run --jobs 2
check_cli_error run-sweep-json 'unknown option --sweep-json' run --sweep-json "$TMPDIR_ROOT/x.json"
check_cli_error sweep-stats 'unknown option --stats-json' sweep --stats-json "$TMPDIR_ROOT/s.jsonl"
check_cli_error bench-domain 'unknown option --domain' bench serve --domain tree
check_cli_error bench-protocol 'unknown option --protocol' bench serve --protocol async-mh
check_cli_error bench-trace 'unknown option --trace-out' bench serve --trace-out "$TMPDIR_ROOT/t.jsonl"
check_cli_error perf-modes 'measure the kernels' perf --input x.json --baseline y.json
[ ! -e "$TMPDIR_ROOT/x.json" ] || fail "run --sweep-json wrote a file"
# Every enum rejects an unknown name in one form, listing every name.
check_cli_error bogus-network 'unknown network "bogus"; registered networks:' run --network bogus
for name in sync-worst sync-jitter sync-target sync-rush async-reorder async-partition async-exp; do
  grep -q -- "$name" "$TMPDIR_ROOT/bogus-network.err" \
    || fail "unknown network: error does not offer '$name'"
done
check_cli_error bogus-monitors 'unknown monitor mode "loud"' run --monitors loud
# perf_gate: the same option checks as hydra, and the --key=value form.
BENCH_DOC="$TMPDIR_ROOT/bench.json"
printf '{"schema":"hydra-bench-v1","bench":"t","metrics":[{"name":"m","unit":"ns","value":1,"repetitions":1}]}\n' >"$BENCH_DOC"
"$PERF_GATE" --current "$BENCH_DOC" --baseline "$BENCH_DOC" --budget abc \
    >/dev/null 2>"$TMPDIR_ROOT/gate-nan.err"
STATUS=$?
[ "$STATUS" -eq 2 ] || fail "perf_gate --budget abc: expected exit 2, got $STATUS"
grep -q -- '--budget needs a number' "$TMPDIR_ROOT/gate-nan.err" \
  || fail "perf_gate --budget abc: error does not name --budget: $(head -1 "$TMPDIR_ROOT/gate-nan.err")"
"$PERF_GATE" --current "$BENCH_DOC" --baseline "$BENCH_DOC" --budget=0.1 \
    >"$TMPDIR_ROOT/gate-eq.out" 2>&1 \
  || fail "perf_gate --budget=0.1 failed: $(cat "$TMPDIR_ROOT/gate-eq.out")"
grep -q 'budget +10%' "$TMPDIR_ROOT/gate-eq.out" \
  || fail "perf_gate --budget=0.1: budget not applied: $(head -1 "$TMPDIR_ROOT/gate-eq.out")"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "cli_domain_test: all checks passed"
