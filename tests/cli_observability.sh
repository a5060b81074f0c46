#!/usr/bin/env bash
# Combined-observer and recorder coverage for lp_cli, run under ctest.
#
#   cli_observability.sh <path-to-lp_cli> <source data dir>
#
# Checks, end to end against the real binary:
#   1. Enabling --trace/--metrics/--check/--record/--profile/--telemetry
#      individually or all at once leaves the solve bit-identical to a
#      plain run (status, iterations, objective, modeled time), the
#      recording written by the combined run is byte-identical to the
#      record-only run, and the profile and telemetry JSON artifacts
#      (deterministic: modeled time only) are byte-identical between the
#      solo and combined runs — under both basis schemes.
#   2. A record -> replay round trip verifies every decision with zero
#      mismatches and reproduces the same solve.
#   3. A float-vs-double pair on data/precision_tie.lp diverges at pivot 0
#      and `lp_cli --diff` says so.
#   4. An unknown --engine/--basis/--pricing/--scale/--device value is a
#      usage error (exit 1, accepted values listed), never a silent
#      fallback to the default; so is a malformed count (--max-iters,
#      --gen sizes and seeds, --serve-bench): anything but a whole string
#      of digits that fits 64 bits (a --gen size: at most 2^22).
set -u
LP_CLI=$1
DATA=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP" || exit 1

GEN=dense:24:7
fail() { echo "FAIL: $*" >&2; exit 1; }

# Deterministic solve lines only: wall-clock time is stripped, the modeled
# (simulated) time must match exactly.
solve_lines() {
  grep -E '^(status|iterations|objective|modeled time):' "$1" \
    | sed 's/ ms, wall:.*$/ ms/'
}

# Step 1, once per basis scheme: every observer alone, then all at once.
observers_inert() {
  local basis=$1
  # shellcheck disable=SC2086  # $basis is empty or a flag and its value
  run() { "$LP_CLI" --gen $GEN $basis "$@"; }
  run >plain.out || fail "plain run ($basis)"
  run --trace trace_solo.json >trace.out || fail "--trace run ($basis)"
  run --metrics=metrics_solo.json >metrics.out \
    || fail "--metrics run ($basis)"
  run --check >check.out || fail "--check run ($basis)"
  run --record=solo.gsrec >record.out || fail "--record run ($basis)"
  run --profile=prof_solo.json >profile.out || fail "--profile run ($basis)"
  run --telemetry=tel_solo.json >telemetry.out \
    || fail "--telemetry run ($basis)"
  run --trace trace_comb.json --metrics=metrics_comb.json \
    --check --record=comb.gsrec --profile=prof_comb.json \
    --telemetry=tel_comb.json >combined.out \
    || fail "combined run ($basis)"

  solve_lines plain.out >expected.txt
  for f in trace.out metrics.out check.out record.out profile.out \
           telemetry.out combined.out; do
    solve_lines "$f" >got.txt
    diff expected.txt got.txt >/dev/null \
      || fail "$f: solve differs from plain run ($basis; observers must be inert)"
  done
  cmp -s solo.gsrec comb.gsrec \
    || fail "combined-run recording differs from record-only recording ($basis)"
  grep -q 'profile: reconciled bit-exactly' profile.out \
    || fail "--profile run did not report bit-exact reconciliation ($basis)"
  cmp -s prof_solo.json prof_comb.json \
    || fail "combined-run profile differs from profile-only run ($basis)"
  test -s prof_solo.json.folded \
    || fail "--profile did not write the collapsed-stack flamegraph ($basis)"
  cmp -s tel_solo.json tel_comb.json \
    || fail "combined-run telemetry differs from telemetry-only run ($basis)"
  grep -q 'gs-telemetry-v1' tel_solo.json \
    || fail "telemetry artifact is missing its schema tag ($basis)"
}
observers_inert "--basis product-form"
# The explicit-inverse pass runs last: steps 2 and 3 reuse its files.
observers_inert ""

# Record -> replay round trip.
"$LP_CLI" --gen $GEN --replay=solo.gsrec >replay.out \
  || { cat replay.out >&2; fail "replay exited nonzero"; }
grep -q 'replay: verified' replay.out \
  || fail "replay did not report verification"
solve_lines replay.out >got.txt
diff expected.txt got.txt >/dev/null \
  || fail "replay solve differs from original run"

# Float-vs-double divergence witness.
"$LP_CLI" "$DATA/precision_tie.lp" --engine device --record=tie_d.gsrec \
  >/dev/null || fail "double solve of precision_tie.lp"
"$LP_CLI" "$DATA/precision_tie.lp" --engine device-float \
  --record=tie_f.gsrec >/dev/null || fail "float solve of precision_tie.lp"
"$LP_CLI" --diff tie_d.gsrec tie_f.gsrec >diff.out \
  || { cat diff.out >&2; fail "--diff exited nonzero"; }
grep -q 'diverge at pivot 0' diff.out \
  || { cat diff.out >&2; fail "--diff did not report divergence at pivot 0"; }

# Unknown option values are rejected.
for bad in "--engine dula" "--basis lu" "--pricing dantzg" "--scale log" \
           "--device gtx9000"; do
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$LP_CLI" --gen $GEN $bad >bad.out 2>bad.err
  rc=$?
  [ "$rc" -eq 1 ] || fail "$bad: exit $rc, expected 1 (unknown value)"
  grep -q 'accepted:' bad.err \
    || fail "$bad: the error does not list the accepted values"
done

# Malformed counts are rejected. Values past 2^64 - 1 (or, for a --gen
# size, past 2^22), negative values and trailing text must never wrap or
# truncate into a solve.
for bad in "--gen $GEN --max-iters foo" "--gen $GEN --max-iters -1" \
           "--gen $GEN --max-iters 12abc" "--gen $GEN --max-iters +5" \
           "--gen $GEN --max-iters 18446744073709551616" \
           "--gen dense:24x" "--gen dense:24:7z" "--gen dense:-5" \
           "--gen dense:4194305" "--gen sparse:9223372036854775808" \
           "--gen dense:" "--gen sparse:-1:3" "--gen klee:3x" \
           "--serve-bench=-1:32" "--serve-bench=4:-2" "--serve-bench=4x"; do
  # shellcheck disable=SC2086  # $bad is a word list by design
  "$LP_CLI" $bad >bad.out 2>bad.err
  rc=$?
  [ "$rc" -eq 1 ] || fail "$bad: exit $rc, expected 1 (malformed count)"
  grep -q 'usage:' bad.err || fail "$bad: no usage message"
done

echo "cli_observability: all checks passed"
