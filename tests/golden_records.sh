#!/usr/bin/env bash
# Pivot-for-pivot gate against committed decision logs, run under ctest.
#
#   golden_records.sh <path-to-lp_cli> <source data dir>
#
# Every case in <data>/golden/MANIFEST ("<name> <lp_cli arguments>") is
# solved again with --record, and the fresh gs-record-v1 log must match
# <data>/golden/<name>.gsrec exactly: `lp_cli --diff` reports agreement on
# every pivot with zero reduced-cost and step-length deltas, and the two
# files are byte-identical (which also pins the logged pivot values, the
# status and the final basis). A kernel rewrite that moves one rounding
# anywhere in a solve fails here.
set -u
LP_CLI=$1
DATA=$2
GOLDEN=$DATA/golden
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0
cases=0
while read -r name args; do
  case "$name" in '' | '#'*) continue ;; esac
  cases=$((cases + 1))
  # shellcheck disable=SC2086  # args is a word list by design
  "$LP_CLI" ${args//@DATA@/$DATA} --record="$TMP/$name.gsrec" >"$TMP/out" 2>&1
  rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL $name: lp_cli exited $rc" >&2
    cat "$TMP/out" >&2
    fail=1
    continue
  fi
  report=$("$LP_CLI" --diff "$GOLDEN/$name.gsrec" "$TMP/$name.gsrec")
  if ! grep -q 'recordings agree on all [0-9]* pivots (max |d_q delta| = 0, max |theta delta| = 0)' <<<"$report"; then
    echo "FAIL $name: decision log diverges from the golden log" >&2
    echo "$report" >&2
    fail=1
    continue
  fi
  if ! cmp -s "$GOLDEN/$name.gsrec" "$TMP/$name.gsrec"; then
    echo "FAIL $name: decision log is not byte-identical to the golden log" >&2
    fail=1
    continue
  fi
  echo "ok   $name: $(tail -n 1 <<<"$report")"
done <"$GOLDEN/MANIFEST"

[ $cases -gt 0 ] || { echo "FAIL: no cases in $GOLDEN/MANIFEST" >&2; exit 1; }
exit $fail
