#!/usr/bin/env bash
# Flakiness check: run each named integration-test target N times.
#
#   scripts/flake.sh N <test-target>...
#   scripts/flake.sh 50 cluster_membership cluster_dircontext
#
# Each target is `cargo test --test <target>`. Prints one pass count per
# target (and the tail of every failing run's output); exits non-zero if
# any run of any target failed.
set -uo pipefail

if [ "$#" -lt 2 ] || ! [[ "$1" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 N <test-target>..." >&2
  exit 2
fi
runs="$1"
shift

cd "$(dirname "$0")/.."

for target in "$@"; do
  cargo test -q --no-run --test "$target" || exit 1
done

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
status=0
for target in "$@"; do
  passed=0
  for i in $(seq 1 "$runs"); do
    if cargo test -q --test "$target" >"$log" 2>&1; then
      passed=$((passed + 1))
    else
      echo "--- $target run $i failed:"
      tail -n 40 "$log"
    fi
  done
  echo "$target: $passed/$runs passed"
  [ "$passed" -eq "$runs" ] || status=1
done
exit "$status"
