#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern names no test in the
# given packages. A renamed or deleted test otherwise drops out of a CI lane
# silently: -run matches nothing and go test still passes. The pattern is
# split on its top-level `|`, so alternatives must not contain groups; each
# one is matched as an unanchored regexp, as -run does, against the
# top-level names `go test -list` prints.
#
# From the root of a checkout:
#
#   bash .github/scripts/check-run-pattern.sh 'TestDFS|TestMutationFoo' ./internal/snapshot
set -euo pipefail
pattern="$1"
shift
names="$(go test -list '.*' "$@" | grep -E '^(Test|Example|Benchmark|Fuzz)')"
failed=0
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	if ! grep -qE -- "$alt" <<<"$names"; then
		echo "-run alternative '$alt' matches no test in $*" >&2
		failed=1
	fi
done
exit "$failed"
