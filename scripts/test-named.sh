#!/usr/bin/env bash
# Runs `go test ARGS -run PATTERN`, first failing if some |-separated
# alternative of PATTERN names no test in ARGS' packages: a deleted or
# renamed test must not silently turn a named CI step into a no-op.
# Usage: scripts/test-named.sh PATTERN [go test flags] PACKAGE...
#   e.g. scripts/test-named.sh 'TestRecoverLends|TestOpenLoan' -race -count=5 ./internal/core/
set -euo pipefail
pattern=$1
shift
names=$(go test -list . "$@" | grep -E '^(Test|Benchmark|Example|Fuzz)' || true)
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	if ! grep -Eq -- "$alt" <<<"$names"; then
		echo "test-named: no test in $* matches '$alt' (of -run '$pattern')" >&2
		exit 1
	fi
done
exec go test -run "$pattern" "$@"
