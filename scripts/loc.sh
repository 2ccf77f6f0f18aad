#!/usr/bin/env bash
# Non-test Go lines per top-level directory ("." is the root package),
# one line each, then the total. ROADMAP counts a falling total as a
# success metric; CI prints this in the test job.
# Usage: scripts/loc.sh [dir]   (default: the repository the script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
git ls-files '*.go' | grep -v -e '_test\.go$' -e '/testdata/' |
	while read -r f; do
		case "$f" in */*) top=${f%%/*} ;; *) top=. ;; esac
		echo "$top $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2 } END { for (d in n) print d, n[d] }' | sort |
	awk '{ printf "%-10s %6d\n", $1, $2; total += $2 } END { printf "%-10s %6d\n", "total", total }'
