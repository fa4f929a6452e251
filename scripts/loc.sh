#!/usr/bin/env bash
# Prints the non-test Go lines of every package directory of a module
# checkout — every line of its .go files except *_test.go, with testdata
# and hidden directories skipped — and the checkout's total. These are the
# counts the ROADMAP's acceptance criteria use.
#
# Usage: scripts/loc.sh [DIR]   (DIR defaults to this checkout; make loc)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . \( -name testdata -o -name '.?*' \) -prune -o -type f -name '*.go' ! -name '*_test.go' -print |
	awk '{
		dir = $0
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\//, "", dir)
		n = 0
		while ((getline line < $0) > 0) n++
		close($0)
		lines[dir] += n
		total += n
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "LC_ALL=C sort -k2"
		close("LC_ALL=C sort -k2")
		printf "%7d  total\n", total
	}'
