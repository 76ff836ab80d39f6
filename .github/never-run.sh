#!/usr/bin/env bash
# Fails when the set of trusted functions that no test runs differs from the
# checked-in list .github/never-run.txt. Trusted code is everything under
# internal/{proxy,kernel,sudml,uchan,iommu,irq,pci}; a function never runs
# when whole-suite coverage gives it 0.0%. List entries are "<file>
# <function>", without line numbers, so unrelated edits do not churn them.
#
# Usage: bash .github/never-run.sh
# It runs the suite once under
#   go test -coverpkg=./internal/...,./cmd/... ./...
set -euo pipefail
cd "$(dirname "$0")/.."

list=.github/never-run.txt
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -coverpkg=./internal/...,./cmd/... -coverprofile="$profile" ./...

measured=$(go tool cover -func="$profile" |
	awk '$NF == "0.0%" && $1 ~ /^sud\/internal\/(proxy|kernel|sudml|uchan|iommu|irq|pci)\// {
		sub(/:[0-9]+:$/, "", $1); print $1, $2 }' | LC_ALL=C sort)
listed=$(sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' "$list" | LC_ALL=C sort)

if [ "$measured" != "$listed" ]; then
	echo "never-run trusted functions differ from $list (< listed, > measured):"
	diff <(echo "$listed") <(echo "$measured") || true
	exit 1
fi
echo "never-run trusted functions match $list: $(grep -c . <<<"$measured") entries"
