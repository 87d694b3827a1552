#!/bin/sh
# Re-record tests/data/golden_digests.txt: run every case with the
# eqsim of a build of this tree and rewrite both digests in place.
# Only a change meant to move exports or traces re-records them, and
# CHANGES.md then says why.
#
# Usage: tests/update_golden.sh [build-dir]   (default: build)
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-build}" && pwd)
file="$root/tests/data/golden_digests.txt"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

grep '^#' "$file" > "$out/new.txt"
grep -v '^#' "$file" | while read -r name _ _ args; do
    [ -n "$name" ] || continue
    # shellcheck disable=SC2086 # args is a list of key=value words
    (cd "$root" && "$build/examples/eqsim" $args \
        export="$out/case.json" trace="$out/case.trace" > /dev/null)
    digests=$("$build/tests/golden_digest" "$out/case.json" \
        "$out/case.trace" | tr '\n' ' ')
    echo "$name $digests$args" >> "$out/new.txt"
    echo "$name $digests"
done
cp "$out/new.txt" "$file"
