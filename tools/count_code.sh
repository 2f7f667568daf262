#!/bin/sh
# Counted lines of code, the figure the CHANGES.md entries quote: per
# `*.rs` file, everything above the first column-0 `#[cfg(test)]`, less
# blank lines and lines holding only a `//` comment (doc comments too).
#
# Usage: tools/count_code.sh DIR...    (one table and one total per DIR)
for dir in "$@"; do
    total=0
    for file in $(find "$dir" -name '*.rs' | sort); do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit }
                 /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                 { n++ }
                 END { print n + 0 }' "$file")
        printf '%6d %s\n' "$n" "$file"
        total=$((total + n))
    done
    printf '%6d %s (total)\n' "$total" "$dir"
done
