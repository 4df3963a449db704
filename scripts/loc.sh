#!/usr/bin/env bash
# Per-crate non-test lines of code, plus the total.
#
# Counts every line of `crates/<crate>/src/**/*.rs` up to each file's
# first `#[cfg(test)]` (unit-test modules sit at the end of a file by
# convention); the root package counts `src/` and `examples/`. Blank
# and comment lines count too: the figure tracks code size, not
# density. Run from anywhere inside the workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -print0 |
    xargs -0 awk 'FNR==1{s=0} /^#\[cfg\(test\)\]/{s=1} !s{n++} END{print n+0}'
}

total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  n="$(count "$dir/src")"
  printf '%-16s %6d\n' "$crate" "$n"
  total=$((total + n))
done
n="$(count src examples)"
printf '%-16s %6d\n' "root" "$n"
total=$((total + n))
printf '%-16s %6d\n' "total" "$total"
