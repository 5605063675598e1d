#!/usr/bin/env bash
# Non-test source size, per crate and for `core + serve`.
#
# For every `crates/*/src/*.rs` (top level of `src/` only), counts the
# lines that precede the file's first `#[cfg(test)]` — all of them, and
# those that are neither blank nor a `//` comment ("code"). Prints one
# row per crate, the three largest files by name, and the `core + serve`
# sum the simplification PRs are judged by.
#
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints "<lines> <code>" summed over the given files.
count() {
  awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { lines++ }
    !/^[[:space:]]*(\/\/|$)/ { code++ }
    END { printf "%d %d\n", lines, code }
  ' "$@"
}

printf '%-28s %8s %8s\n' "non-test source" "lines" "code"
for crate in crates/*/; do
  name=$(basename "$crate")
  read -r lines code < <(count "$crate"src/*.rs)
  printf '%-28s %8d %8d\n' "$name" "$lines" "$code"
done
for file in crates/core/src/hypervisor.rs crates/core/src/cluster.rs \
  crates/core/src/admission.rs crates/serve/src/scheduler.rs; do
  read -r lines code < <(count "$file")
  printf '%-28s %8d %8d\n' "  ${file#crates/}" "$lines" "$code"
done
read -r lines code < <(count crates/core/src/*.rs crates/serve/src/*.rs)
printf '%-28s %8d %8d\n' "core + serve" "$lines" "$code"
