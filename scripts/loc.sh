#!/usr/bin/env bash
# Source size, per crate, for `core + serve` and for the whole workspace.
#
# For every `crates/*/src/**/*.rs`, counts the lines that precede the
# file's first `#[cfg(test)]` — all of them, and those that are neither
# blank nor a `//` comment ("code") — and the lines from that
# `#[cfg(test)]` on ("test"). Prints one row per crate, the four largest files by name, the
# `core + serve` sum the simplification PRs are judged by, and a
# `workspace` row whose test column also takes in the root `tests/*.rs`.
#
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints "<lines> <code> <test>" summed over the given files.
count() {
  awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { test++; next }
    { lines++ }
    !/^[[:space:]]*(\/\/|$)/ { code++ }
    END { printf "%d %d %d\n", lines, code, test }
  ' "$@"
}

row() {
  local name=$1
  shift
  read -r lines code test < <(count "$@")
  printf '%-28s %8d %8d %8d\n' "$name" "$lines" "$code" "$test"
}

printf '%-28s %8s %8s %8s\n' "source" "lines" "code" "test"
for crate in crates/*/; do
  mapfile -t files < <(find "$crate"src -name '*.rs' | sort)
  row "$(basename "$crate")" "${files[@]}"
done
for file in crates/core/src/hypervisor.rs crates/core/src/cluster.rs \
  crates/core/src/admission.rs crates/serve/src/scheduler.rs; do
  row "  ${file#crates/}" "$file"
done
row "core + serve" crates/core/src/*.rs crates/serve/src/*.rs
mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
read -r lines code test < <(count "${files[@]}")
printf '%-28s %8d %8d %8d\n' "workspace" "$lines" "$code" \
  "$((test + $(cat tests/*.rs | wc -l)))"
