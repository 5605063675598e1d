#!/usr/bin/env bash
# Public functions, fields and consts that no non-test code reaches.
#
# Copies the tree to a temporary directory and, in the copy only, narrows
# to crate visibility every `pub fn`, `pub const fn`, `pub` field and
# `pub const` that precedes its file's first `#[cfg(test)]` in
# `crates/*/src` (`src/bin` left out). It then checks the non-test
# targets: every workspace package's lib, bins and examples, and the
# `benchmark/` package against its lock file. Each item a privacy error
# names (E0603, E0616, E0624, E0451, E0364) is made `pub` again, until
# both build. What rustc's `dead_code` lint then flags in the workspace is
# printed as `path:line name`, one item a line, sorted: an item no
# non-test code of any workspace crate, the root `src/`, `examples/` or
# `benchmark/src` reaches. The root `tests/` are not built, so an item
# only they use is printed too.
#
# Builds into `target/dead_pub` (under `$CARGO_TARGET_DIR` when that is
# set); 60-90 s a run on a 2-vCPU host once that is warm. The working
# tree is never edited.
#
# Usage: scripts/dead_pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."
target=${CARGO_TARGET_DIR:-target}/dead_pub
[[ $target == /* ]] || target=$PWD/$target
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
cp -a Cargo.toml Cargo.lock src crates examples "$tree"
mkdir "$tree/benchmark"
cp -a benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$tree/benchmark"
cd "$tree"

# `pub(in crate)` means `pub(crate)`; the spelling marks what was narrowed
# here, so only those items are ever made `pub` again.
narrowed='pub\(in crate\) ((const )?fn |const [A-Z_]|[a-z_][a-z0-9_]*:)'
find crates/*/src -name '*.rs' -not -path '*/src/bin/*' -exec sed -E -i \
  '0,/^#\[cfg\(test\)\]/ s/^([[:space:]]*)pub ((const )?fn |const [A-Z_]|[a-z_][a-z0-9_]*:)/\1pub(in crate) \2/' {} +

check() {
  CARGO_TARGET_DIR=$target cargo check --offline --quiet --keep-going "$@" 2>&1 || true
}

# Prints `path:line` of the narrowed item a `pub use` at `path line col`
# re-exports: rustc points at the import (`a::b::name`, or `name` inside
# `a::{..}`), whose module path is resolved from the file's module to a
# file that holds the item at its top level.
reexported() {
  local file=$1 line=$2 col=$3 name=$4 path dir seg
  path=$(awk -v line="$line" -v col="$col" '
    /^ *pub use / { text = "" }
    FNR < line { text = text $0; next }
    {
      group = text substr($0, 1, col - 1)
      sub(/^ *pub use /, "", group)
      sub(/\{.*/, "", group)
      item = substr($0, col)
      sub(/[,;}].*/, "", item)
      print group item
      exit
    }
  ' "$file" | sed -E 's/ //g; s/(::)?[A-Za-z0-9_]+$//')
  dir=${file%.rs}
  case ${file##*/} in lib.rs | mod.rs) dir=${file%/*} ;; esac
  for seg in ${path//::/ }; do
    case $seg in
      crate) dir=${file%%/src/*}/src ;;
      self) ;;
      super) dir=${dir%/*} ;;
      *) dir=$dir/$seg ;;
    esac
  done
  for file in "$dir.rs" "$dir/mod.rs"; do
    [ -e "$file" ] && grep -nE "^pub\(in crate\) ((const )?fn $name\b|const $name:)" "$file" |
      sed "s|^\([0-9]*\):.*|$file:\1|"
  done
  return 0
}

# Prints `path:line` of each narrowed item the privacy errors in the
# diagnostics on stdin name. A function, method or const error points at
# the definition (a `-->` or `:::` location after the use site's); a
# re-export error points at the `pub use`; an error on fields names only
# the fields and their struct, so every narrowed field of each name in a
# struct of that name is given.
named() {
  awk -v tree="$tree/" '
    /^(error|warning)/ { def = 0; uses = 0; reexport = "" }
    /^error\[E0(603|624)\]/ { def = 1 }
    /^error\[E0364\]/ { split($0, part, "`"); reexport = part[2] }
    (def || reexport != "") && /^ *(-->|:::) / {
      loc = $2
      if (index(loc, tree) == 1) loc = substr(loc, length(tree) + 1)
      sub(/^\.\.\//, "", loc)
      split(loc, at, ":")
      if (reexport != "") print "use " at[1] " " at[2] " " at[3] " " reexport
      else if (uses++ > 0) print "def " at[1] " " at[2]
      reexport = ""
    }
    /^error\[E0(616|451)\]: fields? .* of struct `[^`]+` (is|are) private/ {
      n = split($0, part, "`")
      s = part[n - 1]
      sub(/<.*/, "", s)
      sub(/.*::/, "", s)
      for (i = 2; i < n - 2; i += 2) print "field " s " " part[i]
    }
  ' | sort -u | while read -r kind a b c d; do
    case $kind in
      def) echo "$a:$b" ;;
      use) reexported "$a" "$b" "$c" "$d" ;;
      field) find crates/*/src -name '*.rs' -exec awk -v s="$a" -v f="$b" '
          FNR == 1 { inside = 0 }
          $0 ~ "^ *(pub[^ ]* )?struct " s "( |<|$)" { inside = 1; next }
          inside && /^ *\}/ { inside = 0 }
          inside && $0 ~ "^ *pub\\(in crate\\) " f ":" { print FILENAME ":" FNR }
        ' {} + ;;
    esac
  done
}

while :; do
  out=$(check --workspace --lib --bins --examples; check --locked --manifest-path benchmark/Cargo.toml)
  grep -q '^error' <<<"$out" || break
  restored=0
  while IFS=: read -r file line; do
    if sed -n "${line}p" "$file" | grep -Eq "^[[:space:]]*$narrowed"; then
      sed -i "${line}s/pub(in crate) /pub /" "$file"
      restored=$((restored + 1))
    fi
  done < <(named <<<"$out")
  if [ "$restored" -eq 0 ]; then
    echo "$out" >&2
    echo "dead_pub: the narrowed copy does not build, and no error names a narrowed item" >&2
    exit 1
  fi
done

# Each `dead_code` warning underlines the name of every item it covers:
# the name is read off the source line above each `^` marker. Only
# narrowed items are printed; a private item the lint flags is reached
# only through one of them.
check --workspace --lib --bins --examples | re="^ *[0-9]+ [|] *$narrowed" awk '
  /^(error|warning)/ { dead = /^warning: .* never (used|read|constructed)/; file = "" }
  !dead { next }
  /^ *--> / { file = $2; sub(/:[0-9]+:[0-9]+$/, "", file) }
  match($0, /^ *[0-9]+ \| /) {
    split($0, head, "|")
    at = head[1] + 0
    text = $0
    next
  }
  text ~ ENVIRON["re"] && match($0, /^ *\| *\^+/) {
    start = index($0, "^")
    n = match(substr($0, start), /\^+/) ? RLENGTH : 0
    print file ":" at " " substr(text, start, n)
  }
' | sort -t: -k1,1 -k2,2n | uniq
