#!/usr/bin/env bash
# Link gate, run by CI after the build, from the repository root:
#
#   scripts/check_linked.sh [BUILD_DIR]        (default: build)
#
# Every object in BUILD_DIR/libleq.a must define at least one strong text
# symbol (nm type T) that one of the shipped binaries also defines: `leq`,
# `leq_fuzz`, `leq_bench_run` or a `leq_example_*`.  The static link pulls
# an object in whole or not at all, so an object with no such symbol is
# library code that no tool runs; it fails here, named by its source file.
# Weak symbols (nm types W and V: inline functions, template
# instantiations) do not count, because every object shares some of them
# with the binaries whether it is linked or not.
#
# Exit 0 when every object is linked, 1 when some is not, 2 when the build
# lacks a binary or the library.
set -euo pipefail

build=${1:-build}
lib="$build/libleq.a"
fail() { echo "check_linked: $*" >&2; exit 2; }

[ -f "$lib" ] || fail "no $lib (build the library first)"
bins=("$build/leq" "$build/leq_fuzz" "$build/leq_bench_run")
for bin in "${bins[@]}"; do
  [ -x "$bin" ] || fail "no $bin (build all targets first)"
done
shopt -s nullglob
examples=("$build"/leq_example_*)
shopt -u nullglob
[ ${#examples[@]} -gt 0 ] ||
  fail "no $build/leq_example_* (configure with LEQ_BUILD_EXAMPLES=ON)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# every symbol the binaries define, whatever its type
nm --defined-only "${bins[@]}" "${examples[@]}" 2>/dev/null |
  awk 'NF == 3 { print $3 }' | sort -u > "$tmp/linked"
# "member symbol" for every strong text symbol of every archive member
nm --defined-only "$lib" 2>/dev/null |
  awk 'NF == 1 && /:$/ { member = substr($1, 1, length($1) - 1); next }
       NF == 3 && $2 == "T" { print member, $3 }' > "$tmp/strong"
# the members with at least one of those symbols in a binary
awk 'NR == FNR { linked[$1] = 1; next }
     ($2 in linked) { print $1 }' "$tmp/linked" "$tmp/strong" |
  sort -u > "$tmp/used"

status=0
while read -r member; do
  if grep -qxF "$member" "$tmp/used"; then continue; fi
  source=$(find src -name "${member%.o}" | head -n 1)
  echo "check_linked: ${source:-$member}: no tool links it" \
       "(leq, leq_fuzz, leq_bench_run, leq_example_*)" >&2
  status=1
done < <(ar t "$lib")

if [ $status -eq 0 ]; then
  echo "check_linked: all $(ar t "$lib" | wc -l) objects of $lib are linked"
fi
exit $status
