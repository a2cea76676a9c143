#!/usr/bin/env bash
# Link gate, run by CI from the repository root:
#
#   scripts/check_linked.sh [BUILD_DIR]        (default: build-linked)
#
# Configures and builds its own Debug tree in BUILD_DIR (tests off, examples
# on) with -ffunction-sections and -Wl,--gc-sections: every
# function sits in its own section, the linker drops each section no
# binary reaches, and -O0 inlines nothing, so a function the tools call
# keeps its symbol in the binary that calls it.  Every strong text symbol
# (nm type T) of libleq.a must then be defined by at least one shipped
# binary: `leq`, `leq_fuzz`, `leq_bench_run` or a `leq_example_*`.  A symbol that all of them drop is library code no tool
# runs; it fails here, named with its source file.  A module nobody links
# has every symbol dropped, so it fails too.  Weak symbols (nm types W and
# V: inline functions, template instantiations) do not count.
#
# The functions below are kept although no tool calls them, because tests
# use them as references or to build their inputs.  Each entry is a
# qualified name without its parameter list, then the reason.
#
# Exit 0 when every strong symbol is linked, 1 when some is not, 2 when the
# build fails.
set -euo pipefail

kept_for_tests=(
  "leq::bdd_manager::set_var_order  test_bdd_oracle runs a shuffled order"
  "leq::bdd_manager::cache_clear  set_var_order empties the cache"
  "leq::bdd_manager::check_consistency  tests assert the manager's invariants"
  "leq::bdd_manager::ite  tests check ite_rec (permute's reorder path) and rebuild the reference split with it"
  "leq::bdd::leq  tests assert containment of BDDs"
  "leq::bdd::implies  tests assert implications between BDDs"
  "leq::accepts  nfa_props checks complement and product on single words"
  "leq::sample_accepted_words  nfa_props draws the words it checks"
  "leq::state_cube  tests build reachable-state sets from latch values"
  "leq::make_random_net  tests draw random networks"
)

build=${1:-build-linked}
fail() { echo "check_linked: $*" >&2; exit 2; }

cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Debug -DBUILD_TESTING=OFF \
  -DLEQ_BUILD_EXAMPLES=ON -DLEQ_HEADER_SELFCHECK=OFF \
  -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > /dev/null ||
  fail "cannot configure $build"
cmake --build "$build" -j "$(nproc)" > /dev/null ||
  fail "cannot build $build"

lib="$build/libleq.a"
[ -f "$lib" ] || fail "no $lib"
shopt -s nullglob
bins=("$build/leq" "$build/leq_fuzz" "$build/leq_bench_run"
      "$build"/leq_example_*)
shopt -u nullglob
for bin in "$build/leq" "$build/leq_fuzz" "$build/leq_bench_run"; do
  [ -x "$bin" ] || fail "no $bin"
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# every symbol the binaries define, whatever its type
nm --defined-only "${bins[@]}" 2>/dev/null |
  awk 'NF >= 3 { print $3 }' | sort -u > "$tmp/linked"
# "member symbol" for every strong text symbol of every archive member
nm --defined-only "$lib" 2>/dev/null |
  awk 'NF == 1 && /:$/ { member = substr($1, 1, length($1) - 1); next }
       NF == 3 && $2 == "T" { print member, $3 }' > "$tmp/strong"
for entry in "${kept_for_tests[@]}"; do
  echo "${entry%%  *}"
done > "$tmp/kept"

status=0
count=0
: > "$tmp/kept_used"
while read -r member symbol; do
  count=$((count + 1))
  if grep -qxF "$symbol" "$tmp/linked"; then continue; fi
  name=$(echo "$symbol" | c++filt)
  if grep -qxF "${name%%(*}" "$tmp/kept"; then
    echo "${name%%(*}" >> "$tmp/kept_used"
    continue
  fi
  source=$(find src -name "${member%.o}" | head -n 1)
  echo "check_linked: ${source:-$member}: $name: no tool links it" >&2
  status=1
done < "$tmp/strong"
# an entry whose function a tool now links, or that is gone, is stale
while read -r kept; do
  if grep -qxF "$kept" "$tmp/kept_used"; then continue; fi
  echo "check_linked: kept_for_tests: $kept: no dropped symbol has" \
       "this name; delete the entry" >&2
  status=1
done < "$tmp/kept"

if [ $status -eq 0 ]; then
  echo "check_linked: all $count strong symbols of $lib are linked" \
       "or kept for tests"
else
  echo "check_linked: tools: leq, leq_fuzz, leq_bench_run, leq_example_*" >&2
fi
exit $status
