#!/usr/bin/env bash
# Docs-drift gate, run by the CI docs job from the repository root:
#
#   1. extract the README quickstart block (between the quickstart:begin /
#      quickstart:end markers) and execute it verbatim with bash -e — a
#      renamed flag, moved example, or broken subcommand fails here;
#   2. check every relative markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   3. check every markdown file a source file under src/ bench/ tests/ tools/
#      examples/ scripts/ names (comments and strings alike) resolves: as a
#      path from the repository root or from the naming file's directory,
#      or, for a bare file name, as the name of a markdown file somewhere
#      in the repository — a comment citing a document that was never
#      written or has moved fails here;
#   4. check the README's sample JSON record carries exactly the `options`
#      keys, in order, that a real `leq solve` record carries — a removed
#      or added flag echo fails here.
#
# Usage: scripts/check_docs.sh   (expects ./build/leq to exist)
set -euo pipefail

fail() { echo "check_docs: $*" >&2; exit 1; }

[ -x build/leq ] || fail "./build/leq not built (cmake --build build first)"

# ---- 1. run the quickstart verbatim -----------------------------------------
quickstart=$(awk '/<!-- quickstart:begin -->/,/<!-- quickstart:end -->/' \
                 README.md | sed -n '/^```sh$/,/^```$/p' | sed '1d;$d')
[ -n "$quickstart" ] || fail "no quickstart block found in README.md"

echo "== running README quickstart =="
printf '%s\n' "$quickstart"
bash -euo pipefail -c "$quickstart" ||
    fail "README quickstart drifted from the built leq binary"
echo "== quickstart ok =="

# ---- 2. markdown link check -------------------------------------------------
status=0
for doc in README.md docs/*.md; do
    dir=$(dirname "$doc")
    # markdown links, minus web URLs and intra-page anchors
    while IFS= read -r target; do
        # strip a trailing #anchor
        file=${target%%#*}
        [ -n "$file" ] || continue
        if [ ! -e "$dir/$file" ]; then
            echo "check_docs: $doc links to missing file '$target'" >&2
            status=1
        fi
    done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' |
             grep -v '^https\?://' || true)
done
[ "$status" -eq 0 ] || fail "broken markdown links"
echo "== links ok =="

# ---- 3. markdown files named in source files ------------------------------
md_names=$(find . -name '*.md' -not -path './.git/*' -not -path './build*' \
               -not -path './.bench_build/*' -exec basename {} \; | sort -u)
status=0
while IFS=: read -r src line ref; do
    [ -n "$ref" ] || continue
    if [ -e "$ref" ] || [ -e "$(dirname "$src")/$ref" ]; then continue; fi
    if [ "${ref#*/}" = "$ref" ] && grep -qxF "$ref" <<<"$md_names"; then
        continue
    fi
    echo "check_docs: $src:$line names missing file '$ref'" >&2
    status=1
done < <(grep -rnoE '[A-Za-z0-9_./-]*[A-Za-z0-9_-][.]md\b' \
             src bench tests tools examples scripts || true)
[ "$status" -eq 0 ] || fail "source files name missing markdown files"
echo "== source doc references ok =="

# ---- 4. README sample record vs a real record -------------------------------
sample=$(awk '/^```json$/{on=1; next} on && /^```$/{exit} on' README.md)
[ -n "$sample" ] || fail "no sample JSON record found in README.md"
real=$(./build/leq solve examples/eqn/passthrough_f.kiss \
           examples/eqn/passthrough_s.kiss)
SAMPLE="$sample" REAL="$real" python3 - <<'PY' ||
import json, os, sys
sample = list(json.loads(os.environ["SAMPLE"])["options"])
real = list(json.loads(os.environ["REAL"])["options"])
if sample != real:
    print(f"check_docs: README sample options keys {sample}\n"
          f"            real record options keys  {real}", file=sys.stderr)
    sys.exit(1)
PY
    fail "README sample record drifted from the real leq record"
echo "== sample record ok =="
