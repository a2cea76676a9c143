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
#      or added flag echo fails here;
#   5. check every `tests/FILE.cpp (NAME)` citation in the "Where things are
#      checked" table of docs/ARCHITECTURE.md: FILE must exist and define a
#      gtest suite or test called NAME (a trailing `...` matches a prefix) —
#      a renamed or deleted test fails here.
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

# ---- 5. tests cited in ARCHITECTURE's "Where things are checked" table -------
python3 - <<'PY' ||
import re, sys
doc = "docs/ARCHITECTURE.md"
text = open(doc, encoding="utf-8").read()
start = text.find("\n## Where things are checked")
if start < 0:
    sys.exit(f"check_docs: {doc} has no 'Where things are checked' section")
end = text.find("\n## ", start + 1)
section = text[start:] if end < 0 else text[start:end]
test_decl = re.compile(r"\bTEST(?:_F|_P)?\s*\(\s*(\w+)\s*,\s*(\w+)")
cite = re.compile(r"(tests/[\w.-]+\.cpp)(?:\s*\(([^)]*)\))?")
status = 0
for line in section.splitlines():
    cells = line.split("|")
    if len(cells) < 4 or set(cells[1].strip()) <= set("- "):
        continue
    for path, name in cite.findall(cells[2]):
        try:
            source = open(path, encoding="utf-8").read()
        except OSError:
            print(f"check_docs: {doc} cites missing file '{path}'",
                  file=sys.stderr)
            status = 1
            continue
        if not name:
            continue
        if not re.fullmatch(r"\w+(\.\.\.)?", name):
            print(f"check_docs: {doc} cites '{path} ({name})', which is "
                  "not a test name", file=sys.stderr)
            status = 1
            continue
        names = {n for decl in test_decl.findall(source) for n in decl}
        prefix = name.endswith("...")
        stem = name[:-3] if prefix else name
        if not any(n.startswith(stem) if prefix else n == stem
                   for n in names):
            print(f"check_docs: {doc} cites '{path} ({name})', but {path} "
                  "defines no such TEST suite or test", file=sys.stderr)
            status = 1
sys.exit(status)
PY
    fail "ARCHITECTURE's check table cites missing tests"
echo "== cited tests ok =="
