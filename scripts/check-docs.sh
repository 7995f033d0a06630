#!/usr/bin/env sh
# Docs gate, run by CI and runnable locally: every internal package
# must carry a doc.go (so godoc has a package overview to show), every
# relative markdown link in README.md and docs/ must resolve, and every
# test, fuzz target or benchmark the docs or CI name must exist.
set -eu

cd "$(dirname "$0")/.."
fail=0

for d in internal/*/; do
    if [ ! -f "${d}doc.go" ]; then
        echo "docs gate: ${d} has no doc.go (package overview required)"
        fail=1
    fi
done

# Relative-link check: extract [text](target) targets, drop external
# URLs and pure anchors, strip #fragments, resolve against the linking
# file's directory.
for f in README.md docs/*.md; do
    links=$(grep -o '\[[^]]*\]([^)#][^)]*)' "$f" | sed 's/.*(\(.*\))/\1/' || true)
    for l in $links; do
        case "$l" in
        http://*|https://*|mailto:*) continue ;;
        esac
        target=${l%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$(dirname "$f")/$target" ] && [ ! -e "$target" ]; then
            echo "docs gate: $f links to missing file: $target"
            fail=1
        fi
    done
done

# Test-name check: a Test…, Fuzz… or Benchmark… identifier named in
# README.md, docs/, the verify skill or CI must begin the name of a
# function in some _test.go file. Prefixes count, so a -run alternation
# such as 'TestHedge|TestProbe' stays valid.
funcs=$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
named=$(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' README.md docs/*.md \
    .github/workflows/ci.yml $(ls .claude/skills/verify/SKILL.md 2>/dev/null) | sort -u)
for name in $named; do
    if ! printf '%s\n' "$funcs" | grep -q "^$name"; then
        echo "docs gate: no test function starts with $name"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs gate: FAILED"
    exit 1
fi
echo "docs gate: ok"
