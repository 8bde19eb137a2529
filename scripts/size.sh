#!/usr/bin/env bash
# size.sh — the code-size numbers ROADMAP aim 2 tracks beside the perf
# numbers: non-test Go lines, per-binary flag count, exported symbols.
# Prints one `name value` pair per line; CI echoes it, and a change that
# claims to simplify compares its output at the parent commit and at HEAD.
#
# bench/ is its own module (the benchmark harness) and is excluded, as are
# _test.go files. Lines are raw `wc -l` lines, comments and blanks
# included. A flag is one `  -name` entry of the binary's -h output.
# Exported symbols are package-level exported func, method, type, var and
# const declarations (one per declaring line; members of grouped
# declarations and struct fields are not counted).
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files -co --exclude-standard '*.go' | grep -v '^bench/' | grep -v '_test\.go$')

echo "non_test_go_loc $(echo "$files" | xargs cat | wc -l)"
for bin in dcserved dcbench; do
  # -h exits 2 (dcbench) or 0; either way the defaults are on stderr.
  n=$(go run "./cmd/$bin" -h 2>&1 | grep -cE '^  -[a-z]' || true)
  echo "${bin}_flags $n"
done
echo "exported_symbols $(echo "$files" | xargs cat | grep -cE '^(func|type|var|const) (\([^)]*\) )?[A-Z]')"
