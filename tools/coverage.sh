#!/usr/bin/env sh
# Functions under src/ that no test executes.
#
#   tools/coverage.sh
#
# Builds an instrumented tree in build-cov/ (-O0 --coverage), runs the whole
# ctest suite there, then prints one line per function defined under src/
# whose execution count is zero, as `src/<file>:<line> <function>`, followed
# by a count. Counts are summed over every object of the tree (the library,
# tests, tools, benches and examples), so a function defined in a src/ header
# counts as executed wherever a test ran it, even when only a test or tool
# calls it, and over every instantiation of a template or lambda defined at
# one place. Takes no flags; the exit status is nonzero when a test fails.
set -eu

cd "$(dirname "$0")/.."

jobs=$(nproc)
cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" >/dev/null
cmake --build build-cov -j "$jobs" >/dev/null
find build-cov -name '*.gcda' -exec rm -f {} +
(cd build-cov && ctest -j "$jobs" --output-on-failure >/dev/null)

find build-cov -name '*.gcda' | while read -r gcda; do
  gcov --json-format --stdout --object-directory "$(dirname "$gcda")" "$gcda" 2>/dev/null
done | python3 -c '
import json, os, sys

src = os.path.realpath("src") + os.sep
counts = {}  # (file, line, column) -> executions summed over every object
names = {}  # (file, line, column) -> the shortest demangled name seen there
for line in sys.stdin:
    line = line.strip()
    if not line.startswith("{"):
        continue
    report = json.loads(line)
    cwd = report.get("current_working_directory", "")
    for entry in report["files"]:
        path = os.path.realpath(os.path.join(cwd, entry["file"]))
        if not path.startswith(src):
            continue
        for fn in entry.get("functions", []):
            key = (os.path.relpath(path), fn["start_line"], fn["start_column"])
            counts[key] = counts.get(key, 0) + fn["execution_count"]
            name = fn["demangled_name"]
            if key not in names or len(name) < len(names[key]):
                names[key] = name

unexecuted = sorted(key for key, count in counts.items() if count == 0)
for path, line, column in unexecuted:
    print(f"{path}:{line} {names[(path, line, column)]}")
print(f"{len(unexecuted)} of {len(counts)} functions under src/ never executed")
'
