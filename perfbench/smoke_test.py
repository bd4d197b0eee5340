#!/usr/bin/env python3
"""Self-test of the benchmark, on a tiny load.

    python3 perfbench/smoke_test.py

Checks that BENCHMARK.json keeps to its format, that every workload prints
every end-to-end metric (untraced) and every per-layer metric (traced) with
the unit BENCHMARK.json gives it, that a deliberately broken output or
golden file fails the correctness gate with a non-zero exit, and that the
benchmark refuses to run without the sources beside it. Exit status 0 when
every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print("[%s] %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def check_format(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(2 <= len(bench["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in bench["workloads"]), "workloads are well formed")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "names are valid and used once")
    check(all(set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
              and m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
              for m in bench["end_to_end"]), "end-to-end metrics are well formed")
    check(all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
              and m["better"] in ("higher", "lower") for m in bench["per_layer"]),
          "per-layer metrics are well formed")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s is there, in s, lower is better, with the largest bound")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_format(bench)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for workload in (w["name"] for w in bench["workloads"]):
            code, result = run(workload, trace)
            ok = code == 0 and result is not None and result["correct"] and \
                result["failed"] == 0 and result["attempted"] >= 1 and \
                {n: m["unit"] for n, m in result["metrics"].items()} == expected
            check(ok, "%s --trace %d prints every %s metric with its unit"
                  % (workload, trace, key))

    code, result = run("chain", 0, "--corrupt", "golden")
    check(code != 0 and result is not None and not result["correct"],
          "a broken golden comparison fails the correctness gate")
    for workload in (w["name"] for w in bench["workloads"]):
        code, result = run(workload, 0, "--corrupt", "output")
        check(code != 0 and result is not None and not result["correct"],
              "a broken %s output fails the output check" % workload)

    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run("chain", 0, cwd=bare)
    check(code != 0 and result is None, "without the sources beside it the benchmark fails")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
