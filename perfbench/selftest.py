#!/usr/bin/env python3
"""Self-test of the benchmark at reduced problem sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
  * --trace 0 prints every end-to-end metric of BENCHMARK.json with its
    unit, and --trace 1 every per-layer metric;
  * a deliberately corrupted answer is counted as failed and left out of
    the timed medians;
  * two separate traced runs repeat every count exactly (kernel-cache
    compiles, kernel launches, iterations, distsim halo bytes/messages);
    the cold workload compiles and the warm ones do not.
Finally, run.py in a directory holding only BENCHMARK.json and perfbench/
must exit non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def bench(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(name, trace):
    rc, lines = bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--small")
    check(rc == 0 and bool(lines), f"{name} --trace {trace} exits 0 with output")
    return json.loads(lines[-1]) if lines else {"metrics": {}}


def check_metrics(name, result, wanted):
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        check(got is not None and got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float)),
              f"{name}: {m['name']} printed in {m['unit']}")
    check(set(metrics) == {m["name"] for m in wanted}, f"{name}: no unlisted metrics")
    check(result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) >= 1, f"{name}: correct, none failed")


def check_corruption(name):
    runner = run.Runner(name, seed=3, small=True)
    runner.prepare()
    recs, metrics = run.measure(runner, seconds=1.0, corrupt_first=True, overrun=math.inf)
    good = [r for r in recs if r["ok"]]
    check(not recs[0]["ok"] and len(good) == len(recs) - 1 >= 1,
          f"{name}: corrupted answer counted as failed")
    expected = run.e2e_metrics(good)
    check(all(metrics[k]["value"] == expected[k] for k in expected),
          f"{name}: corrupted repetition left out of the medians")


def check_counts(name, first, second):
    for key in run.EXACT_COUNTS:
        a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
        check(a == b, f"{name}: {key} repeats exactly ({a} vs {b})")
    compiles = first["metrics"]["jit.cache.compiles"]["value"]
    if run.WORKLOADS[name]["cold"]:
        check(compiles > 0, f"{name}: cold cache compiles ({compiles})")
    else:
        check(compiles == 0, f"{name}: warm cache compiles nothing ({compiles})")


def check_no_sources():
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench(bare, "--workload", "mgcg_128", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and not any(line.startswith("{") for line in lines),
          "without library sources: non-zero exit, no result")


def main():
    run.build()
    for name in SPEC["workloads"]:
        name = name["name"]
        check_metrics(name, result_of(name, 0), SPEC["end_to_end"])
        traced = result_of(name, 1)
        check_metrics(name + " traced", traced, SPEC["per_layer"])
        check_counts(name, traced, result_of(name, 1))
        check_corruption(name)
    check_no_sources()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
