#!/usr/bin/env python3
"""End-to-end solver benchmark: wall time from building the solver to a
verified answer, on the Fig. 9 HPGMG solve (warm and cold kernel cache),
MG-preconditioned CG and distsim GSRB.

    python3 perfbench/run.py --workload gmg_256 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first call builds the driver
(perfbench/CMakeLists.txt) into .bench_build/. Every repetition is a fresh
driver process (set up, solve, verify); a run repeats until --seconds are
spent and reports medians over the repetitions whose answer verified (the
solve from the lower quartile of the pooled per-solve or per-sweep
samples). A repetition whose answer fails verification counts as failed
and is not timed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
SNOWFLAKE_TRACE-traced repetitions, prints the stage table of the traced
ones (stages.py) and reports the per-layer metrics, including the tracing
overhead. Counts must repeat exactly across traced repetitions.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stages  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "perfbench"
DRIVER = CMAKE_DIR / "perfbench_e2e"
WORK_DIR = BUILD_DIR / "work"
WARM_CACHE = BUILD_DIR / "kernel-cache"

# kind: driver sub-command; args: driver arguments; cold: empty kernel
# cache per repetition; min_reps: repetitions a run makes even past
# --seconds, up to OVERRUN x --seconds.
WORKLOADS = {
    "gmg_256": {"kind": "gmg", "args": ["--n=256", "--cap=20"],
                "small": ["--n=32", "--cap=20"], "cold": False, "min_reps": 3},
    "gmg_64_cold": {"kind": "gmg", "args": ["--n=64", "--cap=20", "--solves=9"],
                    "small": ["--n=8", "--cap=20", "--solves=3"], "cold": True, "min_reps": 2},
    "mgcg_128": {"kind": "mgcg", "args": ["--n=128", "--cap=40", "--solves=4"],
                 "small": ["--n=32", "--cap=40", "--solves=2"], "cold": False, "min_reps": 3},
    "distsim_gsrb_128": {"kind": "distsim", "args": ["--n=128", "--sweeps=60"],
                         "small": ["--n=32", "--sweeps=4"], "cold": False, "min_reps": 3},
}

END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "dof_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics and their units; stages.layer_metrics computes most.
PER_LAYER = {
    "codegen.validate_s": "s", "codegen.schedule_s": "s", "codegen.lower_s": "s",
    "codegen.transforms_s": "s", "codegen.verify_plan_s": "s", "codegen.emit_s": "s",
    "codegen.groups": "count",
    "jit.cache.compiles": "count", "jit.cache.disk_hits": "count",
    "jit.cache.memory_hits": "count", "jit.cache.hit_ratio": "ratio",
    "jit.cc_s": "s", "jit.dlopen_s": "s", "jit.cache_lookup_s": "s",
    "kernel.runs": "count", "kernel.run_s": "s", "kernel.computed_bytes": "B",
    "kernel.computed_gbps": "GB/s", "backend.compile_self_s": "s",
    "mg.smooth_s": "s", "mg.residual_s": "s", "mg.restrict_s": "s", "mg.interp_s": "s",
    "mg.vcycle_self_s": "s", "mg.coarse_levels_s": "s", "mg.setup_untraced_s": "s",
    "krylov.iterations": "count", "krylov.apply_s": "s", "krylov.reduce_s": "s",
    "krylov.vector_s": "s", "krylov.precond_s": "s", "krylov.host_s": "s",
    "distsim.halo_bytes": "B", "distsim.halo_messages": "count",
    "distsim.compute_s": "s", "distsim.boundary_s": "s", "distsim.send_s": "s",
    "distsim.wait_s": "s", "distsim.stall_s": "s", "distsim.critical_comm_share": "ratio",
    "untraced_s": "s", "iterations": "count", "failed_frac": "ratio",
    "trace.overhead_pct": "%",
}

# Counts that must repeat exactly across traced repetitions.
EXACT_COUNTS = ["jit.cache.compiles", "jit.cache.disk_hits", "jit.cache.memory_hits",
                "codegen.groups", "kernel.runs", "iterations",
                "distsim.halo_bytes", "distsim.halo_messages"]

# Settings that would move work onto or off the measured path.
SCRUBBED_ENV = ["SNOWFLAKE_TRACE", "SNOWFLAKE_METRICS", "SNOWFLAKE_PERF_DB",
                "SNOWFLAKE_TUNE_DB", "SNOWFLAKE_TUNE_REFINE_AT_EXIT",
                "SNOWFLAKE_CACHE_MAX_BYTES", "SNOWFLAKE_LOG", "SNOWFLAKE_SOCKET"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; exit 2 on failure."""
    if not (ROOT / "src").is_dir():
        log(f"perfbench: no library sources at {ROOT / 'src'}; run from a source checkout")
        sys.exit(2)
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", "4", "--target", "perfbench_e2e"])
    with open(build_log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"perfbench: build failed: {' '.join(cmd)} (see {build_log})")
                sys.exit(2)


def child_env(cache_dir, trace_file=None):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["SNOWFLAKE_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(WORK_DIR)
    if trace_file is not None:
        env["SNOWFLAKE_TRACE"] = str(trace_file)
    return env


def run_driver(args, cache_dir, trace_file=None, timeout=170):
    """Run the driver once; returns its JSON record (None on a crash)."""
    proc = subprocess.run([str(DRIVER)] + args, env=child_env(cache_dir, trace_file),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        log(f"perfbench: driver {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Runner:
    def __init__(self, name, seed, small):
        spec = WORKLOADS[name]
        self.name = name
        self.kind = spec["kind"]
        self.cold = spec["cold"]
        self.args = [spec["kind"]] + spec["small" if small else "args"] + [f"--seed={seed}"]
        self.min_reps = spec["min_reps"]
        self.reps = 0

    def prepare(self):
        """Untimed set-up: fill the warm kernel cache once per checkout, or
        bring the compiler into memory for the cold workload."""
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        if self.cold:
            scratch = WORK_DIR / "warm-cc"
            shutil.rmtree(scratch, ignore_errors=True)
            run_driver(["warm-cc"], scratch)
            shutil.rmtree(scratch, ignore_errors=True)
            return
        # The marker names the driver build that filled the cache, so a
        # rebuilt driver (changed sources) fills it again.
        marker = WARM_CACHE / (".filled-" + "-".join(self.args[:-1]).replace("=", ""))
        build_id = str(DRIVER.stat().st_mtime_ns)
        if not marker.exists() or marker.read_text() != build_id:
            WARM_CACHE.mkdir(parents=True, exist_ok=True)
            if run_driver(self.args, WARM_CACHE) is not None:
                marker.write_text(build_id)

    def rep(self, trace_file=None, corrupt=False):
        """One repetition; returns its record with "ok" and "kind"."""
        self.reps += 1
        args = self.args + (["--corrupt"] if corrupt else [])
        cache = WARM_CACHE
        if self.cold:
            cache = WORK_DIR / f"cold-cache-{os.getpid()}-{self.reps}"
            shutil.rmtree(cache, ignore_errors=True)
        try:
            rec = run_driver(args, cache, trace_file)
        finally:
            if self.cold:
                shutil.rmtree(cache, ignore_errors=True)
        if rec is None:
            rec = {"ok": False, "why": "driver failed"}
        rec["kind"] = self.kind
        return rec


# The longest a run may go on, as a multiple of --seconds, to reach its
# minimum number of repetitions (it stops earlier when a repetition of
# median length would end later).
OVERRUN = 1.1


def keep_going(start, seconds, durations, minimum_done, overrun):
    """Start another repetition while one of median length still ends
    within --seconds or, until the minimum is met, within overrun x
    --seconds."""
    if not durations:
        return True
    end = time.monotonic() - start + statistics.median(durations)
    return end <= seconds or (not minimum_done and end <= overrun * seconds)


def lower_quartile(values):
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def median_of(recs, key):
    return statistics.median(r[key] for r in recs)


def e2e_metrics(recs):
    """End-to-end metrics over verified repetitions. The solve samples of
    all repetitions are pooled: solve_s is units_per_solve x their lower
    quartile (one sample per solve, or per sweep on distsim), so CPU time
    the VM loses in a few sweeps or solves does not move it.
    time_to_solution_s is the median setup + solve_s + the median
    verification. Every repetition has the same dof, iteration count and
    units_per_solve."""
    samples = [s for r in recs for s in r["samples_s"]]
    solve = recs[0]["units_per_solve"] * lower_quartile(samples)
    setup = median_of(recs, "setup_s")
    return {
        "time_to_solution_s": setup + solve + median_of(recs, "verify_s"),
        "setup_s": setup,
        "solve_s": solve,
        "dof_per_s": recs[0]["dof"] * recs[0]["iterations"] / solve,
        "peak_rss_mb": median_of(recs, "peak_rss_mb"),
    }


def measure(runner, seconds, corrupt_first=False, overrun=OVERRUN):
    """Repeat until --seconds are spent; medians over verified repetitions.
    corrupt_first (self-test) corrupts the first repetition's answer."""
    recs, durations = [], []
    start = time.monotonic()
    while keep_going(start, seconds, durations, len(recs) >= runner.min_reps, overrun):
        t = time.monotonic()
        recs.append(runner.rep(corrupt=corrupt_first and not recs))
        durations.append(time.monotonic() - t)
    good = [r for r in recs if r["ok"]]
    values = e2e_metrics(good) if good else {k: 0.0 for k in END_TO_END}
    return recs, {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def measure_traced(runner, seconds):
    """Alternate untraced and traced repetitions. The exact-count check
    needs two traced ones, so the minimum holds however long it takes."""
    trace_dir = WORK_DIR / f"traces-{runner.name}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain, traced, durations = [], [], []
    start = time.monotonic()
    while keep_going(start, seconds, durations, len(plain) >= 1 and len(traced) >= 2,
                     math.inf):
        t = time.monotonic()
        if len(plain) <= len(traced):
            plain.append(runner.rep())
        else:
            path = trace_dir / f"rep{len(traced)}.json"
            rec = runner.rep(trace_file=path)
            rec["trace"] = path
            traced.append(rec)
        durations.append(time.monotonic() - t)

    layers, exact_ok = [], True
    for i, rec in enumerate(traced):
        if not rec["ok"] or not rec["trace"].exists():
            continue
        spans = stages.load_spans(rec["trace"])
        table, wall, untraced = stages.stage_table(spans)
        print(stages.format_table(f"{runner.name} traced rep {i}", table, wall, untraced))
        m = stages.layer_metrics(spans, rec)
        m["iterations"] = rec["iterations"]
        layers.append(m)
    for key in EXACT_COUNTS:
        seen = {m[key] for m in layers}
        if len(seen) > 1:
            log(f"perfbench: {key} differs between traced repetitions: {sorted(seen)}")
            exact_ok = False

    recs = plain + traced
    good_plain = [r for r in plain if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    values = {k: statistics.median(m[k] for m in layers) if layers else 0.0
              for k in PER_LAYER if k not in ("failed_frac", "trace.overhead_pct")}
    values["failed_frac"] = sum(not r["ok"] for r in recs) / len(recs)
    if good_plain and good_traced:
        base = e2e_metrics(good_plain)["time_to_solution_s"]
        traced_tts = e2e_metrics(good_traced)["time_to_solution_s"]
        values["trace.overhead_pct"] = 100.0 * (traced_tts - base) / base
    else:
        values["trace.overhead_pct"] = 0.0
    shutil.rmtree(trace_dir, ignore_errors=True)
    return recs, {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}, exact_ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced problem sizes (self-test)")
    opts = ap.parse_args(argv)

    build()
    runner = Runner(opts.workload, opts.seed, opts.small)
    runner.prepare()
    exact_ok = True
    if opts.trace:
        recs, metrics, exact_ok = measure_traced(runner, opts.seconds)
    else:
        recs, metrics = measure(runner, opts.seconds)
    for r in recs:
        if not r["ok"]:
            log(f"perfbench: {opts.workload} repetition failed: {r.get('why', '')}")
    failed = sum(not r["ok"] for r in recs)
    result = {"correct": failed == 0 and exact_ok, "attempted": len(recs),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
