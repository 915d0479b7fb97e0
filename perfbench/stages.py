"""Stage aggregation over a Chrome trace written by SNOWFLAKE_TRACE.

Each span is mapped to a stage (``codegen.emit``, ``jit.cc``, ``kernel.run``,
``mg.smooth``, ...). Per stage the aggregator sums the inclusive duration,
the self time (duration minus the direct children on the same thread;
Chrome "X" events nest by time per thread) and the span count. The
``untraced`` remainder is the self time of the benchmark's own ``bench:*``
spans: main-thread time inside a repetition that no program span covers.

``layer_metrics`` turns one traced repetition into the per-layer metrics
of BENCHMARK.json; run.py imports this module for its traced runs.
"""

import json
import re

# (pattern, stage); first match wins. Spans matching nothing are ignored.
STAGE_PATTERNS = [
    (r"ir:validate$", "codegen.validate"),
    (r"analysis:schedule$", "codegen.schedule"),
    (r"codegen:lower$", "codegen.lower"),
    (r"codegen:(transforms|addr)$", "codegen.transforms"),
    (r"codegen:verify_plan$", "codegen.verify_plan"),
    (r"codegen:emit$", "codegen.emit"),
    (r"backend:compile:", "backend.compile"),
    (r"jit:cache$", "jit.cache"),
    (r"jit:cc$", "jit.cc"),
    (r"jit:toolchain$", "jit.toolchain"),
    (r"jit:dlopen$", "jit.dlopen"),
    (r"run:", "kernel.run"),
    (r"mg:smooth(_fused)?:", "mg.smooth"),
    (r"mg:residual:", "mg.residual"),
    (r"mg:restrict:", "mg.restrict"),
    (r"mg:interp:", "mg.interp"),
    (r"mg:vcycle:", "mg.vcycle"),
    (r"mg:(solve|fcycle)$", "mg.driver"),
    (r"krylov:solve:", "krylov.solve"),
    (r"krylov:precond$", "krylov.precond"),
    (r"distsim:r\d+:w\d+:compute$", "distsim.compute"),
    (r"distsim:r\d+:w\d+:boundary$", "distsim.boundary"),
    (r"distsim:r\d+:w\d+:send$", "distsim.send"),
    (r"distsim:r\d+:w\d+:wait$", "distsim.wait"),
    (r"bench:rep$", "bench.rep"),
    (r"bench:(setup|solve|verify)$", "bench.phase"),
]
_COMPILED = [(re.compile(p), s) for p, s in STAGE_PATTERNS]


def stage_of(name):
    for pattern, stage in _COMPILED:
        if pattern.match(name):
            return stage
    return None


def load_spans(path):
    """Spans of a trace file as dicts with name, stage, ts, dur (us), tid,
    args, parent/children (nesting on the same thread), self (self time)
    and outermost (no enclosing span of the same stage)."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans = [
        {
            "name": e["name"],
            "stage": stage_of(e["name"]),
            "ts": float(e["ts"]),
            "dur": float(e["dur"]),
            "tid": e.get("tid", 0),
            "args": e.get("args", {}),
            "children": [],
            "parent": None,
        }
        for e in events
        if e.get("ph") == "X"
    ]
    # Nest by time per thread: sort by start, longest first on ties.
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s["tid"], []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in group:
            while stack and s["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            s["parent"] = stack[-1] if stack else None
            if stack:
                stack[-1]["children"].append(s)
            stack.append(s)
    for s in spans:
        s["self"] = max(0.0, s["dur"] - sum(c["dur"] for c in s["children"]))
        # Inclusive time counts once per stage: a span nested in a span of
        # its own stage (mg:vcycle:L1 in mg:vcycle:L0) adds only self time.
        outer = s["parent"]
        while outer is not None and outer["stage"] != s["stage"]:
            outer = outer["parent"]
        s["outermost"] = outer is None
    return spans


def stage_table(spans):
    """{stage: {"sum_s", "self_s", "count"}} plus the rep wall time and the
    untraced remainder."""
    table = {}
    for s in spans:
        if s["stage"] is None:
            continue
        row = table.setdefault(s["stage"], {"sum_s": 0.0, "self_s": 0.0, "count": 0})
        if s["outermost"]:
            row["sum_s"] += s["dur"] / 1e6
        row["self_s"] += s["self"] / 1e6
        row["count"] += 1
    wall = sum(s["dur"] for s in spans if s["stage"] == "bench.rep") / 1e6
    untraced = sum(s["self"] for s in spans if s["stage"] in ("bench.rep", "bench.phase")) / 1e6
    return table, wall, untraced


def format_table(title, table, wall, untraced):
    lines = [f"== stages: {title} (wall {wall:.4f} s) ==",
             f"{'stage':<22}{'sum_s':>12}{'self_s':>12}{'count':>9}{'%wall':>8}"]
    for stage in sorted(table):
        row = table[stage]
        pct = 100.0 * row["sum_s"] / wall if wall > 0 else 0.0
        lines.append(f"{stage:<22}{row['sum_s']:>12.5f}{row['self_s']:>12.5f}"
                     f"{row['count']:>9d}{pct:>8.1f}")
    pct = 100.0 * untraced / wall if wall > 0 else 0.0
    lines.append(f"{'untraced':<22}{untraced:>12.5f}{untraced:>12.5f}{'':>9}{pct:>8.1f}")
    return "\n".join(lines)


def _krylov_class(name):
    """Kernel class of a run span directly under krylov:solve."""
    label = name.split(":", 1)[1]
    if label.startswith("dot") or "dot_" in label:
        return "reduce"
    # A p is the boundary group plus vc_apply; its label starts with the
    # boundary stencils.
    if "apply" in label or label.startswith("dirichlet"):
        return "apply"
    return "vector"


def layer_metrics(spans, rep):
    """Per-layer metrics of one traced repetition. `rep` is the driver's
    JSON record of that repetition (iterations, halo counts, stall)."""
    table, wall, untraced = stage_table(spans)

    def total(stage, key="sum_s"):
        return table.get(stage, {}).get(key, 0.0)

    def count(stage):
        return table.get(stage, {}).get("count", 0)

    cache = [s for s in spans if s["stage"] == "jit.cache"]
    compiles = sum(1 for s in cache if "compile" in s["args"])
    disk = sum(1 for s in cache if "disk_hit" in s["args"])
    memory = sum(1 for s in cache if "memory_hit" in s["args"])
    # Launches from the calling thread; distsim's per-rank sub-programs
    # run on rank threads and are counted under distsim.compute/boundary.
    main_tid = next((s["tid"] for s in spans if s["stage"] == "bench.rep"), 0)
    runs = [s for s in spans if s["stage"] == "kernel.run" and s["tid"] == main_tid]
    run_s = sum(s["dur"] for s in runs) / 1e6
    run_bytes = sum(s["args"].get("bytes", 0.0) for s in runs)

    krylov = {"apply": 0.0, "reduce": 0.0, "vector": 0.0}
    for s in spans:
        if s["stage"] == "krylov.solve":
            for c in s["children"]:
                if c["stage"] == "kernel.run":
                    krylov[_krylov_class(c["name"])] += c["dur"] / 1e6

    # distsim spans run on rank threads; keep those that start inside a
    # timed solve, matching the halo counts of the driver record.
    solves = [(s["ts"], s["ts"] + s["dur"]) for s in spans if s["name"] == "bench:solve"]
    dist = [s for s in spans if s["stage"] and s["stage"].startswith("distsim.")
            and any(lo <= s["ts"] < hi for lo, hi in solves)]

    def dist_total(stage):
        return sum(s["dur"] for s in dist if s["stage"] == stage) / 1e6

    # Critical rank: the one with the most busy (comm + compute) time.
    ranks = {}
    for s in dist:
        r = int(s["name"].split(":")[1][1:])
        comm, busy = ranks.get(r, (0.0, 0.0))
        is_comm = s["stage"] in ("distsim.send", "distsim.wait")
        ranks[r] = (comm + (s["dur"] if is_comm else 0.0), busy + s["dur"])
    critical = max(ranks.values(), key=lambda cb: cb[1]) if ranks else (0.0, 0.0)

    is_mgcg = rep.get("kind") == "mgcg"
    return {
        "codegen.validate_s": total("codegen.validate", "self_s"),
        "codegen.schedule_s": total("codegen.schedule", "self_s"),
        "codegen.lower_s": total("codegen.lower", "self_s"),
        "codegen.transforms_s": total("codegen.transforms", "self_s"),
        "codegen.verify_plan_s": total("codegen.verify_plan", "self_s"),
        "codegen.emit_s": total("codegen.emit", "self_s"),
        "codegen.groups": count("backend.compile"),
        "jit.cache.compiles": compiles,
        "jit.cache.disk_hits": disk,
        "jit.cache.memory_hits": memory,
        "jit.cache.hit_ratio": (disk + memory) / len(cache) if cache else 0.0,
        "jit.cc_s": total("jit.cc"),
        "jit.dlopen_s": total("jit.dlopen"),
        "jit.cache_lookup_s": total("jit.cache", "self_s"),
        "kernel.runs": len(runs),
        "kernel.run_s": run_s,
        "kernel.computed_bytes": run_bytes,
        "kernel.computed_gbps": run_bytes / run_s / 1e9 if run_s > 0 else 0.0,
        "backend.compile_self_s": total("backend.compile", "self_s"),
        "mg.smooth_s": total("mg.smooth"),
        "mg.residual_s": total("mg.residual"),
        "mg.restrict_s": total("mg.restrict"),
        "mg.interp_s": total("mg.interp"),
        "mg.vcycle_self_s": total("mg.vcycle", "self_s"),
        "mg.coarse_levels_s": sum(s["dur"] for s in spans if s["name"] == "mg:vcycle:L1") / 1e6,
        "mg.setup_untraced_s": sum(s["self"] for s in spans if s["name"] == "bench:setup") / 1e6,
        "krylov.iterations": rep.get("iterations", 0) if is_mgcg else 0,
        "krylov.apply_s": krylov["apply"],
        "krylov.reduce_s": krylov["reduce"],
        "krylov.vector_s": krylov["vector"],
        "krylov.precond_s": total("krylov.precond"),
        "krylov.host_s": total("krylov.solve", "self_s"),
        "distsim.halo_bytes": rep.get("halo_bytes", 0),
        "distsim.halo_messages": rep.get("halo_messages", 0),
        "distsim.compute_s": dist_total("distsim.compute"),
        "distsim.boundary_s": dist_total("distsim.boundary"),
        "distsim.send_s": dist_total("distsim.send"),
        "distsim.wait_s": dist_total("distsim.wait"),
        "distsim.stall_s": rep.get("stall_s", 0.0),
        "distsim.critical_comm_share": critical[0] / critical[1] if critical[1] > 0 else 0.0,
        "untraced_s": untraced,
    }

