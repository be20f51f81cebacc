"""Helpers of the repository benchmark (perfbench/README.md).

Everything here is pure arithmetic over the driver's raw output, plus
the child-process runner that reads a process's peak RSS, so that
perfbench/test_benchlib.py can check each piece on its own.
"""

import os
import signal
import statistics
import subprocess
import time

# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10

# Traced layer self times must add up to the traced wall time within
# this share of it; a larger gap means spans overlapped.
SELF_TIME_TOLERANCE = 0.01

# Span-name prefix -> layer whose host time it is.
LAYERS = ("trace", "pagetable", "sim", "tlb", "scheme", "cache", "dram",
          "sweep")


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile of @p samples with >= @p beyond samples above it.

    Returns (value, percentile, count): the value has exactly `beyond`
    samples above it, so its percentile is 100 * (count - beyond) / count.
    """
    count = len(samples)
    if count <= beyond:
        raise ValueError(f"{count} samples cannot have {beyond} beyond a "
                         "percentile")
    ordered = sorted(samples)
    return (ordered[count - beyond - 1], 100.0 * (count - beyond) / count,
            count)


def run_measured(cmd, timeout):
    """Run @p cmd in its own process group; return (returncode, peak RSS MB).

    The peak RSS is the child's own maximum resident set, read from
    wait4(), so neither this script nor its other children count. On
    timeout the whole group is killed and reaped before TimeoutError.
    """
    proc = subprocess.Popen(cmd, start_new_session=True)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            # ru_maxrss is in KiB on Linux.
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise TimeoutError(f"{cmd[0]} ran longer than {timeout} s")
        time.sleep(0.02)


def self_times(tree):
    """Self time (ns) of every span name in a span tree.

    A node's self time is its duration minus its children's, which is
    exact when children are disjoint and nested in the parent, as
    sequential spans on one thread are. Names that occur more than once
    are summed. Returns (self_ns_by_name, overlap_ns): overlap_ns totals
    the child time that exceeded a parent, which must be ~0.
    """
    totals = {}
    overlap = 0

    def visit(node):
        nonlocal overlap
        children_ns = sum(child["ns"] for child in node["children"])
        own = node["ns"] - children_ns
        if own < 0:
            overlap += -own
            own = 0
        totals[node["name"]] = totals.get(node["name"], 0) + own
        for child in node["children"]:
            visit(child)

    visit(tree)
    return totals, overlap


def span_totals(tree):
    """Total ns and calls per span name (names summed over the tree)."""
    out = {}

    def visit(node):
        ns, calls = out.get(node["name"], (0, 0))
        out[node["name"]] = (ns + node["ns"], calls + node["calls"])
        for child in node["children"]:
            visit(child)

    visit(tree)
    return out


def layer_of(span_name):
    layer = span_name.split(".", 1)[0]
    if layer not in LAYERS:
        raise ValueError(f"span '{span_name}' names no layer")
    return layer


def check_self_times(tree, tolerance=SELF_TIME_TOLERANCE):
    """True when the layer self times sum to the root's wall time."""
    selfs, overlap = self_times(tree)
    wall = tree["ns"]
    return wall > 0 and abs(sum(selfs.values()) - wall) <= tolerance * wall \
        and overlap <= tolerance * wall


def end_to_end_metrics(raw, peak_rss_mb):
    """End-to-end metrics of an untraced run's raw driver output.

    Returns (metrics, latency): the metrics BENCHMARK.json bounds, and
    the result-latency figures, which are printed but not bounded.

    Throughput and set-up time are best-of-N over the repetitions, the
    repository's convention for timing deterministic code: every
    repetition does the same simulated work, and on a shared host other
    work slows whole stretches of them, so the slower ones measure the
    host rather than the program. Latencies are the median and tail of
    every result's latency, so they carry that noise in full.
    """
    reps = raw["reps"]
    latencies = [x for rep in reps for x in rep["latencies_s"]]
    tail_value, tail_pct, count = tail(latencies)
    return {
        "refs_per_s": max(r["refs"] / r["run_s"] for r in reps),
        "jobs_per_s": max(r["jobs"] / r["wall_s"] for r in reps),
        "setup_s": min(r["setup_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
    }, {
        "result_latency_p50_s": statistics.median(latencies),
        "result_latency_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "latency_samples": count,
    }


def per_layer_metrics(raw):
    """Per-layer metrics of a traced run's raw driver output.

    Timings come from the fastest traced repetition (best-of-N, as for
    the end-to-end metrics), so one tree supplies every span and the
    self-time sums stay consistent; counts are exact and the same in
    every repetition.
    """
    tree = min(raw["traced"], key=lambda tree: tree["ns"])
    wall = tree["ns"]
    selfs, _ = self_times(tree)
    spans = span_totals(tree)
    counts = raw["counts"]

    def ns(name):
        return spans.get(name, (0, 0))[0]

    def calls(name):
        return spans.get(name, (0, 0))[1]

    def per_call(name):
        return ns(name) / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = {layer: 0 for layer in LAYERS}
    for name, value in selfs.items():
        layer_self[layer_of(name)] += value

    translations = calls("tlb.l1_hit") + calls("tlb.l2_hit") + \
        calls("scheme.miss")
    exec_walls = counts.get("job_exec_s", [])
    untraced = min(r["run_s"] for r in raw["reps"])
    metrics = {
        "trace.fill_s": ns("trace.fill") / 1e9,
        "trace.ns_per_record": ratio(ns("trace.fill"),
                                     counts.get("trace_records", 0)),
        "pagetable.prepopulate_s": ns("pagetable.install") / 1e9,
        "pagetable.pages_installed": calls("pagetable.install"),
        "tlb.l1_hit_calls": calls("tlb.l1_hit"),
        "tlb.l1_hit_ns": per_call("tlb.l1_hit"),
        "tlb.l2_hit_calls": calls("tlb.l2_hit"),
        "tlb.l2_hit_ns": per_call("tlb.l2_hit"),
        "tlb.hit_ratio": ratio(calls("tlb.l1_hit") + calls("tlb.l2_hit"),
                               translations),
        "scheme.miss_calls": calls("scheme.miss"),
        "scheme.miss_ns": per_call("scheme.miss"),
        "scheme.walk_fraction": counts.get("walk_fraction", 0.0),
        "pomtlb.served_calls": counts.get("pom_served", 0),
        "pomtlb.cache_served_ratio": ratio(counts.get("pom_cached", 0),
                                           counts.get("pom_served", 0)),
        "cache.l1d_calls": calls("cache.l1d"),
        "cache.l1d_ns": per_call("cache.l1d"),
        "cache.l2d_calls": calls("cache.l2d"),
        "cache.l2d_ns": per_call("cache.l2d"),
        "cache.l3d_calls": calls("cache.l3d"),
        "cache.l3d_ns": per_call("cache.l3d"),
        "dram.mem_calls": calls("dram.mem"),
        "dram.mem_ns": per_call("dram.mem"),
        "dram.row_hit_ratio": counts.get("row_hit_ratio", 0.0),
        "dram.stacked_row_hit_ratio": counts.get("stacked_row_hit_ratio",
                                                 0.0),
        "sim.loop_self_s": layer_self["sim"] / 1e9,
        "scenario.run_s": ns("sim.scenario_run") / 1e9,
        "scenario.shootdowns": counts.get("shootdowns", 0),
        "scenario.migrations": counts.get("migrations", 0),
        "scenario.worst_p99_cycles": counts.get("worst_p99_cycles", 0),
        "sweep.executed": counts.get("executed", 0),
        "sweep.cache_hits": counts.get("cache_hits", 0),
        "sweep.cache_hit_ratio": ratio(counts.get("cache_hits", 0),
                                       counts.get("jobs", 0)),
        "sweep.job_exec_s_p50": (statistics.median(exec_walls)
                                  if exec_walls else 0.0),
        "sweep.worker_busy_ratio": counts.get("worker_busy_ratio", 0.0),
        "sim.stats_digest": counts["digest"],
        "sim.cycles": counts.get("cycles", 0),
        "sim.translation_cycles": counts["translation_cycles"],
        "sim.page_walks": counts["page_walks"],
        "sim.traced_wall_s": wall / 1e9,
        "trace_overhead_ratio": ratio(wall / 1e9, untraced),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = ratio(layer_self[layer], wall)
    return metrics


def result_problems(result, bench, trace):
    """Problems of a result line against BENCHMARK.json (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or \
            result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"metric {spec['name']} has unit "
                            f"{got.get('unit')}, want {spec['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {spec['name']} is not a number")
    extra = set(metrics) - {spec["name"] for spec in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems
