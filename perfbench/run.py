#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gups_pom --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout. The script builds the driver (and the
simulator library it links) from source under .bench_build/, derives
the workload's inputs from --seed, runs the workload in its own process
for --seconds of host time, checks the simulated outputs, and prints
every metric by name and unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 the per-layer ones, from the
traced run. Any failure to build or run exits non-zero without a result.
"""

import argparse
import fcntl
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
BUILD_ROOT = Path(".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

# Seconds a driver run may take beyond --seconds (its last repetition,
# warm-up and pre-seeding) before it is killed.
DRIVER_GRACE_S = 100
BUILD_TIMEOUT_S = 850

# Every registered translation scheme, in registry order.
SCHEMES = ["Baseline", "POM-TLB", "Shared_L2", "TSB", "Coalesced",
           "Victima"]


def seed32(rng):
    return rng.randrange(1, 2**32)


def gups_pom(rng, work):
    # Table 1 cores, uniform-random references: nearly every reference
    # misses the SRAM TLBs and is served by the POM-TLB, with no walks.
    return {"kind": "single", "benchmark": "gups", "scheme": "POM-TLB",
            "cores": 8, "refs": 15000, "warmup": 15000, "seed": seed32(rng)}


def mcf_walk(rng, work):
    # Baseline nested walks replayed from a trace pack: TLB hits, the
    # page walker and the mmap pack reader do the work; no POM-TLB.
    refs = warmup = 30000
    return {"kind": "single", "benchmark": "mcf", "scheme": "Baseline",
            "cores": 8, "refs": refs, "warmup": warmup,
            "seed": seed32(rng),
            "pack": {"path": str(work / "mcf.pack"), "streams": 8,
                     "records": refs + warmup, "seed": seed32(rng)}}


def tenant_churn(rng, work):
    # Six tenants per core, three resident at a time, so tenants arrive
    # (with page migrations) and depart (VM shootdowns) during the run,
    # plus shootdown storms. A core's queue positions 0..5 stay resident
    # for 1, 2, 3, 3, 2 and 1 quarter of the run, so each benchmark gets
    # positions worth one core-run in total: one benchmark {1, 4}, the
    # others {0 or 5} plus {2 or 3}. The seed chooses that placement per
    # core; the amount of each benchmark's work does not change with it.
    cores = 8
    columns = []
    for _ in range(cores):
        names = ["mcf", "gups", "canneal"]
        rng.shuffle(names)
        middle = [2, 3]
        rng.shuffle(middle)
        column = [None] * 6
        column[1] = column[4] = names[0]
        column[0], column[middle[0]] = names[1], names[1]
        column[5], column[middle[1]] = names[2], names[2]
        columns.append(column)
    # Tenant t homes on core t % cores, at queue position t // cores.
    tenants = [columns[t % cores][t // cores] for t in range(6 * cores)]
    return {"kind": "scenario", "scheme": "POM-TLB", "cores": cores,
            "refs": 20000, "warmup": 20000, "seed": seed32(rng),
            "tenant_benchmarks": tenants, "resident_per_core": 3,
            "overcommit": 1.5, "migration_pages": 64,
            "storm_interval": 4000, "storm_pages": 8, "time_slice": 1000}


def campaign(rng, work):
    # All schemes on three benchmarks, every job seeded from --seed. One
    # job per scheme, rotating over the benchmarks and including the
    # first request, is pre-seeded in the cache, so a campaign mixes
    # cache reads with executions, cache writes and journal appends in
    # the same proportion for every seed. One worker: with two, which
    # jobs overlap follows the job hashes, so the peak RSS would depend
    # on the seed.
    benchmarks = ["mcf", "gups", "canneal"]
    seed = seed32(rng)
    requests = [{"benchmark": b, "scheme": s, "cores": 2, "refs": 30000,
                 "warmup": 30000, "seed": seed}
                for b in benchmarks for s in SCHEMES]
    preseed = sorted((s % len(benchmarks)) * len(SCHEMES) + s
                     for s in range(len(SCHEMES)))
    return {"kind": "campaign", "workers": 1, "requests": requests,
            "preseed": preseed}


WORKLOADS = {
    "gups_pom": gups_pom,
    "mcf_walk": mcf_walk,
    "tenant_churn": tenant_churn,
    "campaign": campaign,
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step; on failure show its output and exit 1."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        fail(f"{' '.join(cmd)} timed out")
    if proc.returncode != 0:
        sys.stderr.write(output)
        fail(f"{' '.join(cmd)} failed")


def build():
    """Configure and build the driver; a no-op when it is up to date."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                  BUILD_TIMEOUT_S)


def measure(workload, seed, seconds, trace):
    """Make the inputs, run the driver, return (raw output, peak RSS MB)."""
    work = BUILD_ROOT / "perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rng = random.Random(f"{workload}:{seed}")
        spec = WORKLOADS[workload](rng, work)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=1))
        if "pack" in spec:
            code, _ = benchlib.run_measured(
                [str(DRIVER), "pack", str(spec_path), spec["pack"]["path"]],
                DRIVER_GRACE_S)
            if code != 0:
                fail("writing the trace pack failed")
        out = work / "result.json"
        code, rss = benchlib.run_measured(
            [str(DRIVER), "run", str(spec_path), str(seconds),
             str(trace), str(out)], seconds + DRIVER_GRACE_S)
        if code != 0:
            fail(f"driver exited with {code}")
        return json.loads(out.read_text()), rss
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bench = json.loads(BENCHMARK_JSON.read_text())
        build()
        raw, rss = measure(args.workload, args.seed, args.seconds,
                           args.trace)
    except (OSError, TimeoutError, ValueError) as error:
        fail(str(error))

    checks = raw["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    if args.trace:
        for tree in raw["traced"]:
            attempted += 1
            if not benchlib.check_self_times(tree):
                failed += 1
                checks["failures"].append("layer self times do not sum "
                                          "to the traced wall time")
        values = benchlib.per_layer_metrics(raw)
        specs = bench["per_layer"]
        latency = None
    else:
        values, latency = benchlib.end_to_end_metrics(raw, rss)
        specs = bench["end_to_end"]

    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]}
               for spec in specs if spec["name"] in values}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    problems = benchlib.result_problems(result, bench, args.trace)
    if problems:
        fail("; ".join(problems))

    print(f"workload {args.workload} seed {args.seed} "
          f"({len(raw['reps'])} repetitions)")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if latency:
        # Printed, not bounded: see "Result latency" in README.md.
        for name in ("result_latency_p50_s", "result_latency_tail_s"):
            print(f"  {name:<28} {latency[name]:>16.6g} s")
        print(f"  {'tail_percentile':<28} "
              f"{latency['tail_percentile']:>16.6g} "
              f"(of {latency['latency_samples']} samples)")
    print(f"  {'failed_frac':<28} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} checks)")
    for failure in checks["failures"]:
        print(f"  check failed: {failure}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
