#!/usr/bin/env python3
"""Runs one workload of the d-HNSW benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the harness (perfbench/cpp, linked
against the library in src/) into $CARGO_TARGET_DIR or .bench_build, runs the
workload named in perfbench/workloads.json, checks the outputs, prints a
human-readable report, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. When an output is wrong the line still comes,
with "correct": false and the metrics the run has, and the exit code is 1.
A failed build or a crashed harness prints no result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each of these silently changes what a workload measures: the scalar kernel
# tier, the single-threaded graph build, or the transport a workload pins.
FORBIDDEN_ENV = ("DHNSW_FORCE_SCALAR", "DHNSW_DETERMINISTIC_BUILD", "DHNSW_TRANSPORT")

RUN_TIMEOUT_S = 170

# Every per-layer ratio and the base it is a ratio of, so a reader can weigh
# it. Totals (counts over the whole phase) and the bases themselves need none.
RATIO_BASES = {
    "memory_node.provision_ms": "base.setup_builds",
    "meta_hnsw.route_us_per_query": "base.replay_queries",
    "batch_scheduler.unique_clusters_per_batch": "base.batches",
    "batch_scheduler.dedup_saved_share": "base.routed_pairs",
    "compute_node.meta_ms": "base.breakdown_batches",
    "compute_node.decode_ms": "base.breakdown_batches",
    "compute_node.sub_ms": "base.breakdown_batches",
    "compute_node.cache_hit_share": "base.cluster_lookups",
    "compute_node.clusters_loaded_per_query": "base.search_queries",
    "compute_pool.node_imbalance": "base.ops",
    "rdma.round_trips_per_search": "base.search_queries",
    "rdma.bytes_read_per_search": "base.search_queries",
    "rdma.network_us_per_search": "base.search_queries",
    "rdma.wrs_per_ring": "base.rings",
    "rdma.read_ring_us": "base.replay_blobs",
    "rdma.round_trips_per_insert": "base.inserts",
    "rdma.bytes_written_per_insert": "base.inserts",
    "serialize.decode_mb_s": "base.replay_mb",
    "common.crc32c_mb_s": "base.replay_mb",
    "index.sub_search_us": "base.replay_pairs",
    "replication.acks_per_insert": "base.inserts",
    "trace.overhead_share": "base.ops",
}
TOTALS = ("replication.failovers", "compactor.records_folded", "compactor.bytes_read")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def fail_counts(counts):
    """(attempted, failed): failures, admission drops and refused inserts all
    count against the ops submitted."""
    failed = counts["failed"] + counts["dropped"] + counts["refused_inserts"]
    return counts["submitted"], failed


def gated_metrics(raw, workload, spec, trace):
    """(metrics, problems): the metrics BENCHMARK.json lists for this run
    that the harness reported, and a problem for each listed metric it did
    not report or reported with another unit."""
    problems = []
    if trace:
        listed = spec["per_layer"]
        source = raw["layers"]
        extra = set(source) - {m["name"] for m in listed}
        if extra:
            problems.append("per-layer metrics missing from BENCHMARK.json: %s" % sorted(extra))
        names = {m["name"]: m["name"] for m in listed}
    else:
        listed = spec["end_to_end"]
        source = raw["end_to_end"]
        names = {m["name"]: workload["gated"].get(m["name"], m["name"]) for m in listed}
    metrics = {}
    for m in listed:
        own = names[m["name"]]
        if own not in source:
            problems.append("workload reports no %s (for %s)" % (own, m["name"]))
            continue
        value, unit = source[own]
        if unit != m["unit"]:
            problems.append("%s has unit %s, BENCHMARK.json says %s" % (own, unit, m["unit"]))
        elif value is None:
            problems.append("%s is not a finite number" % own)
        else:
            metrics[m["name"]] = {"value": value, "unit": unit}
    return metrics, problems


def verdict(raw, workload, spec, trace):
    """(result, problems): the result line for one harness report, and every
    reason its outputs are wrong. A report with problems still gives a
    result line, with "correct": false and the metrics it has."""
    metrics, missing = gated_metrics(raw, workload, spec, trace)
    problems = list(raw["violations"]) + missing
    recall = raw["end_to_end"].get("recall_at_10", [None])[0]
    if recall is None:
        problems.append("no recall_at_10 to hold against the floor")
    elif recall < workload["recall_floor"]:
        problems.append("recall_at_10 %.4f below the floor %.2f" % (recall, workload["recall_floor"]))
    attempted, failed = fail_counts(raw["counts"])
    if attempted == 0:  # the workload failed before it submitted an op
        attempted, failed = 1, 1
    return ({"correct": not problems, "attempted": attempted, "failed": failed,
             "metrics": metrics}, problems)


def layer_line(name, raw_layers):
    value, unit = raw_layers[name]
    line = "  %-44s %14.6g %s" % (name, value, unit)
    base = RATIO_BASES.get(name)
    if base in raw_layers:
        line += "   (per %s = %g)" % (base, raw_layers[base][0])
    return line


def report_lines(name, args, raw, workload):
    lines = ["# perfbench %s seed=%d seconds=%d trace=%d" % (name, args.seed, args.seconds, args.trace)]
    lines.append("env: " + " ".join("%s=%s" % kv for kv in raw["env"].items()))
    attempted, failed = fail_counts(raw["counts"])
    c = raw["counts"]
    lines.append("end-to-end (%s):" % name)
    for metric, (value, unit) in raw["end_to_end"].items():
        lines.append("  %-44s %14.6g %s" % (metric, value, unit))
    lines.append("  %-44s %14.6g share   (failed %d + dropped %d + refused inserts %d of %d submitted)"
                 % ("fail_share", failed / attempted if attempted else 0.0,
                    c["failed"], c["dropped"], c["refused_inserts"], attempted))
    gated = ", ".join("%s=%s" % kv for kv in workload["gated"].items())
    lines.append("  gated in BENCHMARK.json as: %s" % gated)
    if args.trace:
        lines.append("per-layer (traced run):")
        for metric in raw["layers"]:
            lines.append(layer_line(metric, raw["layers"]))
        lines.append("pool and compaction layers (printed only; not every workload has them):")
        for metric, (value, unit) in raw["pool_layers"].items():
            lines.append("  %-44s %14.6g %s" % (metric, value, unit))
    return lines


def build_dir():
    """The harness's build tree. $CARGO_TARGET_DIR (default .bench_build)
    holds one per checkout, named after the checkout's path, so checkouts
    that share a target directory never build each other's sources."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    return os.path.join(base, "perfbench-" + hashlib.sha256(HERE.encode()).hexdigest()[:16])


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def harness_flags(name, workload, seed, seconds, trace):
    flags = ["--workload=%s" % name, "--kind=%s" % workload["kind"], "--seed=%d" % seed,
             "--seconds=%d" % seconds, "--trace=%d" % trace]
    flags += ["--%s=%s" % kv for kv in workload["params"].items()]
    return flags


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    set_env = [v for v in FORBIDDEN_ENV if os.environ.get(v)]
    if set_env:
        print("perfbench: refusing to run with %s set" % ", ".join(set_env), file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in workloads:
        print("perfbench: unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    started = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    flags = harness_flags(args.workload, workload, args.seed, args.seconds, args.trace)
    try:
        proc = subprocess.run([binary] + flags, stdout=subprocess.PIPE, text=True,
                              timeout=max(10, RUN_TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print("perfbench: harness exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except ValueError as e:
        print("perfbench: unreadable harness output: %s" % e, file=sys.stderr)
        return 1
    return finish(args, raw, workload, spec)


def finish(args, raw, workload, spec):
    """Prints the report and the result line; returns the exit code."""
    result, problems = verdict(raw, workload, spec, args.trace)
    for line in report_lines(args.workload, args, raw, workload):
        print(line)
    for p in problems:
        print("INCORRECT: %s" % p)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
