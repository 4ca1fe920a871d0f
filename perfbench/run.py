#!/usr/bin/env python3
"""The coopsearch repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds coopserve, coopsearch_cli and the
benchmark's load generator from source into .bench_build/ (or
$CARGO_TARGET_DIR), then runs the load generator, which sets up real
coopserve processes from seeded inputs, drives them over loopback TCP, and
checks every answer.  Prints a
human-readable report followed, as the last line of stdout, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json; --trace 1 the per-layer ones,
and writes the run's spans under .bench_build/perfbench-spans/.

Exit status: 0 when every answer was correct; 1 on a wrong answer; 2 on a
usage, build or set-up error (no result line is printed then).
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["perfbench_loadgen", "coopserve", "coopsearch_cli"]
LOADGEN_TIMEOUT_S = 160

# Which end-to-end metric each per-layer metric should move, on which
# workload, and where it should have little or no effect (README.md).
LAYER_TARGETS = {
    "serve.kernel_ns_per_query": ("qps, cpu_us_per_op", "scan_b64",
                                  "lookup_b1"),
    "serve.engine_us_per_batch": ("qps, p99_us", "scan_b64", "lookup_b1"),
    "serve.frontend_overhead_us": ("p50_us", "lookup_b1", "scan_b64"),
    "serve.engine_batch_p50_us": ("p50_us", "lookup_b1, scan_b64", "-"),
    "serve.frontend_batch_p50_us": ("p50_us", "lookup_b1, scan_b64", "-"),
    "serve.engine_inline_frac": ("p50_us", "lookup_b1, scan_b64", "-"),
    "net.encode_req_ns": ("p50_us, cpu_us_per_op", "lookup_b1", "scan_b64"),
    "net.decode_req_ns": ("p50_us, cpu_us_per_op", "lookup_b1", "scan_b64"),
    "net.encode_resp_ns": ("p50_us, cpu_us_per_op", "lookup_b1", "scan_b64"),
    "net.decode_resp_ns": ("p50_us, cpu_us_per_op", "lookup_b1", "scan_b64"),
    "net.req_bytes": ("p50_us, cpu_us_per_op", "lookup_b1", "scan_b64"),
    "net.resp_bytes": ("p50_us, cpu_us_per_op", "lookup_b1", "scan_b64"),
    "net.server_request_p50_us": ("p50_us", "lookup_b1", "-"),
    "net.server_request_p99_us": ("p99_us", "lookup_b1", "-"),
    "net.outside_server_us": ("p50_us", "lookup_b1", "scan_b64"),
    "fc.build_ms": ("setup_s", "scan_b64", "lookup_b1"),
    "serve.compile_ms": ("setup_s", "scan_b64", "lookup_b1"),
    "snapshot.write_ms": ("setup_s", "scan_b64", "lookup_b1"),
    "snapshot.open_ms": ("setup_s", "scan_b64", "lookup_b1"),
    "net.ready_ms": ("setup_s", "scan_b64", "lookup_b1"),
    "dyn.apply_us_per_batch": ("write_p50_us", "rw_mixed", "-"),
    "dyn.read_ns_per_query": ("qps", "rw_mixed", "all others"),
    "dyn.read_slowdown": ("qps", "rw_mixed", "all others"),
    "dyn.compact_ms": ("p99_us, write_p99_us", "rw_mixed", "all others"),
    "wal.append_us": ("write_p50_us", "rw_mixed", "all others"),
    "dyn.overlay_depth_max": ("explains qps, p99_us", "rw_mixed", "-"),
    "dyn.compactions": ("explains qps, p99_us", "rw_mixed", "-"),
    "dyn.merges": ("explains qps, p99_us", "rw_mixed", "-"),
    "wal.records": ("explains qps, p99_us", "rw_mixed", "-"),
    "wal.group_commits": ("explains qps, p99_us", "rw_mixed", "-"),
    "cluster.router_overhead_us": ("p50_us, qps", "routed_b16", "all others"),
    "cluster.sub_batches_per_batch": ("qps", "routed_b16", "-"),
    "cluster.hedged_retries": ("qps", "routed_b16", "-"),
    "cluster.partition_ms": ("setup_s", "routed_b16", "-"),
    "load.write_late_us_p99": ("validity of write_*", "rw_mixed", "-"),
    "load.write_p50_us": ("write latency (end to end)", "rw_mixed", "-"),
    "load.write_p99_us": ("write latency (end to end)", "rw_mixed", "-"),
    "trace.overhead_frac": ("- (must stay small)", "all", "-"),
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_benchmark(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def writer_rate(bench):
    """The rw_mixed writer's fixed MUTATE rate, stated in its `why`."""
    for w in bench.get("workloads", []):
        if w.get("name") == "rw_mixed":
            m = re.search(r"(\d+(?:\.\d+)?) MUTATE batches/s",
                          w.get("why", ""))
            if m:
                return float(m.group(1))
    die("BENCHMARK.json states no rw_mixed writer rate")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir, targets=TARGETS):
    """Configure (once) and build the benchmark package; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to %s; run from a checkout" % HERE)
    bdir = os.path.join(out_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            die("build failed: " + " ".join(cmd))
    return bdir


def run_loadgen(cmd):
    """Run the load generator in its own process group; kill the group on
    timeout and wait until every process in it has ended."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        die("load generator timed out after %d s" % LOADGEN_TIMEOUT_S)


def result_line(doc, bench, trace):
    """The contract's last line: exactly the metrics BENCHMARK.json names
    for this mode, with their declared units."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            raise ValueError("load generator did not report " + m["name"])
        if got["unit"] != m["unit"]:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    failed = doc["shed"] + doc["failed"] + doc["mismatched"]
    if doc["attempted"] < 1 or failed > doc["attempted"]:
        raise ValueError("implausible operation counts")
    return {"correct": bool(doc["correct"]), "attempted": doc["attempted"],
            "failed": failed, "metrics": metrics}


def report(doc, args, trace):
    """Human-readable report: every metric with unit and sample count."""
    info = doc["info"]
    lines = ["workload %s  seed %d  window %g s  %s" % (
        args.workload, args.seed, args.seconds,
        "traced run (per-layer metrics)" if trace else "untraced run")]
    lines.append("host: %s; %s; build %s" % (
        info.get("cpu_model"), info.get("caches"), info.get("build_type")))
    lines.append("threads and sizes: "
                 + json.dumps(info.get("threads_and_sizes")))
    if "writer" in info:
        lines.append("writer (fixed): " + json.dumps(info["writer"]))
    if "quiet_selection" in info:
        lines.append("quiet sub-windows (least hypervisor steal): "
                     + json.dumps(info["quiet_selection"]))
    if "calibration" in info:
        lines.append("host-speed calibration (the _norm metrics): "
                     + json.dumps(info["calibration"]))
    lines.append("%-30s %16s %-6s %9s  %s" % (
        "metric", "value", "unit", "samples",
        "moves -> on workload | little effect on" if trace else ""))
    for name, m in doc["metrics"].items():
        extra = ""
        if trace and name in LAYER_TARGETS:
            extra = "%s -> %s | %s" % LAYER_TARGETS[name]
        lines.append("%-30s %16.6g %-6s %9s  %s" % (
            name, m["value"], m["unit"], m["samples"] or "-", extra))
    lines.append("operations: attempted %d, ok %d, shed %d, failed %d, "
                 "wrong answers %d" % (doc["attempted"], doc["ok"],
                                       doc["shed"], doc["failed"],
                                       doc["mismatched"]))
    if "first_error" in info:
        lines.append("first error: " + info["first_error"])
    return "\n".join(lines)


def self_test(out_dir):
    bdir = build(out_dir, TARGETS + ["perfbench_selftest"])
    rc = subprocess.call([os.path.join(bdir, "perfbench_selftest")], cwd=bdir)
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    import test_perfbench  # noqa: E402
    import unittest
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_perfbench)
    ok = unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    out_dir = build_dir()
    if args.self_test:
        return self_test(out_dir)
    bench = load_benchmark(ROOT)
    names = [w["name"] for w in bench.get("workloads", [])]
    if args.workload not in names:
        die("unknown workload %r (BENCHMARK.json has %s)"
            % (args.workload, names))
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative")
    rate = writer_rate(bench)
    bdir = build(out_dir)

    work = os.path.join(out_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(out_dir, "perfbench-spans",
                         "%s-seed%d.tsv" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    out_json = os.path.join(work, "result.json")
    cmd = [os.path.join(bdir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(bdir, "repo_tools"), "--work-dir", work,
           "--out", out_json, "--spans", spans, "--writer-rate", repr(rate)]
    rc = run_loadgen(cmd)
    if rc not in (0, 1) or not os.path.isfile(out_json):
        die("load generator failed with exit status %d; server logs are in %s"
            % (rc, os.path.relpath(work, ROOT)))
    try:
        with open(out_json) as f:
            doc = json.load(f)
        line = result_line(doc, bench, args.trace == 1)
    except ValueError as e:
        die("bad load generator output: %s" % e)
    shutil.rmtree(work, ignore_errors=True)
    print(report(doc, args, args.trace == 1))
    if args.trace:
        print("spans: " + os.path.relpath(spans, ROOT))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
