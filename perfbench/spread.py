#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed and prints, for every end-to-end
metric, its median and the distance between its first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json.  A benchmark is steady when every share
(setup_s excepted) stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, (q3 - q1) / median) of a list of at least two numbers."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print("seed %d: exit status %d" % (seed, out.returncode))
            return 1
        lines = out.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        quiet = [l.split(": ", 1)[1] for l in lines if l.startswith("quiet")]
        print("seed %d: %s %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in line["metrics"].items()),
            quiet[0] if quiet else ""), flush=True)
    print("%-16s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for m in bench["end_to_end"]:
        med, share = spread(values[m["name"]])
        print("%-16s %14.6g %10.4f %8.3f" % (m["name"], med, share, m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
