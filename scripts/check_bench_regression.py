#!/usr/bin/env python3
"""Fail CI when serving throughput regresses against committed baselines.

Usage:
    python3 scripts/check_bench_regression.py [options] BENCH_*.json
    python3 scripts/check_bench_regression.py --self-test

Each fresh JSON (written by `bench_retrieval --json` / `bench_pointloc
--json`, and in soak form by `coopsearch_cli serve --soak ... --json`) is
matched to `bench/baselines/<bench>.json` by its "bench" field.  Rows are
keyed by (mode, threads) and compared:

* qps floor:    fresh.qps  >= baseline.qps * (1 - --qps-tolerance)
* p99 ceiling:  fresh.p99_ns <= baseline.p99_ns * (1 + --p99-tolerance)
  (checked only when both sides carry p99_ns)

Any violated floor/ceiling prints a REGRESSION line and the script exits
nonzero.  Rows present on only one side are reported but do not fail the
gate (so adding a bench mode does not break CI until its baseline lands).

--require-row BENCH:MODE[@THREADS] (repeatable) makes the gate fail unless
the named row appears in one of the fresh JSONs — the teeth behind rows
whose very *presence* is the guarantee, e.g. serve_paths:flat@1: a bench
that silently stopped measuring the flat kernel would otherwise just
vanish from the report as a benign "MISSING".

Refreshing baselines
--------------------
Baselines are smoke-sized runs committed under bench/baselines/.  To
refresh after an intentional perf change:

    cmake --build build -j
    ./build/bench/bench_retrieval --json=bench/baselines/serve_paths.json --smoke
    ./build/bench/bench_pointloc --json=bench/baselines/serve_pointloc.json --smoke
    git add bench/baselines/ && git commit

or download the `bench-serve-json` artifact from a green CI run of the
bench-smoke job and copy its files over bench/baselines/ (renaming to
<bench>.json).  CI runners are noisy, so the CI gate runs with a lenient
tolerance (see .github/workflows/ci.yml); the default below is tighter
and suited to comparing runs on one machine.
"""

import argparse
import json
import os
import sys
import tempfile


def load(path):
    with open(path) as f:
        return json.load(f)


def rows_by_key(doc):
    return {(r["mode"], r.get("threads", 1)): r for r in doc.get("rows", [])}


def check_doc(fresh, baseline, qps_tol, p99_tol, out=sys.stderr,
              fail_on_missing=False):
    """Return the number of regressions between one fresh/baseline pair."""
    bad = 0
    fresh_rows = rows_by_key(fresh)
    base_rows = rows_by_key(baseline)
    for key in sorted(base_rows.keys() | fresh_rows.keys()):
        mode, threads = key
        label = f"{fresh.get('bench', '?')}/{mode}@{threads}"
        if key not in fresh_rows:
            if fail_on_missing:
                print(f"  REGRESSION {label}: in baseline but not in fresh "
                      "run (--fail-on-missing)", file=out)
                bad += 1
            else:
                print(f"  MISSING   {label}: in baseline but not in fresh "
                      "run", file=out)
            continue
        if key not in base_rows:
            print(f"  NEW       {label}: no baseline yet", file=out)
            continue
        f_row, b_row = fresh_rows[key], base_rows[key]
        floor = b_row["qps"] * (1.0 - qps_tol)
        if f_row["qps"] < floor:
            print(f"  REGRESSION {label}: qps {f_row['qps']:.0f} < floor "
                  f"{floor:.0f} (baseline {b_row['qps']:.0f}, "
                  f"tolerance {qps_tol:.0%})", file=out)
            bad += 1
        else:
            print(f"  ok        {label}: qps {f_row['qps']:.0f} "
                  f"(baseline {b_row['qps']:.0f})", file=out)
        if "p99_ns" in f_row and "p99_ns" in b_row and b_row["p99_ns"] > 0:
            ceiling = b_row["p99_ns"] * (1.0 + p99_tol)
            if f_row["p99_ns"] > ceiling:
                print(f"  REGRESSION {label}: p99 {f_row['p99_ns']:.0f}ns > "
                      f"ceiling {ceiling:.0f}ns (baseline "
                      f"{b_row['p99_ns']:.0f}ns, tolerance {p99_tol:.0%})",
                      file=out)
                bad += 1
    return bad


def parse_requirement(spec):
    """'bench:mode@threads' -> (bench, mode, threads); threads defaults to 1."""
    bench, _, row = spec.partition(":")
    if not bench or not row:
        raise ValueError(f"bad --require-row {spec!r} "
                         "(want BENCH:MODE[@THREADS])")
    mode, _, threads = row.partition("@")
    return bench, mode, int(threads) if threads else 1


def run_gate(args):
    total_bad = 0
    required = {parse_requirement(s) for s in getattr(args, "require_row", [])}
    satisfied = set()
    for path in args.fresh:
        fresh = load(path)
        bench = fresh.get("bench")
        if bench is None:
            print(f"error: {path} has no 'bench' field", file=sys.stderr)
            return 2
        for key in rows_by_key(fresh):
            satisfied.add((bench, key[0], key[1]))
        base_path = os.path.join(args.baseline_dir, f"{bench}.json")
        if not os.path.exists(base_path):
            print(f"warning: no baseline {base_path} for {path}; skipping",
                  file=sys.stderr)
            continue
        print(f"{path} vs {base_path}:", file=sys.stderr)
        total_bad += check_doc(fresh, load(base_path), args.qps_tolerance,
                               args.p99_tolerance,
                               fail_on_missing=getattr(
                                   args, "fail_on_missing", False))
    for bench, mode, threads in sorted(required - satisfied):
        print(f"  REGRESSION {bench}/{mode}@{threads}: required row is "
              "absent from every fresh run", file=sys.stderr)
        total_bad += 1
    if total_bad:
        print(f"FAIL: {total_bad} regression(s)", file=sys.stderr)
        return 1
    print("PASS: no regressions", file=sys.stderr)
    return 0


def self_test():
    """Prove the gate trips on a 20% qps drop and passes on the baseline."""
    baseline = {
        "bench": "selftest",
        "rows": [
            {"mode": "flat", "threads": 1, "qps": 1_000_000.0,
             "p99_ns": 2000.0},
            {"mode": "flat_batch", "threads": 4, "qps": 2_500_000.0},
        ],
    }
    dropped = json.loads(json.dumps(baseline))
    for row in dropped["rows"]:
        row["qps"] *= 0.8  # the injected 20% regression

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baselines")
        os.mkdir(base_dir)
        with open(os.path.join(base_dir, "selftest.json"), "w") as f:
            json.dump(baseline, f)
        fresh_ok = os.path.join(tmp, "fresh_ok.json")
        fresh_bad = os.path.join(tmp, "fresh_bad.json")
        with open(fresh_ok, "w") as f:
            json.dump(baseline, f)
        with open(fresh_bad, "w") as f:
            json.dump(dropped, f)

        args = argparse.Namespace(baseline_dir=base_dir, qps_tolerance=0.10,
                                  p99_tolerance=0.25, fresh=[fresh_ok],
                                  require_row=[], fail_on_missing=False)
        if run_gate(args) != 0:
            print("self-test FAILED: identical run was flagged",
                  file=sys.stderr)
            return 1
        args.fresh = [fresh_bad]
        if run_gate(args) == 0:
            print("self-test FAILED: 20% qps drop was not flagged",
                  file=sys.stderr)
            return 1
        args.fresh = [fresh_ok]
        args.require_row = ["selftest:flat@1"]
        if run_gate(args) != 0:
            print("self-test FAILED: satisfied --require-row was flagged",
                  file=sys.stderr)
            return 1
        args.require_row = ["selftest:flat_single@1"]
        if run_gate(args) == 0:
            print("self-test FAILED: absent required row was not flagged",
                  file=sys.stderr)
            return 1

        # --fail-on-missing: a fresh run that silently drops a baseline
        # row must trip the gate, and must stay green without the flag.
        shrunk = json.loads(json.dumps(baseline))
        shrunk["rows"] = shrunk["rows"][:1]
        fresh_shrunk = os.path.join(tmp, "fresh_shrunk.json")
        with open(fresh_shrunk, "w") as f:
            json.dump(shrunk, f)
        args = argparse.Namespace(baseline_dir=base_dir, qps_tolerance=0.10,
                                  p99_tolerance=0.25, fresh=[fresh_shrunk],
                                  require_row=[], fail_on_missing=False)
        if run_gate(args) != 0:
            print("self-test FAILED: missing row flagged without "
                  "--fail-on-missing", file=sys.stderr)
            return 1
        args.fail_on_missing = True
        if run_gate(args) == 0:
            print("self-test FAILED: --fail-on-missing did not flag a "
                  "dropped baseline row", file=sys.stderr)
            return 1
    print("self-test PASS: gate trips on a 20% drop and passes on baseline",
          file=sys.stderr)
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh", nargs="*", help="fresh BENCH_*.json files")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--qps-tolerance", type=float, default=0.15,
                    help="allowed fractional qps drop (default 0.15)")
    ap.add_argument("--p99-tolerance", type=float, default=0.25,
                    help="allowed fractional p99 rise (default 0.25)")
    ap.add_argument("--require-row", action="append", default=[],
                    metavar="BENCH:MODE[@THREADS]",
                    help="fail unless this row is present in a fresh run "
                         "(repeatable; threads defaults to 1)")
    ap.add_argument("--fail-on-missing", action="store_true",
                    help="treat a baseline row with no matching fresh row "
                         "as a regression instead of a benign MISSING")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate logic on synthetic data and exit")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.fresh:
        ap.error("no fresh JSON files given (or use --self-test)")
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
