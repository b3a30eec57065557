#!/usr/bin/env python3
"""Repository benchmark: builds zbench from the checkout's sources and runs
one workload.

Run from the root of a checkout:

  python3 zbench/run.py --workload sc_epochs --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result
({"correct", "attempted", "failed", "metrics"}); the lines above it name
every figure with its unit. --trace 1 reports the per-layer metrics instead
of the end-to-end ones and writes the spans to .bench_out/.

Stability mode repeats a workload over consecutive seeds and prints each
metric's median, quartiles and spread (interquartile range / median):

  python3 zbench/run.py --workload all --seed 1 --seconds 10 --repeat 10

With --trace both, every seed runs untraced and traced, and the tracing
overhead (traced vs untraced throughput) is printed as well.

  python3 zbench/run.py --self-test      # the benchmark's own check tests
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["sc_epochs", "mc_catchup", "gossip_128"]
# Report line naming each workload's throughput (printed in both modes).
THROUGHPUT_LINE = {
    "sc_epochs": "sc_payments_per_s",
    "mc_catchup": "catchup_blocks_per_s",
    "gossip_128": "gossip_blocks_per_s",
}
RUN_TIMEOUT_S = 175


def fail(msg):
    print("zbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "zbench")


def build(tests=False):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so that stdout stays the benchmark's own."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/core/engine.hpp")):
        fail("run from the root of a repository checkout (CMakeLists.txt and src/ not found)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    configure = ["cmake", "-S", "zbench", "-B", bdir,
                 "-DZBENCH_BUILD_TESTS=" + ("ON" if tests else "OFF")]
    if not os.path.isfile(cache) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(cache) or tests:
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    target = "zbench_tests" if tests else "zbench"
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(bdir, target)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (result dict, report lines dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed))
    if proc.returncode != 0:
        fail("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s seed %d printed nothing" % (workload, seed))
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                report[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result, report


def spread_table(title, per_metric):
    rows = {}
    print(title)
    for name, values in sorted(per_metric.items()):
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "n": len(values)}
        print("  %-28s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f" %
              (name, med, q1, q3, spread))
    return rows


def stability(binary, args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace == "both" else [args.trace == "1"]
    summary = {}
    all_correct = True
    for wl in workloads:
        # Seeds outer, modes inner: with --trace both, each traced run sits
        # next to its untraced twin, so host drift hits both alike, and the
        # order alternates between seeds.
        metrics = {m: {} for m in modes}
        reports = {m: {} for m in modes}
        failed_share = {m: set() for m in modes}
        for k in range(args.repeat):
            seed = args.seed + k
            for trace in (modes if k % 2 == 0 else modes[::-1]):
                t0 = time.time()
                res, rep = run_once(binary, wl, seed, args.seconds, trace, echo=False)
                all_correct &= bool(res["correct"])
                failed_share[trace].add(res["failed"] / res["attempted"])
                print("%s seed %d trace %d: correct %s attempted %d failed %d (%.1f s)" %
                      (wl, seed, trace, res["correct"], res["attempted"], res["failed"],
                       time.time() - t0), flush=True)
                for name, m in res["metrics"].items():
                    metrics[trace].setdefault(name, []).append(m["value"])
                for name, v in rep.items():
                    reports[trace].setdefault(name, []).append(v)
        summary[wl] = {}
        for trace in modes:
            rows = spread_table("%s trace %d (%d seeds)" % (wl, trace, args.repeat),
                                metrics[trace])
            summary[wl]["trace%d" % trace] = {
                "metrics": rows, "failed_share": sorted(failed_share[trace]),
                "report": {k: statistics.median(v) for k, v in reports[trace].items()}}
        if len(modes) == 2:
            name = THROUGHPUT_LINE[wl]
            pairs = zip(reports[False].get(name, []), reports[True].get(name, []))
            overheads = [(off - on) / off * 100.0 for off, on in pairs if off]
            if overheads:
                overhead = statistics.median(overheads)
                summary[wl]["tracing_overhead_pct"] = overhead
                print("  tracing overhead on %s: %.2f%% (median of %d seed pairs: %s)" %
                      (name, overhead, len(overheads),
                       ", ".join("%.2f" % o for o in overheads)))
    print(json.dumps({"correct": all_correct, "stability": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--repeat", type=int, default=0,
                    help="stability mode: run this many consecutive seeds")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's check tests")
    args = ap.parse_args()

    if args.self_test:
        binary = build(tests=True)
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    binary = build()
    if args.repeat > 0:
        stability(binary, args)
        return
    if args.workload == "all" or args.trace == "both":
        fail("a single run takes one workload and --trace 0 or 1")
    run_once(binary, args.workload, args.seed, args.seconds, args.trace == "1")


if __name__ == "__main__":
    main()
