#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload papd_hot --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the src/ libraries it links) with CMake into
$CARGO_TARGET_DIR (default .bench_build), runs one workload and passes its
output through; the last line is the run's JSON result. `--workload all`
runs the four workloads in one process.

Every result is checked against the metric names and units BENCHMARK.json
lists for its pass.

Steadiness mode repeats runs over successive seeds (or, with --same-seed,
at one seed) and prints, per end-to-end metric, the median and the quartile
spread against the bound in BENCHMARK.json:

    python3 perfbench/run.py --steady [--repeat 10] [--workload NAME ...]
                             [--first-seed 1] [--same-seed] [--seconds S]
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["papd_hot", "papd_cold", "admit_churn", "scenario_sim"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure and build; returns the binary path or None."""
    top = build_dir()
    os.makedirs(top, exist_ok=True)
    cmake_dir = os.path.join(top, "cmake")
    with open(os.path.join(top, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        configured = any(os.path.exists(os.path.join(cmake_dir, f))
                         for f in ("Makefile", "build.ninja"))
        if not configured:
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return None
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def scratch_dir():
    # Relative, so the Unix socket path stays short.
    return os.path.relpath(os.path.join(build_dir(), "run"))


def run_binary(binary, workload, seed, seconds, trace, echo=True):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch_dir()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out")
        return 1, None
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def catalogue_errors(spec, result, trace):
    """Names or units of `result` that differ from BENCHMARK.json."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    errors = [f"missing {n}" for n in want if n not in got]
    errors += [f"unexpected {n}" for n in got if n not in want]
    errors += [f"{n} in {got[n]}, not {u}" for n, u in want.items()
               if n in got and got[n] != u]
    return errors


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def steady(args, binary, spec):
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload_list or [w["name"] for w in spec["workloads"]]
    ok = True
    for wl in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for k in range(args.repeat):
            seed = args.first_seed + (0 if args.same_seed else k)
            code, res = run_binary(binary, wl, seed, seconds, False, echo=False)
            if code != 0 or res is None or not res.get("correct") or \
                    catalogue_errors(spec, res, False):
                log(f"{wl} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            shares.add(res["failed"] / res["attempted"])
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed={seed} attempted={res['attempted']} "
                  f"failed={res['failed']} " +
                  " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds),
                  flush=True)
        seeds = (f"seed {args.first_seed}" if args.same_seed else
                 f"seeds {args.first_seed}..{args.first_seed + args.repeat - 1}")
        print(f"== {wl}: {args.repeat} runs of {seconds} s, {seeds} ==")
        print(f"{'metric':<14} {'median':>14} {'q-spread':>9} {'bound':>6} "
              f"{'spread/bound':>12}")
        for name, bound in bounds.items():
            vals = values[name]
            if not vals:
                continue
            spread = quartile_spread(vals)
            flag = "" if spread <= bound else "  OVER BOUND"
            if flag:
                ok = False
            print(f"{name:<14} {statistics.median(vals):>14.6g} "
                  f"{spread:>9.4f} {bound:>6.2f} {spread / bound:>12.3f}{flag}")
        print(f"failed shares: {sorted(shares)}", flush=True)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", dest="workload_list",
                   help="workload name, or 'all' (repeatable with --steady)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--repeat", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--same-seed", action="store_true",
                   help="with --steady, repeat at --first-seed")
    args = p.parse_args()

    if not args.steady:
        if not args.workload_list or len(args.workload_list) != 1:
            p.error("exactly one --workload is required")
        wl = args.workload_list[0]
        if wl not in WORKLOADS + ["all"]:
            p.error(f"unknown workload {wl}")
        if args.seconds is None or args.seconds <= 0:
            p.error("--seconds must be positive")
    elif args.workload_list:
        for wl in args.workload_list:
            if wl not in WORKLOADS:
                p.error(f"unknown workload {wl}")

    binary = build()
    if binary is None:
        log("build failed; no result")
        return 2
    spec = load_spec()
    if args.steady:
        return steady(args, binary, spec)
    wl = args.workload_list[0]
    code, res = run_binary(binary, wl, args.seed, args.seconds,
                           args.trace == "1")
    if res is None:
        log("no result line")
        return code or 1
    if wl != "all":
        errors = catalogue_errors(spec, res, args.trace == "1")
        if errors:
            log("result does not match BENCHMARK.json: " + "; ".join(errors))
            return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
