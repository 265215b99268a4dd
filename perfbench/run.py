#!/usr/bin/env python3
"""AMR-step benchmark: builds the driver from source, runs one workload and
passes its result through.

    python3 perfbench/run.py --workload icesheet_p64 --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --smoke                   # reduced-size self-check

The driver (perfbench/amr_step.cpp) is configured with CMake into
.bench_build/perfbench at the repository root and rebuilt incrementally
before each run.  The last line of stdout is the driver's JSON result; build
output goes to stderr.  Exit code 0 means every output check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "octbal_perfbench")
WORKLOADS = ["icesheet_p64", "fractal_p256", "front_churn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Smoke sizes: the same code path at a smaller lmax.
SMOKE_LMAX = {"icesheet_p64": 5, "fractal_p256": 5, "front_churn": 4}


def run_proc(cmd, timeout, capture):
    """Run cmd in its own process group; on timeout or interrupt kill the
    whole group and wait for it, so no process outlives this script."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run_proc(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    code, _ = run_proc(
        ["cmake", "--build", BUILD, "-j4", "--target", "octbal_perfbench"],
        BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        sys.exit("perfbench: build failed")


def run_workload(workload, seed, seconds, trace, lmax=None):
    """Run the driver once; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if lmax is not None:
        cmd += ["--lmax", str(lmax)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "spans_%s_%d.json" % (workload, seed))]
    try:
        return run_proc(cmd, RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke():
    """Every workload at a reduced lmax, both passes: every metric named in
    BENCHMARK.json must print with its unit, and no check may fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(w, 2012, 2, trace, SMOKE_LMAX[w])
            sys.stdout.write(out)
            res = last_json(out)
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or res is None:
                problems.append("%s: exit code %d" % (tag, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: fail_frac %d/%d" %
                                (tag, res["failed"], res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for name, unit in expect[trace].items():
                if got.get(name) != unit:
                    problems.append("%s: metric %s [%s] missing or mis-united"
                                    % (tag, name, unit))
            for name in got.keys() - expect[trace].keys():
                problems.append("%s: metric %s not in BENCHMARK.json" % (tag, name))
            if "fail_frac 0 ratio" not in out:
                problems.append("%s: fail_frac line missing or nonzero" % tag)
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2012)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    if args.smoke:
        return smoke()
    worst = 0
    results = {}
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        code, out = run_workload(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        if args.workload != "all":
            sys.stdout.write(out)
        else:
            sys.stdout.write("\n".join(out.splitlines()[:-1]) + "\n")
            results[w] = last_json(out)
    if args.workload == "all":
        print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
