#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sb7-rw --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
perfbench/ (CMake + Ninja) into .bench_build/; later calls only let the
build check that it is up to date.  Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.  The run
length defaults to BENCHMARK.json's run_seconds.  Traced
runs (--trace 1) also write their spans as Chrome trace-event JSON to
.bench_build/traces/<workload>.json, replacing the previous one.  See
perfbench/README.md.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sb7-rw", "hotspot-rmw", "ledger-durable")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build; exits non-zero when either fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    return {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, workers=None):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, workload + ".json")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return p.returncode, p.stdout.splitlines()


def selftest():
    """Checker self-test, then every workload with a single worker."""
    work = os.path.join(BUILD, "selftest-%d" % os.getpid())
    try:
        ok = subprocess.run([os.path.join(BUILD, "perfbench_selftest"), work]).returncode == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for w in WORKLOADS:
        code, lines = run_once(w, 7, 1, True, workers=1)
        res = json.loads(lines[-1]) if code == 0 and lines else None
        # The P0 line also gives the warm-up's counts.
        p0 = [l for l in lines if l.startswith("P0 anomalies")]
        clean = (res is not None and res["correct"] and res["failed"] == 0 and
                 all(res["metrics"][k]["value"] == 0 for k in
                     ("check.torn_ops", "check.lost_increments", "check.ledger_legs_off")) and
                 len(p0) == 1 and
                 all(n == "0" for n in re.findall(r"=(\d+)", p0[0])))
        print("%s  %s with one worker: %s" % (
            "ok  " if clean else "FAIL", w,
            "no failed operation, no P0 anomaly" if clean else (lines[-4:] or code)))
        ok &= clean
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        return selftest()
    if a.workload is None:
        ap.error("--workload is required")
    seconds = a.seconds if a.seconds is not None else spec()["run_seconds"]
    code, lines = run_once(a.workload, a.seed, seconds, a.trace == 1)
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit("perfbench: run failed with exit code %d" % code)
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace == 1)
    if set(result["metrics"]) != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                 sorted(set(result["metrics"]) ^ want))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
