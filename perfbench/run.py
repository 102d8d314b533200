#!/usr/bin/env python3
"""The repository's benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (which compiles src/) into .bench_build/perfbench; later runs
reuse that build. A run prints a human-readable report, a `machine:` line
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. The metric names must match BENCHMARK.json, or the run
exits non-zero without a result. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden_digests.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs cmd, echoing its output to stderr only if it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    start = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs],
              max(1, BUILD_TIMEOUT_S - int(time.monotonic() - start)))


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    if compiler != "unknown":
        try:
            compiler = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                      timeout=30).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=30).stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "revision": revision}


def check_result(result, spec, trace):
    """Rejects a result whose shape or metric names differ from BENCHMARK.json."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys")
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: want {sorted(want.items())}, "
             f"got {sorted(got.items())}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")


def run_workload(args, spec):
    build()
    scratch = os.path.join(BUILD, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN, "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    check_result(result, spec, args.trace)
    print("\n".join(lines[:-1]))
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(json.dumps(result))


def selftest(spec):
    """Builds and runs the C++ self-test, then checks BENCHMARK.json's names."""
    build()
    print(run_quiet([os.path.join(BUILD, "perfbench_selftest")], RUN_TIMEOUT_S), end="")
    listed = run_quiet([os.path.join(BUILD, "perfbench_run"), "--list-metrics"], 60)
    program = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listed.splitlines():
        kind, *fields = line.split()
        program[kind].append(tuple(fields))
    problems = []
    if [w["name"] for w in spec["workloads"]] != [w for (w,) in program["workload"]]:
        problems.append("workload names differ between BENCHMARK.json and the program")
    for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
        names = [(m["name"], m["unit"]) for m in spec[kind]]
        if names != program[kind]:
            problems.append(f"{kind} metrics differ between BENCHMARK.json and the program")
        if not 1 <= len(names) <= limit:
            problems.append(f"{kind} has {len(names)} metrics (limit {limit})")
        for name, unit in names:
            if not NAME_RE.match(name) or not UNIT_RE.match(unit):
                problems.append(f"bad metric name or unit: {name} {unit}")
    all_names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    all_names += [w["name"] for w in spec["workloads"]]
    if len(set(all_names)) != len(all_names):
        problems.append("a name is used twice in BENCHMARK.json")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("setup_s (s, lower) is missing from end_to_end")
    for problem in problems:
        print(f"FAIL {problem}")
    print("PASS BENCHMARK.json names" if not problems else "selftest FAILED")
    sys.exit(1 if problems else 0)


def main():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run_workload(args, spec)


if __name__ == "__main__":
    main()
