#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 10 --trace 0

Builds the library from ../src together with the benchmark program into
.bench_build at the checkout root (CMake, Release), runs one workload, checks
that the reported metrics are exactly the ones BENCHMARK.json lists, and
prints the program's result as the last line of standard output. Exits
non-zero when the build or any check fails; a failed correctness gate still
prints its result line, with "correct": false.

Extra modes:
    --self-test       build and run the benchmark's own unit tests
    --check-repeat    run twice with one seed and require equal digests of
                      the simulated outputs
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("offline_batch", "online_multihost", "drift_writes")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target`; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    path = os.path.join(BUILD, target)
    return path if os.access(path, os.X_OK) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(exe, args):
    """Run the benchmark program; returns (exit code, stdout lines)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, trace):
    """Validate the program's last line against BENCHMARK.json."""
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected keys {sorted(result)}")
        return result, problems
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, unit mismatch {units}")
    if not result["correct"] or result["failed"]:
        problems.append("the correctness gate failed")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return result, problems


def digest_of(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[-1]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        exe = build("perfbench_tests")
        if exe is None:
            log("build failed")
            return 1
        return subprocess.run([exe]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("upanns_perfbench")
    if exe is None:
        log("build failed")
        return 1

    code, lines = run_once(exe, args)
    if args.check_repeat:
        code2, lines2 = run_once(exe, args)
        first, second = digest_of(lines), digest_of(lines2)
        same = first is not None and first == second
        log(f"digests {first} / {second}: {'equal' if same else 'DIFFER'}")
        if not same or code2:
            return 1

    for line in lines[:-1]:
        print(line)
    result, problems = check_result(lines, args.trace)
    for p in problems:
        log(p)
    if result is not None and "metrics" in result:
        # A failed gate still reports what was measured, with
        # "correct": false, and the exit code says it failed.
        print(json.dumps(result), flush=True)
    if code or problems:
        log(f"benchmark program exit code {code}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
