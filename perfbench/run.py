#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload view_fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The harness is built from source into
$CARGO_TARGET_DIR (default .bench_build) under the checkout; all scratch
files stay there. The last stdout line of a run is the result object.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the harness; returns the binary path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no chronicle sources under {ROOT / 'src'}")
        return None
    out = build_root() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def run_binary(args):
    """Runs the harness, relays its output, returns (exit code, stdout lines)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, stdout.splitlines()


def check_result(line, trace, spec):
    """The result object must carry exactly the metrics BENCHMARK.json declares."""
    try:
        result = json.loads(line)
    except (ValueError, TypeError):
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ"
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        return f"metric set differs: {sorted(set(result['metrics']) ^ want)}"
    return None


def selftest(binary, spec):
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(f"selftest: {what:<58} {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1

    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    expect(len(names) == len(set(names)), "BENCHMARK.json metric names are unique")
    expect(all(NAME_RE.match(n) for n in names), "BENCHMARK.json metric names match the pattern")
    listed = subprocess.run([str(binary), "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split()
    declared = {(k, m["name"]) for k in ("end_to_end", "per_layer") for m in spec[k]}
    expect(set(zip(listed[0::2], listed[1::2])) == declared,
           "the harness reports exactly the declared metrics")
    sys.stdout.flush()
    rc, lines = run_binary([str(binary), "--selftest",
                            "--work-dir", str(build_root() / f"selftest-{os.getpid()}")])
    for line in lines:
        print(line)
    expect(rc == 0, "harness self-tests")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("BENCHMARK.json not found")
        return 2
    spec = json.loads(spec_path.read_text())
    binary = build()
    if binary is None:
        return 2
    if opts.selftest:
        return selftest(binary, spec)
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        # The harness rejects names it does not know; a known workload that
        # BENCHMARK.json does not list still runs, ungated.
        log(f"{opts.workload!r} is not a BENCHMARK.json workload")

    work = build_root() / f"work-{os.getpid()}"
    traces = build_root() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    rc, lines = run_binary([
        str(binary), "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--work-dir", str(work), "--trace-dir", str(traces),
    ])
    if not lines:
        log(f"harness exited {rc} without output")
        return rc or 1
    for line in lines[:-1]:
        print(line)
    problem = check_result(lines[-1], opts.trace == 1, spec)
    if problem is not None:
        log(problem)
        return rc or 1
    print(lines[-1], flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
