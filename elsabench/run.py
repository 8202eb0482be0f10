#!/usr/bin/env python3
"""Run one workload of the ELSA benchmark and print its result line.

    python3 elsabench/run.py --workload bgl|mercury --seed N --seconds S --trace 0|1

From the root of a checkout: builds the harness (elsabench/CMakeLists.txt,
which compiles ELSA from the checkout's src/) into
$CARGO_TARGET_DIR/elsabench (default .bench_build/elsabench), runs the
harness self-tests, then one measurement. The harness's report goes to
stdout; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end_to_end metrics
of BENCHMARK.json, --trace 1 its per_layer metrics (and writes the spans
next to the build). For the pinned seed in elsabench/manifest.json the
output digests must equal the pinned ones.

Exit status: 2 for bad arguments (with usage), 1 when the build, a
self-test or the run fails (no result line), 0 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
USAGE = ("usage: python3 elsabench/run.py --workload bgl|mercury --seed N "
         "--seconds S --trace 0|1")
# The first run of a checkout builds; every run must end within 180 s.
BUILD_TIMEOUT_S = 840
SELFTEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def usage(message):
    print(f"run.py: {message}\n{USAGE}", file=sys.stderr)
    sys.exit(2)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def parse_args(argv, workloads):
    opts = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in FLAGS:
            usage(f"unknown argument {flag!r}")
        if flag in opts:
            usage(f"repeated flag {flag}")
        if i + 1 >= len(argv):
            usage(f"missing value for {flag}")
        opts[flag] = argv[i + 1]
        i += 2
    for flag in FLAGS:
        if flag not in opts:
            usage(f"missing {flag}")
    if opts["--workload"] not in workloads:
        usage(f"unknown workload {opts['--workload']!r}")
    seed, seconds = opts["--seed"], opts["--seconds"]
    if not (seed.isascii() and seed.isdigit()) or int(seed) >= 2**64:
        usage("--seed wants an unsigned 64-bit integer")
    if not (seconds.isascii() and seconds.isdigit()) or not 1 <= int(seconds) <= 3600:
        usage("--seconds wants an integer from 1 to 3600")
    if opts["--trace"] not in ("0", "1"):
        usage("--trace wants 0 or 1")
    return opts


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ELSA sources under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "elsabench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(build_dir):
        configure += ["-G", "Ninja"]
    if not run_quiet(configure, BUILD_TIMEOUT_S):
        # A build tree configured for another source path: start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not run_quiet(configure, BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return build_dir, os.path.join(build_dir, "elsabench")


def run_harness(cmd, timeout):
    """Run the harness; returns its stdout lines. Exits 1 on failure."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(cmd)} did not finish within {timeout} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out.splitlines()


def main(argv):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    opts = parse_args(argv, workloads)
    workload, seed, trace = opts["--workload"], int(opts["--seed"]), opts["--trace"]

    build_dir, exe = build()
    for line in run_harness([exe, "--self-test"], SELFTEST_TIMEOUT_S):
        print(line, file=sys.stderr)

    # The harness takes the arguments checked above as they are.
    cmd = [exe, workload, str(seed), opts["--seconds"], trace]
    if trace == "1":
        cmd.append(os.path.join(build_dir, f"spans-{workload}-{seed}.tsv"))
    lines = run_harness(cmd, RUN_TIMEOUT_S)
    if not lines:
        fail("the harness printed nothing")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the harness's last line is not JSON: {lines[-1]!r}")

    # Exactly the metrics BENCHMARK.json declares, with its units.
    declared = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: extra {sorted(set(got) - set(want))}, "
             f"missing {sorted(set(want) - set(got))}, or units differ")
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} is not a finite number: {v!r}")

    correct = bool(result["correct"])
    attempted, failed = int(result["attempted"]), int(result["failed"])
    if seed == manifest["pinned_seed"]:
        # Each pinned digest is one more output check.
        pinned = manifest["digests"][workload]
        mismatches = 0
        for name, value in result["digests"].items():
            attempted += 1
            if pinned.get(name) != value:
                print(f"FAIL: digest {name} is {value}, pinned {pinned.get(name)}")
                mismatches += 1
        correct = correct and mismatches == 0
        failed += mismatches
        print(f"pinned digests for seed {seed}: "
              f"{'all match' if mismatches == 0 else 'MISMATCH'}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
