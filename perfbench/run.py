#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --reference --seed <n>

Run from the root of a checkout. Every call configures and builds the
repo's `pf` library and the benchmark program under .bench_build/perfbench:
the first takes a few minutes, later ones only rebuild what changed. A build
directory configured for a checkout at another path (the checkout was moved
or copied with it) is removed and built afresh, since CMake refuses to reuse
it. Build output goes to standard error. The program's last line of standard output is the result:
one JSON object with correct, attempted, failed and the metrics of the
run's mode, whose names are checked against BENCHMARK.json. A traced run
(--trace 1) also writes a Chrome trace to .bench_build/traces/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")


def configured_elsewhere():
    """True when BUILD holds a CMake cache made for other source or build paths."""
    want = {"CMAKE_HOME_DIRECTORY": HERE, "CMAKE_CACHEFILE_DIR": BUILD}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.rstrip("\n").partition(":INTERNAL=")
                if key in want and os.path.normpath(value) != os.path.normpath(want[key]):
                    return True
    except OSError:
        pass
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no CMakeLists.txt at %s; run from a checkout of the repo" % ROOT)
    if configured_elsewhere():
        print("run.py: %s was configured for another checkout path; rebuilding" % BUILD,
              file=sys.stderr)
        shutil.rmtree(BUILD)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(len(os.sched_getaffinity(0)))],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def run_program(args, timeout):
    """Runs the program in its own process group, so that the group (forked
    children included) is killed on timeout or when run.py is told to stop."""
    proc = subprocess.Popen([PROGRAM] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        sys.exit("run.py: stopped by signal %d" % signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("run.py: benchmark program exceeded %g s" % timeout)
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", action="store_true",
                   help="print the README's reference figures for --seed")
    a = p.parse_args()
    # The measuring time, then the output checks and probes (a few seconds)
    # and set-up; a 30-second run ends within 170 s.
    timeout = a.seconds + 140
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    if a.reference:
        code, out = run_program(["--reference", "--seed", str(a.seed)], timeout)
        sys.stdout.write(out)
        sys.exit(code)
    if not a.workload:
        p.error("--workload is required")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    code, out = run_program([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", str(a.trace),
        "--trace-out", os.path.join(traces, "%s_seed%d.json" % (a.workload, a.seed))],
        timeout)
    lines = out.strip().splitlines()
    if not lines:
        sys.exit(code or 1)
    want = expected_metrics(a.trace)
    got = sorted(json.loads(lines[-1])["metrics"])
    if want is not None and got != want:
        sys.exit("run.py: printed metrics %s do not match BENCHMARK.json %s" % (got, want))
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
