#!/usr/bin/env python3
"""laxml-bench: one benchmark run against the shipped laxml_server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the engine, laxml_server, laxml_fsck
and the load generator from source into $CARGO_TARGET_DIR (default
.bench_build), then runs perfbench_gen, whose last stdout line is the
result JSON. Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["laxml_server", "laxml_fsck", "perfbench_gen"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out, targets):
    """Configures and builds `targets`; the log goes to out/build.log."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    out = build_dir()
    if args.self_test:
        if not build(out, ["perfbench_test", "laxml_server"]):
            return 1
        return subprocess.call([os.path.join(out, "perfbench_test")])
    if not args.workload:
        parser.error("--workload is required")
    if not build(out, TARGETS):
        return 1
    cmd = [os.path.join(out, "perfbench_gen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", out, "--work-dir", os.path.join(out, "runs")]
    # Its own process group, so the servers it starts can be stopped
    # with it if it is killed or dies without stopping them.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        rc = 1
    stop_group(proc)
    return rc


def stop_group(proc):
    """SIGKILLs what is left of `proc`'s process group and waits for it."""
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.01)
    proc.wait()


if __name__ == "__main__":
    sys.exit(main())
