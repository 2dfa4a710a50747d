#!/usr/bin/env python3
"""Build and run the repository benchmark, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--reference FILE]

Builds perfbench/bench.exe with dune under the build directory named by
CARGO_TARGET_DIR (default .bench_build), then runs it with the same
arguments.  The benchmark's standard output is passed through; its last
line is the JSON result.  See perfbench/NOTES.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["table3-aso", "fig6-faults", "fabric-small"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, env=None):
    """Run cmd in a process group of its own, capturing stdout and stderr.

    On timeout, or when cmd exits, every process left in the group is
    killed, so nothing the benchmark started outlives this call.
    """
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if timed_out:
        out, err = proc.communicate()
        sys.stderr.write(err)
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out, err


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--reference", default="perfbench/reference.txt")
    args = ap.parse_args()

    # the benchmark builds the program from the checkout's sources
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a repository checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _, err = run_group(
        [dune, "build", "--root", ".", "--build-dir", os.path.join(build_dir, "dune"),
         "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0:
        sys.stderr.write(err)
        fail("build failed")

    # relative, so fabric socket paths stay short whatever the checkout path
    out_dir = os.path.relpath(os.path.join(build_dir, "perfbench"))
    exe = os.path.join(build_dir, "dune", "default", "perfbench", "bench.exe")
    code, out, err = run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size, "--reference", args.reference, "--out", out_dir],
        RUN_TIMEOUT_S,
    )
    sys.stderr.write(err)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"bench.exe exited with code {code}")


if __name__ == "__main__":
    main()
