#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which pulls in the kronotri library and CLI from the
parent directory) into .bench_build/perfbench, then runs the driver with the
environment its workload is defined with, and passes its output through. The
last stdout line is the driver's JSON result. Build output goes to stderr.
Any failure exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "tmp")

# The in-process workloads keep two threads busy on a 4-core box: one plan
# with a 2-thread OpenMP team, or the service's two job workers with one
# thread each. A full team per plan or per job oversubscribes the cores, and
# whatever else runs on a shared box then swings wall time between identical
# runs. The multi-process workload keeps the program's default team in every
# child, as a user's run would.
OMP_TEAM = {"validate_stream": "2", "census_truss": "2", "service_mix": "1",
            "distributed": None}
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(OMP_TEAM))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    build()
    os.makedirs(SCRATCH, exist_ok=True)

    env = dict(os.environ)
    env["TMPDIR"] = SCRATCH  # runner fragments and worker traces
    env.pop("KRONOTRI_FAULT", None)
    env.pop("OMP_NUM_THREADS", None)
    if OMP_TEAM[args.workload]:
        env["OMP_NUM_THREADS"] = OMP_TEAM[args.workload]

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Own session, so a timeout can stop the driver with every worker it
    # forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: driver exited %d" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
