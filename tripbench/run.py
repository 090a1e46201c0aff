#!/usr/bin/env python3
"""Document-trip benchmark for xpstreamd.

Builds the xpstream libraries, the xpstreamd daemon and the xptrip load
generator from this checkout (into .bench_build/tripbench), then runs one
workload against a freshly spawned daemon:

    python3 tripbench/run.py --workload bib-fanout --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 is the traced run: it
reports the per-layer metrics and writes its spans as JSONL under
.bench_build/tripbench/traces/<workload>.jsonl. Build output goes to
standard error.
Exit status is 0 only for a correct run.
"""

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tripbench"
WORKLOADS = ("bib-fanout", "dissem-1k", "deep-early")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns False when either fails."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "xptrip",
         "xpstreamd"], stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-verdict", action="store_true",
                        help="flip one reference verdict (the run must fail)")
    args = parser.parse_args()

    if not build():
        print("tripbench: build failed", file=sys.stderr)
        return 1
    command = [str(BUILD / "xptrip"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--server", str(BUILD / "xpstream" / "src" / "xpstreamd")]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}.jsonl")]
    if args.plant_wrong_verdict:
        command.append("--plant-wrong-verdict")
    sys.stdout.flush()
    # Its own process group, so that every xpstreamd it spawned can be
    # stopped even if xptrip itself dies or overruns.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tripbench: run timed out", file=sys.stderr)
        return 1
    finally:
        stop_group(process)


def stop_group(process):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
