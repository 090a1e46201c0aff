#!/usr/bin/env python3
"""Smoke check of the document-trip benchmark.

    python3 tripbench/smoke.py

For every workload in BENCHMARK.json: a short untraced run and a short
traced run must exit 0, be correct, and print every end-to-end (resp.
per-layer) metric by name with its unit; a run with one planted wrong
reference verdict must fail. Finally, the benchmark copied without the
repository's sources must fail without printing a result. Exits non-zero
when any check fails.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def run(args, cwd=ROOT):
    command = [sys.executable, str(cwd / "tripbench" / "run.py")] + args
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(stdout):
    """The trailing JSON result object, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def printed(stdout, name, unit):
    """Whether a human-readable line reports `name` with `unit`."""
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == name and fields[2] == unit:
            return True
    return False


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", "2"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(base + ["--trace", str(trace)])
            result = result_of(proc.stdout) or {}
            check(proc.returncode == 0 and result.get("correct") is True,
                  f"{workload} --trace {trace}: exits 0 and is correct")
            for metric in SPEC[group]:
                name, unit = metric["name"], metric["unit"]
                got = result.get("metrics", {}).get(name, {})
                check(got.get("unit") == unit and printed(proc.stdout, name, unit),
                      f"{workload} --trace {trace}: reports {name} in {unit}")
        proc = run(base + ["--trace", "0", "--plant-wrong-verdict"])
        result = result_of(proc.stdout) or {}
        check(proc.returncode != 0 and result.get("correct") is False
              and result.get("failed", 0) > 0,
              f"{workload}: a planted wrong reference verdict fails the run")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and result_of(proc.stdout) is None,
          "without the repository's sources: fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
