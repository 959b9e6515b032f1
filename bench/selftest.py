"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For each workload at the tiny size it checks that

* an untraced run is correct and emits every end-to-end metric of
  BENCHMARK.json with its unit, each a positive number;
* a traced run is correct and emits every per-layer metric with its unit;
* a run whose output files are perturbed after each CLI call (``--plant``)
  is not correct and counts the perturbed operations as failed.

It also runs the benchmark in a directory that holds only BENCHMARK.json and
the benchmark's own files, where it must fail without printing a result.
Prints one PASS or FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--seed", "7", "--seconds", "1",
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _last_json(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    results = []

    def report(ok, text):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {text}", flush=True)

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _run(["--workload", workload, "--trace", str(trace)])
            line = _last_json(proc)
            if line is None:
                report(False, f"{workload} trace={trace}: no result line "
                              f"(exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            ok = (proc.returncode == 0 and line["correct"]
                  and line["failed"] == 0 and line["attempted"] >= 1
                  and units == expected[trace])
            if trace == 0:
                ok = ok and all(isinstance(v["value"], (int, float))
                                and v["value"] > 0
                                for v in line["metrics"].values())
            report(ok, f"{workload} trace={trace}: correct={line['correct']} "
                       f"{line['failed']}/{line['attempted']} failed, "
                       f"{len(units)} metrics, names and units "
                       f"{'match' if units == expected[trace] else 'DIFFER'}")
        proc = _run(["--workload", workload, "--trace", "0", "--plant"])
        line = _last_json(proc)
        ok = (line is not None and not line["correct"]
              and line["failed"] >= 1)
        report(ok, f"{workload} planted wrong output: "
                   f"{line and line['failed']}/{line and line['attempted']} "
                   "operations counted as failed")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(["--workload", "linear", "--trace", "0"], cwd=bare,
                script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    report(proc.returncode != 0 and _last_json(proc) is None,
           f"without the package source: exit {proc.returncode}, "
           f"{proc.stderr.strip()[:120]!r}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
