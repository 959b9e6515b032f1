"""Benchmark of the stieltjes-ode CLI: one workload, one seed, one run.

    python3 bench/run.py --workload linear|silkworm|quadrature|bounds
                         --seed N --seconds S --trace 0|1 [--size full|tiny]

Starts fresh single-threaded child processes (``child.py``), one at a time,
until ``--seconds`` are used (at least two; three with ``--trace 1``).  All
children of a run get the same seed, so their output digests and counts must
agree.  Prints one line per metric with its median, quartiles and sample
count, writes the full record to ``.bench_out/results/``, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from traced children.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# name -> unit; which direction is better, and the bounds, are in
# BENCHMARK.json
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "max_err": "1"}
PER_LAYER = {
    "derivator.points": "count", "derivator.self_s": "s",
    "derivator.ns_per_point": "ns",
    "quadrature.cases": "count", "quadrature.oracle_points": "count",
    "quadrature.oracle_s": "s", "quadrature.ns_per_oracle_point": "ns",
    "quadrature.rule_calls": "count", "quadrature.rule_us_per_call": "us",
    "quadrature.case_ms": "ms", "quadrature.self_s": "s",
    "solver.steps": "count", "solver.solve_s": "s", "solver.us_per_step": "us",
    "solver.partition_s": "s", "solver.ns_per_node": "ns",
    "solver.rhs_calls": "count", "solver.history_integrals": "count",
    "solver.self_s": "s",
    "models.exact_setup_s": "s", "models.rhs_calls": "count",
    "models.rhs_us_per_call": "us", "models.self_s": "s",
    "linear.exact_points": "count", "linear.exact_s": "s",
    "linear.ns_per_point": "ns",
    "analysis.report_s": "s", "analysis.truncation_us_per_node": "us",
    "analysis.constants_us_per_node": "us",
    "analysis.rhs_calls_per_node": "calls/node", "analysis.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
}
# quantities reported next to the metrics, where the workload defines them
INFO = {"order": "1", "err_to_bound": "1", "fail_frac": "1"}

RUN_LIMIT_S = 170.0       # a run must end within 180 s
MIN_CHILDREN = 2
# Every reported time is in reference seconds: seconds on a machine that runs
# child.py's calibration kernel, its scalar part alone or the whole, in these
# times.  A child's factor is the reference time of what its workload uses
# (workloads.CALIBRATION) over the mean time of that in the calibrations it
# ran between its CLI calls.  A shared 2-vCPU virtual machine can change speed by up to 80%
# within a minute, and the factor cancels most of that; raw seconds stay in
# the record.
CALIBRATION_REF_S = {"scalar": 0.012, "whole": 0.020}


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STIELTJES_SEED", None)     # the reference calls use the default
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, index, traced, deadline):
    """Run one child; returns its record (wall, peak RSS, result or error)."""
    work = os.path.join(ROOT, ".bench_out", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    log_path = os.path.join(work, "child.log")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(traced)),
           "--t0", repr(t0), "--workdir", work, "--result", result_path]
    if args.plant:
        cmd.append("--plant")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (Ctrl-C, SIGTERM): take the child down with us
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"traced": traced, "wall_s": wall,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,    # KiB on Linux
              "exit_code": proc.returncode}
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as fh:
            record["result"] = json.load(fh)
        calibration = record["result"]["calibration_s"]
        kind = workloads.CALIBRATION[args.workload]
        record["speed"] = CALIBRATION_REF_S[kind] / statistics.fmean(
            scalar if kind == "scalar" else scalar + vector
            for scalar, vector in calibration)
        record["wall_ref_s"] = (wall - sum(map(sum, calibration))) \
            * record["speed"]
    else:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            record["error"] = fh.read()[-2000:]
    shutil.rmtree(work, ignore_errors=True)
    return record


def run_children(args):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    schedule = [False, True, True] if args.trace else [False] * MIN_CHILDREN
    records = []
    while True:
        if len(records) < len(schedule):
            traced = schedule[len(records)]
        else:
            # with tracing, alternate so both kinds see the same conditions
            traced = bool(args.trace) and not records[-1]["traced"]
            walls = [r["wall_s"] for r in records if r["traced"] == traced]
            if time.monotonic() - start + statistics.median(walls) > args.seconds:
                break
        records.append(run_child(args, len(records), traced, deadline))
        if "result" not in records[-1]:
            break
    return records


def _environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def aggregate(args, records):
    """Metrics of the run, the reproducibility verdict and the failures."""
    attempted = failed = 0
    failures = []
    results = [r for r in records if "result" in r]
    for r in records:
        if "result" not in r:
            attempted += 1
            failed += 1
            failures.append(f"child exited {r['exit_code']}: {r['error']}")
            continue
        for op in r["result"]["ops"]:
            attempted += 1
            if op["failures"]:
                failed += 1
                failures.append(f"{' '.join(op['argv'])}: {op['failures']}")
    # same seed, same code: every child must write the same bytes and,
    # when traced, count the same work
    attempted += 1
    digests = {json.dumps([op["sha256"] for op in r["result"]["ops"]])
               for r in results}
    accuracy = {json.dumps(r["result"]["metrics"], sort_keys=True)
                for r in results}
    counts = {json.dumps(r["result"]["trace"]["counts"], sort_keys=True)
              for r in results if r["traced"]}
    if len(digests) > 1 or len(accuracy) > 1 or len(counts) > 1:
        failed += 1
        failures.append("children with the same seed disagree: "
                        f"{len(digests)} digest sets, {len(accuracy)} "
                        f"accuracy sets, {len(counts)} count sets")

    samples = {}
    plain = [r for r in results if not r["traced"]]
    for r in plain:
        samples.setdefault("wall_s", []).append(r["wall_ref_s"])
        samples.setdefault("setup_s", []).append(
            r["result"]["setup_s"] * r["speed"])
        samples.setdefault("peak_rss_mb", []).append(r["peak_rss_mb"])
    if results:
        first = results[0]["result"]["metrics"]
        for name in ("max_err", "order", "err_to_bound"):
            samples[name] = [first[name]]
    samples["fail_frac"] = [failed / attempted]
    if args.trace:
        import spans
        traced = [r for r in results if r["traced"]]
        for r in traced:
            report = spans.scaled(r["result"]["trace"], r["speed"])
            layer = spans.layer_metrics(report)
            attributed = sum(report["layer_self_s"].values())
            layer["trace.wall_s"] = r["wall_ref_s"]
            layer["trace.attributed_s"] = attributed
            layer["trace.unattributed_s"] = r["wall_ref_s"] - attributed
            for name, value in layer.items():
                samples.setdefault(name, []).append(value)
        if traced and plain:
            untraced = statistics.median(r["wall_ref_s"] for r in plain)
            samples["trace.untraced_wall_s"] = [r["wall_ref_s"] for r in plain]
            samples["trace.overhead_s"] = [
                statistics.median(samples["trace.wall_s"]) - untraced]
    return samples, attempted, failed, failures


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) \
        else None


def run_workload(args):
    """Run one workload; prints its metrics and returns the result line."""
    records = run_children(args)
    samples, attempted, failed, failures = aggregate(args, records)
    names = PER_LAYER if args.trace else END_TO_END
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(records)} size={args.size}")
    summary = {}
    for name, unit in list(names.items()) + list(INFO.items()):
        values = samples.get(name)
        if not values:
            # a per-layer metric of a layer this workload never calls
            summary[name] = {"value": 0.0 if name in names else None,
                             "unit": unit, "n": 0}
        else:
            q1, med, q3 = _quartiles(values)
            summary[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                             "n": len(values)}
        s = summary[name]
        if _number(s["value"]) is None:
            print(f"  {name:34s} n/a")
        elif s["n"] > 1:
            print(f"  {name:34s} {s['value']:.6g} {unit}  (quartiles "
                  f"{s['q1']:.6g} .. {s['q3']:.6g}, n={s['n']})")
        else:
            print(f"  {name:34s} {s['value']:.6g} {unit}")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    out_dir = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "environment": _environment(args.seed),
        "metrics": summary, "attempted": attempted, "failed": failed,
        "failures": failures,
        "children": [{k: v for k, v in r.items() if k != "result"}
                     | ({"setup_s": r["result"]["setup_s"],
                         "calibration_s": r["result"]["calibration_s"],
                         "sha256": [op["sha256"] for op in r["result"]["ops"]]}
                        if "result" in r else {}) for r in records],
    }
    tag = hashlib.sha256(repr(sorted(vars(args).items())).encode()).hexdigest()[:8]
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(summary[name]["value"]),
                           "unit": unit} for name, unit in names.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--plant", action="store_true",
                        help="perturb every output file (self-test only)")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS + ("all",):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: the seed must be nonnegative, got {args.seed}",
              file=sys.stderr)
        return 2
    package = os.path.join(ROOT, "src", "stieltjes_ode", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no package source at {package}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    # every workload in turn; the last line nests one result per workload
    lines = {}
    for workload in workloads.WORKLOADS:
        args.workload = workload
        lines[workload] = run_workload(args)
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{w}.{name}": m for w, v in lines.items()
                    for name, m in v["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
