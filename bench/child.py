"""One benchmark child: run a workload's CLI calls once and report.

Started by ``run.py`` as a fresh single-threaded process, one at a time.  It
imports the package, generates the workload's argument lists from the seed,
calls ``stieltjes_ode.cli.main`` once per list, checks every output, hashes
every output file and writes one JSON result.  With ``--trace 1`` the calls
run under the per-layer tracer of ``spans.py``.

    python3 bench/child.py --workload W --seed N --size full|tiny --trace 0|1
        --t0 MONOTONIC_START --workdir DIR --result FILE [--plant]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import workloads


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _plant(path, column):
    """Double the value in ``column`` of the file's last row that has one
    (a zero becomes 1).

    Used by the self-test: a wrong value in an output file must be caught by
    the workload's checks and counted as a failed operation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().split("\n")
    for i in range(len(rows) - 1, 0, -1):
        fields = rows[i].split(",")
        try:
            value = float(fields[column])
        except (IndexError, ValueError):
            continue
        fields[column] = f"{2.0 * value if value else 1.0:.10e}"
        rows[i] = ",".join(fields)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows))
        return


_CAL_NODES = np.linspace(0.0, 1.0, 12001)
_CAL_VALUES = np.empty(len(_CAL_NODES))
_CAL_GRID = np.linspace(0.0, 1.0, 1 << 17)
_CAL_BUF = np.empty(len(_CAL_GRID))


def _calibrate():
    """Seconds the machine takes, right now, for a fixed piece of work.

    A Heun loop over numpy arrays, element by element, through a Python
    callable, then a few vector passes: the two kinds of work the package
    does, written without it.  Every array is allocated once, at import, so
    the time does not depend on the state of the child's heap.  ``run.py``
    divides the children's times by the scalar part's time or the whole's
    (``workloads.CALIBRATION``), so a host that slows down for a while slows
    both alike.  Returns the times of the two parts.
    """
    def f(t, y):
        return -0.5 * y + 0.25 * t

    t0 = time.perf_counter()
    nodes, values = _CAL_NODES, _CAL_VALUES
    values[0] = 1.0
    for k in range(len(nodes) - 1):
        t, u = nodes[k], values[k]
        dt = nodes[k + 1] - t
        slope = f(t, u)
        values[k + 1] = u + 0.5 * dt * (slope + f(t + dt, u + dt * slope))
    t1 = time.perf_counter()
    acc = float(values[-1])
    grid, buf = _CAL_GRID, _CAL_BUF
    for _ in range(12):
        np.negative(grid, out=buf)
        np.exp(buf, out=buf)
        np.multiply(buf, grid, out=buf)
        np.cumsum(buf, out=buf)
        acc += float(buf[-1])
    t2 = time.perf_counter()
    if not math.isfinite(acc):
        raise RuntimeError("calibration produced a non-finite value")
    return t1 - t0, t2 - t1


def run(args):
    from stieltjes_ode import cli

    workdir = args.workdir
    plan = workloads.make_plan(args.workload, args.seed, args.size,
                               lambda name: os.path.join(workdir, name))
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    # one calibration before the calls and one after each, so the samples
    # spread over the child's whole run
    calibration_s = [_calibrate()]
    runs = []
    for op in plan:
        out, err = io.StringIO(), io.StringIO()
        exc_text = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except Exception:
            code = None
            exc_text = traceback.format_exc(limit=3)
        runs.append((code, out.getvalue(), err.getvalue(), exc_text))
        calibration_s.append(_calibrate())
    if tracer is not None:
        tracer.uninstall()

    outcomes = []
    for op, (code, stdout, stderr, exc_text) in zip(plan, runs):
        if exc_text is not None:
            outcomes.append(workloads.Outcome([f"exception: {exc_text}"], {}))
        elif code != 0:
            outcomes.append(workloads.Outcome(
                [f"exit code {code}: {stderr.strip()[-300:]}"], {}))
        elif not os.path.exists(op.out):
            outcomes.append(workloads.Outcome(["no output file"], {}))
        else:
            if args.plant:
                _plant(op.out, workloads.PLANT_COLUMN[args.workload])
            outcomes.append(workloads.check(args.workload, op, stdout))
    metrics, extra = workloads.summarize(args.workload, plan, outcomes)
    ops = []
    for i, (op, outcome) in enumerate(zip(plan, outcomes)):
        failures = outcome.failures + extra.get(i, [])
        for key, value in outcome.values.items():
            if isinstance(value, float) and not math.isfinite(value):
                failures.append(f"non-finite {key}")
        ops.append({
            "argv": op.argv,
            "reference": op.reference,
            "exit_code": runs[i][0],
            "failures": failures,
            "sha256": (_sha256(op.out) if os.path.exists(op.out) else None),
        })
    return {
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "ops": ops,
        "metrics": metrics,
        "trace": tracer.report() if tracer is not None else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
