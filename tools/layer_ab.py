"""Time the solver and oracle layers of two checkouts in one process,
alternating.

    python3 tools/layer_ab.py PARENT CHANGE [--rounds N] [--linear-h H]
        [--silkworm-h H] [--quadrature-cases N]

PARENT and CHANGE are two checkouts of the repository.  Each one's
``src/stieltjes_ode`` is imported under its own package name
(``parent_stieltjes_ode``, ``change_stieltjes_ode``); the package's
relative imports allow it.  So both sides run in one process, and a host
that speeds up or slows down between fresh processes moves both alike.
This times a layer only: start-up, memory and end-to-end times need fresh
processes (``tools/bench_pairs.py``).

Each side builds the same cases with its own code:

- ``linear``: ``solve`` of ``x'_g = 0.5 x``, ``x0 = 1``, on
  ``make_test_derivator(4, snap=1e-3)`` at ``--linear-h`` (default
  ``1e-5``, 10**6 steps);
- ``silkworm``: ``solve`` of the silkworm model at the CLI's default
  parameters on ``make_silkworm_derivator(10.0)`` at ``--silkworm-h``
  (default ``1e-4``);
- ``quadrature``, with ``--quadrature-cases N`` above 0 (default 0, not
  run): ``run_bound_suite(N)`` at ``n_oracle = 10**6``, where the
  refinement oracle does the work.

One untimed call per side and case comes first.  The sha256 of each of its
outputs must be equal on both sides: a solve's ``values``,
``right_values`` and ``predictor_values``, the bound suite's ``value``,
``oracle``, ``bound`` and ``passed`` columns.  If any differs, nothing is
timed and the tool exits 1.  Then each of ``N`` rounds times one call per
side under ``time.process_time``, alternating which side goes first.  For
each case it prints each side's median and quartiles and the number of
rounds each side won (ties count for neither); the last line is the
summary as one JSON object.  Exits 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
OUTPUTS = ("values", "right_values", "predictor_values")
COLUMNS = ("value", "oracle", "bound", "passed")
N_ORACLE = 10 ** 6

# medians and quartiles as bench/run.py computes them, from its own code
_spec = importlib.util.spec_from_file_location(
    "bench_run", os.path.join(ROOT, "bench", "run.py"))
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
quartiles = _bench_run._quartiles


def load_package(checkout, name):
    """The checkout's ``src/stieltjes_ode`` imported as the package
    ``name``, with its ``derivator``, ``models``, ``quadrature`` and
    ``solver`` modules."""
    path = os.path.join(checkout, "src", "stieltjes_ode")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("derivator", "models", "quadrature", "solver"):
        importlib.import_module(f"{name}.{module}")
    return package


def solve_case(pkg, spec, g, h):
    """The call that solves ``spec`` on ``g`` at step ``h``, its outputs,
    and the case's size for the summary."""
    part = pkg.solver.build_partition(g, h)
    call = lambda: pkg.solver.solve(spec, part)
    outputs = lambda traj: {name: getattr(traj, name) for name in OUTPUTS}
    return call, outputs, {"h": h, "steps": part.n_steps}


def linear_case(pkg, h):
    g = pkg.derivator.make_test_derivator(4, snap=1e-3)
    return solve_case(pkg, pkg.models.make_linear_spec(-0.5, 1.0), g, h)


def silkworm_case(pkg, h):
    params = pkg.models.SilkwormParams(c=1.2, lam=1.1, x0=8.0)
    g = pkg.derivator.make_silkworm_derivator(10.0)
    return solve_case(pkg, pkg.models.make_silkworm_spec(params), g, h)


def quadrature_case(pkg, cases):
    """The bound suite's call, its columns, and its size."""
    call = lambda: pkg.quadrature.run_bound_suite(cases, N_ORACLE)
    outputs = lambda rows: {name: np.array([row[name] for row in rows])
                            for name in COLUMNS}
    return call, outputs, {"cases": cases, "n_oracle": N_ORACLE}


CASES = {"linear": linear_case, "silkworm": silkworm_case,
         "quadrature": quadrature_case}


def digests(arrays):
    """sha256 of each output array."""
    return {name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in arrays.items()}


def describe(size):
    """The size of a case as the log states it."""
    if "steps" in size:
        return f"{size['steps']} steps"
    return f"{size['cases']} cases at n_oracle={size['n_oracle']}"


def time_call(call):
    """CPU seconds of one call, after a collection outside the timer."""
    gc.collect()
    start = time.process_time()
    call()
    return time.process_time() - start


def summarize(times):
    """Medians, quartiles and wins over the rounds of one case; ``times``
    maps each side to its per-round seconds."""
    row = {}
    for side in SIDES:
        q1, med, q3 = quartiles(times[side])
        row |= {f"{side}_median": med, f"{side}_q1": q1, f"{side}_q3": q3}
    row["parent_iqr"] = row["parent_q3"] - row["parent_q1"]
    pairs = list(zip(times["parent"], times["change"]))
    row["change_better_rounds"] = sum(c < p for p, c in pairs)
    row["parent_better_rounds"] = sum(p < c for p, c in pairs)
    row["change_vs_parent"] = row["change_median"] / row["parent_median"] - 1.0
    return row


def measure(packages, steps, rounds, log=print):
    """Check each case's digests, then time its alternating rounds; returns
    the summary (timings only when every digest matched)."""
    built = {}
    summary = {"rounds": rounds, "digests_identical": True, "cases": {}}
    for case, size in steps.items():
        built[case] = {side: CASES[case](packages[side], size)
                       for side in SIDES}
        sums = {side: digests(outputs(call()))
                for side, (call, outputs, _) in built[case].items()}
        same = sums["parent"] == sums["change"]
        summary["digests_identical"] &= same
        summary["cases"][case] = built[case]["parent"][2] | {
            "digests_identical": same, "digests": sums}
        if not same:
            differ = [name for name in sums["parent"]
                      if sums["parent"][name] != sums["change"][name]]
            log(f"{case}: the sides wrote different {', '.join(differ)}")
    if not summary["digests_identical"]:
        return summary
    for case, sides in built.items():
        times = {side: [] for side in SIDES}
        for r in range(rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[side].append(time_call(sides[side][0]))
        row = summary["cases"][case]
        row |= summarize(times) | {"times": times}
        log(f"{case}: {describe(row)}, digests equal")
        for side in SIDES:
            log(f"  {side:6s} median {row[f'{side}_median']:.4f} s "
                f"(quartiles {row[f'{side}_q1']:.4f} .. "
                f"{row[f'{side}_q3']:.4f})")
        log(f"  change won {row['change_better_rounds']} of {rounds} rounds, "
            f"parent {row['parent_better_rounds']}; change/parent "
            f"{row['change_vs_parent']:+.1%}")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--linear-h", type=float, default=1e-5)
    parser.add_argument("--silkworm-h", type=float, default=1e-4)
    parser.add_argument("--quadrature-cases", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("need --rounds >= 1")
    if args.quadrature_cases < 0:
        parser.error("need --quadrature-cases >= 0")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    for checkout in checkouts.values():
        if not os.path.isfile(os.path.join(checkout, "src", "stieltjes_ode",
                                           "__init__.py")):
            parser.error(f"no src/stieltjes_ode in {checkout!r}")
    packages = {side: load_package(checkout, f"{side}_stieltjes_ode")
                for side, checkout in checkouts.items()}
    steps = {"linear": args.linear_h, "silkworm": args.silkworm_h}
    if args.quadrature_cases:
        steps["quadrature"] = args.quadrature_cases
    try:
        summary = measure(packages, steps, args.rounds)
    except ValueError as exc:
        parser.error(str(exc))
    summary["environment"] = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(terse=True), "nproc": os.cpu_count()}
    print(json.dumps(summary))
    return 0 if summary["digests_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
