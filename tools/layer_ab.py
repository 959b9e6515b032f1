"""Time the solver layer of two checkouts in one process, alternating.

    python3 tools/layer_ab.py PARENT CHANGE [--rounds N] [--linear-h H]
        [--silkworm-h H]

PARENT and CHANGE are two checkouts of the repository.  Each one's
``src/stieltjes_ode`` is imported under its own package name
(``parent_stieltjes_ode``, ``change_stieltjes_ode``); the package's
relative imports allow it.  So both sides run in one process, and a host
that speeds up or slows down between fresh processes moves both alike.
This times a layer only: start-up, memory and end-to-end times need fresh
processes (``tools/bench_pairs.py``).

Each side builds the same two solves with its own code:

- ``linear``: ``x'_g = 0.5 x``, ``x0 = 1``, on ``make_test_derivator(4,
  snap=1e-3)`` at ``--linear-h`` (default ``1e-5``, 10**6 steps);
- ``silkworm``: the silkworm model at the CLI's default parameters on
  ``make_silkworm_derivator(10.0)`` at ``--silkworm-h`` (default ``1e-4``).

One untimed ``solve`` per side and case comes first.  The sha256 of its
``values``, ``right_values`` and ``predictor_values`` must be equal on both
sides; if any differs, nothing is timed and the tool exits 1.  Then each of
``N`` rounds times one ``solve`` per side under ``time.process_time``,
alternating which side goes first.  For each case it prints each side's
median and quartiles and the number of rounds each side won (ties count
for neither); the last line is the summary as one JSON object.  Exits 2
on bad arguments.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
OUTPUTS = ("values", "right_values", "predictor_values")

# medians and quartiles as bench/run.py computes them, from its own code
_spec = importlib.util.spec_from_file_location(
    "bench_run", os.path.join(ROOT, "bench", "run.py"))
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
quartiles = _bench_run._quartiles


def load_package(checkout, name):
    """The checkout's ``src/stieltjes_ode`` imported as the package
    ``name``, with its ``derivator``, ``models`` and ``solver`` modules."""
    path = os.path.join(checkout, "src", "stieltjes_ode")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("derivator", "models", "solver"):
        importlib.import_module(f"{name}.{module}")
    return package


def linear_case(pkg, h):
    g = pkg.derivator.make_test_derivator(4, snap=1e-3)
    return pkg.models.make_linear_spec(-0.5, 1.0), pkg.solver.build_partition(g, h)


def silkworm_case(pkg, h):
    params = pkg.models.SilkwormParams(c=1.2, lam=1.1, x0=8.0)
    g = pkg.derivator.make_silkworm_derivator(10.0)
    return pkg.models.make_silkworm_spec(params), pkg.solver.build_partition(g, h)


CASES = {"linear": linear_case, "silkworm": silkworm_case}


def digests(traj):
    """sha256 of each output array of a trajectory."""
    return {name: hashlib.sha256(getattr(traj, name).tobytes()).hexdigest()
            for name in OUTPUTS}


def time_solve(pkg, spec, part):
    """CPU seconds of one ``solve``, after a collection outside the timer."""
    gc.collect()
    start = time.process_time()
    pkg.solver.solve(spec, part)
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
    for case, h in steps.items():
        built[case] = {side: CASES[case](packages[side], h) for side in SIDES}
        sums = {side: digests(packages[side].solver.solve(*built[case][side]))
                for side in SIDES}
        same = sums["parent"] == sums["change"]
        summary["digests_identical"] &= same
        summary["cases"][case] = {
            "h": h, "steps": built[case]["parent"][1].n_steps,
            "digests_identical": same, "digests": sums}
        if not same:
            differ = [name for name in OUTPUTS
                      if sums["parent"][name] != sums["change"][name]]
            log(f"{case}: the sides wrote different {', '.join(differ)}")
    if not summary["digests_identical"]:
        return summary
    for case, sides in built.items():
        times = {side: [] for side in SIDES}
        for r in range(rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[side].append(time_solve(packages[side], *sides[side]))
        row = summary["cases"][case]
        row |= summarize(times) | {"times": times}
        log(f"{case}: {row['steps']} steps, digests equal")
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
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("need --rounds >= 1")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    for checkout in checkouts.values():
        if not os.path.isfile(os.path.join(checkout, "src", "stieltjes_ode",
                                           "__init__.py")):
            parser.error(f"no src/stieltjes_ode in {checkout!r}")
    packages = {side: load_package(checkout, f"{side}_stieltjes_ode")
                for side, checkout in checkouts.items()}
    steps = {"linear": args.linear_h, "silkworm": args.silkworm_h}
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
