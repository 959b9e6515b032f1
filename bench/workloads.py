"""Seeded CLI argument lists and output checks for the benchmark workloads.

Every workload is a list of operations, each one ``stieltjes_ode.cli.main``
call with generated flags.  Each workload mixes fixed *reference* operations
(the paper's configuration, or the CLI's default seed) with *seeded* ones:

* the seeded operations vary from seed to seed and carry most of the work;
* the reference operations give ``max_err`` a value that does not depend on
  the seed, so two sets of runs on different seeds compare the same number.

Every operation is checked after it ran; a check that fails marks the
operation failed.  Checks compare the output file against the numbers the
CLI printed, against the flags it was given and against the tolerances the
tier-1 tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("linear", "silkworm", "quadrature", "bounds")
SIZES = ("full", "tiny")

# tier-1 acceptance targets (tests/test_acceptance.py), with their tolerances:
# linear maxima within a factor 3 and decade ratios in [80, 120]; silkworm
# maxima within 10% and 25%
REF_LINEAR = {(2, 1e-1): 3.1399e-02, (2, 1e-2): 3.3911e-04,
              (2, 1e-3): 3.4002e-06, (4, 1e-1): 7.2094e-02,
              (4, 1e-2): 7.6469e-04, (4, 1e-3): 7.6522e-06}
REF_LINEAR_FACTOR = 3.0
REF_LINEAR_RATIOS = (80.0, 120.0)
REF_SILKWORM = {1e-1: (2.3724e-01, 0.10), 1e-2: (1.7138e-02, 0.25)}
MIN_LINEAR_ORDER = 1.9

# what of the calibration kernel (child.py) each workload's times are divided
# by: its scalar loop for the solver-bound workloads, the whole kernel (scalar
# loop and vector passes) for those that also spend their time in numpy over
# large arrays.  Chosen by the spread of run medians it left over ten seeds
# on a shared 2-vCPU virtual machine (see README.md)
CALIBRATION = {"linear": "scalar", "silkworm": "whole",
               "quadrature": "whole", "bounds": "scalar"}

# CSV column the self-test perturbs: one the checks must catch a change in
PLANT_COLUMN = {"linear": 3, "silkworm": 1, "quadrature": 2, "bounds": 1}


@dataclass
class Op:
    """One CLI call: its flags, output file, and what to check it against."""

    argv: list
    out: str
    group: str            # operations of one group share a parameter set
    reference: bool = False
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of one operation after its checks."""

    failures: list
    values: dict          # quantities the workload summary reads


def _fmt(x):
    return repr(float(x))


def _steps(values):
    return ",".join(f"{h:g}" for h in values)


def _damping(rng, i, n, top):
    """``d`` for the i-th of n parameter sets: growth and decay alternate,
    ``|d|`` is stratified over [0.2, top).

    ``d < 1`` keeps every jump factor ``1 - d*gap`` positive (unit gaps).
    ``|d| >= 0.2`` keeps the finest-step errors well above the rounding
    floor, where a fitted order would measure rounding instead of the scheme.
    """
    return (-1.0) ** (i + 1) * (0.2 + (top - 0.2) * (i + rng.uniform()) / n)


# -- plans -----------------------------------------------------------------


def _plan_linear(rng, size, out):
    hs = [1e-1, 1e-2, 1e-3] if size == "tiny" else [1e-1, 1e-2, 1e-3, 1e-4]
    ref_jumps = [2] if size == "tiny" else [2, 4]
    ops = [Op(["linear-convergence", "--jumps", ",".join(map(str, ref_jumps)),
               "--h", _steps(hs), "--out", out("linear_ref.csv")],
              out("linear_ref.csv"), "ref", True,
              {"jumps": ref_jumps, "hs": hs})]
    jump_lists = [[1]] if size == "tiny" else [[1, 6], [3, 8], [5, 10]]
    for i, jumps in enumerate(jump_lists):
        d = _damping(rng, i, len(jump_lists), 0.9)
        x0 = 10.0 ** rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(2.0, 5.0)
        name = f"linear_{i}.csv"
        ops.append(Op(["linear-convergence", "--jumps", ",".join(map(str, jumps)),
                       "--h", _steps(hs), "--d", _fmt(d), "--x0", _fmt(x0),
                       "--alpha", _fmt(alpha), "--out", out(name)],
                      out(name), f"set{i}", False,
                      {"jumps": jumps, "hs": hs, "d": d, "x0": x0,
                       "alpha": alpha}))
    return ops


def _plan_silkworm(rng, size, out):
    ref_hs = [1e-1, 1e-2] if size == "tiny" else [1e-1, 1e-2, 1e-3]
    ops = [Op(["silkworm", "--h", f"{h:g}", "--out", out(f"silk_ref_{j}.csv")],
              out(f"silk_ref_{j}.csv"), "ref", True, {"h": h})
           for j, h in enumerate(ref_hs)]
    h = 1e-2 if size == "tiny" else 5e-4
    # c sets the cost of the exact reference (0.15 s to 1.1 s per call) and
    # its memory (90 MB to 400 MB): its Simpson rule doubles 10, 11 or 12
    # times, with the steps between c = 0.85 and 0.95 and between 2.0 and
    # 2.02.  One draw per stratum, with no stratum across a step, keeps the
    # work and the peak memory of a run the same from seed to seed
    strata = ([(0.95, 1.45)] if size == "tiny" else
              [(0.55, 0.85), (0.95, 1.45), (1.45, 1.95), (2.05, 2.55)])
    for i, (c_lo, c_hi) in enumerate(strata):
        c = rng.uniform(c_lo, c_hi)
        lam = rng.uniform(0.8, 1.5)
        x0 = rng.uniform(2.0, 12.0)
        name = f"silk_{i}.csv"
        ops.append(Op(["silkworm", "--h", f"{h:g}", "--c", _fmt(c),
                       "--lambda", _fmt(lam), "--x0", _fmt(x0),
                       "--out", out(name)],
                      out(name), f"set{i}", False,
                      {"h": h, "c": c, "lam": lam, "x0": x0}))
    return ops


def _plan_quadrature(seed, size, out):
    ref_cases, calls, cases = (2, 1, 2) if size == "tiny" else (10, 4, 5)
    # the reference run omits --seed, so the CLI's default seed applies; the
    # seeded cases are split over several calls, so that the calibrations
    # between calls sample the machine's speed every half second or so
    ops = [Op(["quadrature-check", "--cases", str(ref_cases),
               "--out", out("quad_ref.csv")],
              out("quad_ref.csv"), "ref", True,
              {"cases": ref_cases, "seed": None})]
    for j in range(calls):
        cli_seed = calls * seed + j
        name = f"quad_{j}.csv"
        ops.append(Op(["quadrature-check", "--seed", str(cli_seed),
                       "--cases", str(cases), "--out", out(name)],
                      out(name), f"set{j}", False,
                      {"cases": cases, "seed": cli_seed}))
    return ops


def _plan_bounds(rng, size, out):
    ref_hs = [1e-2, 5e-3] if size == "tiny" else [1e-3, 5e-4]
    ops = [Op(["bounds", "--h", f"{h:g}", "--out", out(f"bounds_ref_{j}.csv")],
              out(f"bounds_ref_{j}.csv"), "ref", True, {"h": h})
           for j, h in enumerate(ref_hs)]
    n_sets, h = (1, 1e-2) if size == "tiny" else (2, 5e-4)
    # the a-priori bound grows like exp(T * |d| * H) with H the slope of the
    # right-hand side along the solution; stronger growth than |d| < 0.5 and
    # x0 <= 1 take it past the float range, where `bounds` stops with an
    # OverflowError traceback instead of an exit code
    for i in range(n_sets):
        jumps = int(rng.integers(1, 7))
        d = _damping(rng, i, n_sets, 0.5)
        x0 = 10.0 ** rng.uniform(-1.0, 0.0)
        name = f"bounds_{i}.csv"
        ops.append(Op(["bounds", "--h", f"{h:g}", "--jumps", str(jumps),
                       "--d", _fmt(d), "--x0", _fmt(x0), "--out", out(name)],
                      out(name), f"set{i}", False,
                      {"h": h, "jumps": jumps, "d": d, "x0": x0}))
    return ops


def make_plan(workload, seed, size, out):
    """Operations of one run; ``out(name)`` maps a file name to its path."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "linear":
        return _plan_linear(rng, size, out)
    if workload == "silkworm":
        return _plan_silkworm(rng, size, out)
    if workload == "quadrature":
        return _plan_quadrature(seed, size, out)
    return _plan_bounds(rng, size, out)


# -- checks ----------------------------------------------------------------


def _read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _order(hs, errs):
    x = np.log10(np.asarray(hs, dtype=float))
    y = np.log10(np.asarray(errs, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _check_linear(op, stdout):
    fail = []
    rows = _read_rows(op.out)
    if rows[0] != "num_jumps,h,max_e_star,max_e,max_e_plus":
        return Outcome([f"unexpected header {rows[0]!r}"], {})
    table = {}
    for row in rows[1:]:
        parts = row.split(",")
        if "failed" in parts:
            fail.append(f"convergence cell failed: {row}")
            continue
        nj, h, e_star, e, e_plus = int(parts[0]), *map(float, parts[1:])
        if not all(math.isfinite(v) and v > 0 for v in (e_star, e, e_plus)):
            fail.append(f"non-finite or non-positive error: {row}")
            continue
        table[nj, h] = (e_star, e, e_plus)
    if len(rows) - 1 != len(op.meta["jumps"]) * len(op.meta["hs"]):
        fail.append(f"{len(rows) - 1} cells, expected "
                    f"{len(op.meta['jumps']) * len(op.meta['hs'])}")
    printed = {}
    for line in stdout.splitlines():
        if line.startswith("jumps="):
            head, rest = line.split(":", 1)
            words = rest.replace(",", "").split()
            printed[int(head[6:])] = (float(words[3]), float(words[6]))
    orders = []
    for nj in op.meta["jumps"]:
        cells = [(h, table[nj, h]) for h in op.meta["hs"] if (nj, h) in table]
        if len(cells) != len(op.meta["hs"]):
            continue
        hs = [h for h, _ in cells]
        order_e = _order(hs, [c[1] for _, c in cells])
        order_star = _order(hs, [c[0] for _, c in cells])
        orders.append(order_e)
        if order_e < MIN_LINEAR_ORDER:
            fail.append(f"jumps={nj}: corrector order {order_e:.3f} "
                        f"< {MIN_LINEAR_ORDER}")
        if nj not in printed:
            fail.append(f"jumps={nj}: no order printed")
        elif (abs(printed[nj][0] - order_e) > 6e-4
              or abs(printed[nj][1] - order_star) > 6e-4):
            fail.append(f"jumps={nj}: printed orders {printed[nj]} disagree "
                        f"with the file ({order_e:.4f}, {order_star:.4f})")
    if op.reference:
        for (nj, h), target in REF_LINEAR.items():
            if (nj, h) not in table:
                continue
            e = table[nj, h][1]
            if max(e / target, target / e) > REF_LINEAR_FACTOR:
                fail.append(f"jumps={nj} h={h:g}: max_e {e:.4e} not within "
                            f"a factor {REF_LINEAR_FACTOR:g} of {target:.4e}")
            finer = (nj, round(h / 10, 12))
            if finer in REF_LINEAR and finer in table:
                ratio = e / table[finer][1]
                lo, hi = REF_LINEAR_RATIOS
                if not lo <= ratio <= hi:
                    fail.append(f"jumps={nj} h={h:g}: decade ratio "
                                f"{ratio:.1f} outside [{lo:g}, {hi:g}]")
    finest = min(op.meta["hs"])
    errs = [table[nj, finest][1] for nj in op.meta["jumps"]
            if (nj, finest) in table]
    return Outcome(fail, {"max_err": max(errs, default=math.nan),
                          "order": min(orders, default=math.nan)})


def _check_silkworm(op, stdout):
    fail = []
    rows = _read_rows(op.out)
    if rows[0] != "t,numeric,exact,error" or not rows[-1].startswith("max,,,"):
        return Outcome(["unexpected header or summary row"], {})
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:-1]])
    n_expected = int(round(10.0 / op.meta["h"])) + 1
    if data.shape != (n_expected, 4):
        fail.append(f"{data.shape[0]} rows, expected {n_expected}")
    if not np.all(np.isfinite(data)):
        fail.append("non-finite value in the series")
        return Outcome(fail, {})
    t, num, ex, err = data.T
    # values carry 11 significant digits, so the error column must agree
    # with numeric - exact to that precision
    scale = np.maximum(np.abs(num), np.abs(ex)) + 1e-300
    slack = 1e-9 * scale + 1e-12
    bad = np.abs(err - (num - ex)) > slack
    if np.any(bad):
        k = int(np.argmax(bad))
        fail.append(f"row t={t[k]:.6f}: error {err[k]:.10e} != "
                    f"numeric - exact {num[k] - ex[k]:.10e}")
    max_row = float(rows[-1].split(",")[-1])
    max_abs = float(np.max(np.abs(err)))
    if not _close(max_row, max_abs, 5e-4):
        fail.append(f"summary max {max_row:.4e} != largest |error| "
                    f"{max_abs:.4e}")
    printed = [ln for ln in stdout.splitlines() if ln.startswith("max|e| = ")]
    if not printed or float(printed[0].split("=")[1]) != max_row:
        fail.append(f"printed {printed} disagrees with the file ({max_row:.4e})")
    if op.reference and op.meta["h"] in REF_SILKWORM:
        target, rtol = REF_SILKWORM[op.meta["h"]]
        if not _close(max_row, target, rtol):
            fail.append(f"h={op.meta['h']:g}: max error {max_row:.4e} outside "
                        f"{rtol:.0%} of {target:.4e}")
    return Outcome(fail, {"max_err": max_row})


def _check_quadrature(op, stdout):
    from stieltjes_ode import quadrature

    fail = []
    rows = _read_rows(op.out)
    if not rows[0].startswith("# seed=") or \
            rows[1] != "case,rule,value,oracle,bound,pass":
        return Outcome([f"unexpected header {rows[:2]!r}"], {})
    seed = int(rows[0][len("# seed="):])
    if op.meta["seed"] is not None and seed != op.meta["seed"]:
        fail.append(f"seed comment {rows[0]!r}, expected seed {op.meta['seed']}")
    if len(rows) - 2 != op.meta["cases"]:
        fail.append(f"{len(rows) - 2} cases, expected {op.meta['cases']}")
    # the rule values and bounds do not depend on the oracle's resolution, so
    # a replay with a one-interval oracle reproduces them cheaply
    replay = quadrature.run_bound_suite(num_cases=op.meta["cases"], n_oracle=1,
                                        seed=seed)
    max_err = 0.0
    max_ratio = 0.0
    for row, ref in zip(rows[2:], replay):
        case, rule, value, oracle, bound, flag = row.split(",")
        value, oracle, bound = float(value), float(oracle), float(bound)
        if not all(map(math.isfinite, (value, oracle, bound))):
            fail.append(f"case {case}: non-finite value")
            continue
        if (rule != ref["rule"] or f"{ref['value']:.10e}" != f"{value:.10e}"
                or f"{ref['bound']:.10e}" != f"{bound:.10e}"):
            fail.append(f"case {case}: {rule} value {value:.10e} bound "
                        f"{bound:.10e}, replay gives {ref['rule']} "
                        f"{ref['value']:.10e} {ref['bound']:.10e}")
        err = abs(value - oracle)
        holds = err <= bound + 1e-12
        if int(flag) != int(holds):
            fail.append(f"case {case}: pass flag {flag} but |value - oracle| "
                        f"= {err:.3e} vs bound {bound:.3e}")
        elif not holds:
            fail.append(f"case {case}: bound violated")
        max_err = max(max_err, err)
        if bound > 0.0:
            max_ratio = max(max_ratio, err / bound)
    summary = f"{len(rows) - 2} rows, 0 bound violations"
    if not stdout.startswith(summary):
        fail.append(f"printed {stdout.strip()!r}, expected {summary!r}")
    return Outcome(fail, {"max_err": max_err, "err_to_bound": max_ratio})


def _check_bounds(op, stdout):
    fail = []
    rows = _read_rows(op.out)
    if rows[0] != "quantity,max_error,bound,holds" or len(rows) != 4:
        return Outcome(["unexpected header or row count"], {})
    printed = stdout.splitlines()
    values = {}
    for row in rows[1:]:
        name, err, bound, flag = row.split(",")
        err, bound = float(err), float(bound)
        if not (math.isfinite(err) and math.isfinite(bound)):
            fail.append(f"{name}: non-finite value")
            continue
        if int(flag) != int(err <= bound) or flag != "1":
            fail.append(f"{name}: error {err:.4e} vs bound {bound:.4e}, "
                        f"flag {flag}")
        line = (f"{name}: max error {err:.4e} vs bound {bound:.4e} "
                f"({'holds' if err <= bound else 'VIOLATED'})")
        if line not in printed:
            fail.append(f"{name}: file row not among the printed lines")
        values[name] = (err, bound)
    if len(values) != 3:
        return Outcome(fail, {})
    ratio = max(e / b for e, b in values.values())
    return Outcome(fail, {"max_err": values["corrector"][0],
                          "err_to_bound": ratio})


CHECKS = {"linear": _check_linear, "silkworm": _check_silkworm,
          "quadrature": _check_quadrature, "bounds": _check_bounds}


def check(workload, op, stdout):
    """Failures of one operation that exited 0, plus values for the summary."""
    try:
        return CHECKS[workload](op, stdout)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return Outcome([f"unreadable output: {type(exc).__name__}: {exc}"], {})


def summarize(workload, ops, outcomes):
    """Accuracy metrics of a run and the failures of checks across operations.

    Returns ``(metrics, group_failures)`` where ``group_failures`` maps an
    operation index to extra failures found by comparing operations of one
    parameter set (errors must fall as the step shrinks).  ``max_err`` comes
    from the reference operations only, at their finest step; ``order`` is
    the smallest over parameter sets; ``err_to_bound`` the largest over all
    operations.  A quantity the workload does not define is NaN.
    """
    extra = {}
    orders = []
    groups = {}
    for i, (op, o) in enumerate(zip(ops, outcomes)):
        groups.setdefault(op.group, []).append((i, op, o))
        if "order" in o.values:
            orders.append(o.values["order"])
    for members in groups.values():
        if "h" not in members[0][1].meta or len(members) < 2 or any(
                "max_err" not in o.values for _, _, o in members):
            continue
        members.sort(key=lambda m: -m[1].meta["h"])
        errs = [o.values["max_err"] for _, _, o in members]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            extra.setdefault(members[-1][0], []).append(
                f"errors {errs} do not fall as the step shrinks")
        # local order between the two finest steps
        orders.append(_order([op.meta["h"] for _, op, _ in members[-2:]],
                             errs[-2:]))
    ref = [(op, o) for op, o in zip(ops, outcomes) if op.reference]
    finest = min(ref, key=lambda p: p[0].meta.get("h", 0.0))
    ratios = [o.values["err_to_bound"] for o in outcomes
              if "err_to_bound" in o.values]
    metrics = {
        "max_err": finest[1].values.get("max_err", math.nan),
        "order": min(orders, default=math.nan),
        "err_to_bound": max(ratios, default=math.nan),
    }
    return metrics, extra
