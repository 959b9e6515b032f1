"""Command-line experiment runner.

Subcommands: ``linear-convergence`` (benchmark error table over jump counts
and steps), ``silkworm`` (population model trajectory and error series),
``quadrature-check`` (randomized rule-vs-bound suite) and ``bounds``
(measured constants against the a-priori bounds).  All outputs are CSV, LF
line endings, ``.`` decimal separator, with a mandatory header row; runs are
deterministic for a fixed seed.  Exit codes: 0 success, 1 property or bound
violation, 2 configuration error, 3 jump/grid mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, derivator, linear, models, quadrature, solver

DEFAULT_SEED = 20240


def _parse_list(text, name, kind):
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"invalid {name} list: {text!r}") from exc
    if not values:
        raise ValueError(f"empty {name} list")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{name} {repeated[0]!r} is repeated in {text!r}")
    return values


def _load_derivator(arg):
    """Accept an inline JSON descriptor or a path to one."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            try:
                desc = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ValueError(f"--derivator file {arg!r} does not hold "
                                 f"valid JSON: {exc}") from exc
    else:
        try:
            desc = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"--derivator is neither a file nor valid JSON: {arg!r}") from exc
    try:
        return derivator.from_descriptor(desc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad derivator descriptor: {exc}") from exc


def _check_out(path):
    """Reject an ``--out`` the run could not write, before the run starts."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ValueError(f"--out {path!r}: directory {parent!r} does not "
                         f"exist or is not writable")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- linear-convergence ------------------------------------------------------


def run_linear_convergence(args) -> int:
    h_values = _parse_list(args.h, "step", float)
    jump_counts = _parse_list(args.jumps, "jump-count", int)

    if args.derivator is not None:
        if args.driver_flags:
            flags = ", ".join(dict.fromkeys(args.driver_flags))
            raise ValueError(f"--derivator replaces the test driver, so "
                             f"{flags} would be ignored; drop them")
        built = [_load_derivator(args.derivator)]
    else:
        built = (derivator.make_test_derivator(nj, alpha=args.alpha, T=args.T,
                                               snap=args.snap)
                 for nj in jump_counts)

    # fail fast on any jump/grid mismatch before burning time on the grid;
    # each driver is checked as soon as it is built, on its nodes alone
    drivers = []
    for g in built:
        for h in h_values:
            solver._uniform_nodes(g, h)
        drivers.append(g)

    d = args.d
    exact_factory = lambda g: functools.partial(linear.homogeneous_solution,
                                                d, args.x0, g)
    # an overflowing solution shows up as a non-finite cell, rejected below
    with np.errstate(over="ignore"):
        cells = analysis.convergence_table(models.make_linear_spec(d, args.x0),
                                           drivers, exact_factory, h_values)
    for c in cells:
        if not c.failed and not all(map(math.isfinite, (
                c.max_e_star, c.max_e, c.max_e_plus))):
            raise ValueError(f"the error maximum of the cell jumps={c.num_jumps}, "
                             f"h={c.h:g} is not finite (the solution "
                             f"overflows the float range)")
    # a table whose orders cannot be fitted exits 2 before its file is written
    for nj in (g.n_jumps for g in drivers):
        rows = [c for c in cells if c.num_jumps == nj and not c.failed]
        if len(rows) >= 2:
            order_e = analysis.estimate_order([c.h for c in rows],
                                              [c.max_e for c in rows])
            order_star = analysis.estimate_order([c.h for c in rows],
                                                 [c.max_e_star for c in rows])
            print(f"jumps={nj}: measured corrector order {order_e:.3f}, "
                  f"predictor order {order_star:.3f}")
    if args.format == "json":
        payload = [vars(c) for c in cells]
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(args.out, analysis.format_convergence_csv(cells))
    print(f"wrote {args.out}")
    return 0


# -- silkworm ----------------------------------------------------------------

# The series is formatted as rows of ASCII bytes in uint8 matrices, byte 0
# padding the shorter fields.  A value is scaled by a correctly rounded power
# of ten so that its rounded digits are one integer below 1e11: the product
# is within 2.3e-5 of the exact one, so np.rint rounds it as '%' rounds the
# exact binary value unless it lies within _TIE of a half-integer.  Those
# values, and values out of range or not finite, are formatted by '%'.
_TIE = 1e-4
_POW10 = np.array([float(f"1e{k}") for k in range(-310, 311)])


def _digits(n, count):
    """The ``count`` lowest decimal digits of the integers ``n``, as ASCII."""
    out = np.empty((n.size, count), np.uint8)
    for j in range(count - 1, -1, -1):
        q = n // 10
        out[:, j] = n - 10 * q
        n = q
    return out + np.uint8(48)


def _near_tie(m):
    return np.abs(m - np.floor(m) - 0.5) < _TIE


def _fallback(field, x, fmt, fast):
    """Redo the rows of ``field`` that are not ``fast`` with ``fmt % v``."""
    rows = np.flatnonzero(~fast)
    text = [(fmt % v).encode() for v in x[rows].tolist()]
    width = max(map(len, text), default=0)
    if width > field.shape[1]:
        field = np.pad(field, ((0, 0), (0, width - field.shape[1])))
    field[rows] = 0
    for i, s in zip(rows, text):
        field[i, :len(s)] = np.frombuffer(s, np.uint8)
    return field


def _sci_field(x):
    """``'%.10e' % v`` for each ``v`` of ``x``: sign, 11 digits, exponent."""
    a = np.abs(x)
    zero = a == 0
    fast = zero | ((a >= 1e-290) & np.isfinite(a))
    a = np.where(fast & ~zero, a, 1.0)
    # log10 may miss the decade by one next to a power of ten
    e = np.floor(np.log10(a)).astype(np.int64)
    m = a * _POW10[310 + 10 - e]
    e += (m >= 1e11).astype(np.int64) - (m < 1e10)
    m = a * _POW10[310 + 10 - e]
    fast &= ~_near_tie(m)
    d = np.rint(m)
    carry = d == 1e11
    d[carry] = 1e10
    e += carry
    d[zero] = 0  # e is 0 already: a stood in as 1.0
    field = np.zeros((x.size, 18), np.uint8)
    field[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    digits = _digits(d.astype(np.int64), 11)
    field[:, 1] = digits[:, 0]
    field[:, 2] = ord(".")
    field[:, 3:13] = digits[:, 1:]
    field[:, 13] = ord("e")
    field[:, 14] = np.where(e < 0, ord("-"), ord("+"))
    field[:, 15:] = _digits(np.abs(e), 3)
    field[np.abs(e) < 100, 15] = 0
    return _fallback(field, x, "%.10e", fast)


def _fixed_field(x):
    """``'%.6f' % v`` for each ``v`` of ``x``: sign, 5 integer digits, 6
    decimals; ``|v| < 6.8e4`` keeps the scaled value below 2**36."""
    a = np.abs(x)
    fast = a < 6.8e4
    m = np.where(fast, a, 0.0) * 1e6
    fast &= ~_near_tie(m)
    whole, frac = np.divmod(np.rint(m).astype(np.int64), 10 ** 6)
    field = np.zeros((x.size, 13), np.uint8)
    field[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    field[:, 1:6] = _digits(whole, 5)
    field[:, 1:5] *= whole[:, None] >= [10 ** 4, 10 ** 3, 10 ** 2, 10]
    field[:, 6] = ord(".")
    field[:, 7:] = _digits(frac, 6)
    return _fallback(field, x, "%.6f", fast)


def _series_rows(t, *columns):
    """The rows ``f"{t:.6f},{c1:.10e},...\\n"`` as bytes."""
    fields = [_fixed_field(t)]
    for c in columns:
        fields += [np.full((t.size, 1), ord(","), np.uint8), _sci_field(c)]
    fields.append(np.full((t.size, 1), ord("\n"), np.uint8))
    rows = np.hstack(fields)
    return rows[rows != 0].tobytes()


def run_silkworm(args) -> int:
    params = models.SilkwormParams(c=args.c, lam=args.lam, x0=args.x0, T=args.T)
    g = derivator.make_silkworm_derivator(args.T)
    part = solver.build_partition(g, args.h)
    # Heun's decay factor 1 - z + z^2/2 exceeds 1 once z = c*dg exceeds 2:
    # the state then grows without bound, finite or not, so no solve is run
    z = args.c * float(np.max(part.dg))
    if z > 2.0:
        raise ValueError(f"the step is unstable for this decay rate: z = c*dg "
                         f"= {z:.4g} > 2 on the steepest step, where the state "
                         f"grows without bound and may turn non-finite")
    spec = models.make_silkworm_spec(params)
    # a diverging state ends in solve's own FloatingPointError
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solver.solve(spec, part)
    ref = analysis.sample_exact(models.SilkwormSolution(params), part)
    report = analysis.error_report(traj, ref)
    columns = (part.nodes, traj.values, ref.values, report.e)
    with open(args.out, "wb") as fh:
        fh.write(b"t,numeric,exact,error\n")
        # blocks of rows keep the byte matrices small
        for i in range(0, part.nodes.size, 4096):
            fh.write(_series_rows(*(c[i:i + 4096] for c in columns)))
        fh.write(f"max,,,{report.max_e:.4e}\n".encode())
    print(f"max|e| = {report.max_e:.4e}")
    print(f"wrote {args.out}")
    return 0


# -- quadrature-check --------------------------------------------------------


def run_quadrature_check(args) -> int:
    rows = quadrature.run_bound_suite(num_cases=args.cases,
                                      n_oracle=args.n_oracle, seed=args.seed)
    lines = [f"# seed={args.seed}", "case,rule,value,oracle,bound,pass"]
    failures = 0
    for r in rows:
        ok = r["passed"]
        failures += 0 if ok else 1
        lines.append(f"{r['case']},{r['rule']},{r['value']:.10e},"
                     f"{r['oracle']:.10e},{r['bound']:.10e},{int(ok)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"{len(rows)} rows, {failures} bound violations; wrote {args.out}")
    return 1 if failures else 0


# -- bounds ------------------------------------------------------------------


def run_bounds(args) -> int:
    g = derivator.make_test_derivator(args.jumps, alpha=args.alpha, T=args.T,
                                      snap=args.snap)
    part = solver.build_partition(g, args.h)
    d = args.d
    spec = models.make_linear_spec(d, args.x0)
    exact = functools.partial(linear.homogeneous_solution, d, args.x0, g)
    # an overflowing solution shows up as non-finite maxima, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solver.solve(spec, part)
        ref = analysis.sample_exact(exact, part)
        report = analysis.error_report(traj, ref)
        _, _, resid_comb = analysis.truncation_errors(spec, part, ref)
        resid_max = float(np.max(np.abs(resid_comb)))
    measured = {"corrector error": report.max_e,
                "predictor error": report.max_e_star,
                "right-limit error": report.max_e_plus,
                "truncation residual": resid_max}
    bad = [name for name, v in measured.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite maximum of the {', '.join(bad)} (the "
                         f"solution overflows the float range)")
    consts = analysis.measure_constants(spec, part, ref, exact)
    bounds = analysis.theoretical_bounds(consts, args.T, 0.0, resid_max)
    if not all(map(math.isfinite, bounds)):
        raise ValueError("the a-priori bound exceeds the float range "
                         f"(G1*T/h = {consts.g1 * args.T / args.h:.4g})")
    bound, bound_star, bound_plus = bounds
    print(f"measured constants: K1={consts.k1:.4g} K2={consts.k2:.4g} "
          f"K3={consts.k3:.4g} H={consts.lip:.4g}")
    print(f"G1={consts.g1:.4g} G2={consts.g2:.4g} G3={consts.g3:.4g} "
          f"G4={consts.g4:.4g} G5={consts.g5:.4g} G6={consts.g6:.4g}")
    rows = [
        ("corrector", report.max_e, bound),
        ("predictor", report.max_e_star, bound_star),
        ("right-limit", report.max_e_plus, bound_plus),
    ]
    ok = True
    lines = ["quantity,max_error,bound,holds"]
    for name, err, bnd in rows:
        holds = err <= bnd
        ok = ok and holds
        print(f"{name}: max error {err:.4e} vs bound {bnd:.4e} "
              f"({'holds' if holds else 'VIOLATED'})")
        lines.append(f"{name},{err:.4e},{bnd:.4e},{int(holds)}")
    if args.out:
        _write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


# -- wiring ------------------------------------------------------------------


class _DriverFlag(argparse.Action):
    """Store a flag of the test driver and note it in ``driver_flags``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.driver_flags += (self.option_strings[0],)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stieltjes-ode",
        description="Experiment runner for the jump-driven ODE scheme")
    sub = parser.add_subparsers(dest="command", required=True)

    benchmark = argparse.ArgumentParser(add_help=False)
    benchmark.add_argument("--d", type=float, default=-0.5)
    benchmark.add_argument("--x0", type=float, default=1.0)
    benchmark.add_argument("--alpha", type=float, default=4.0,
                           action=_DriverFlag)
    benchmark.add_argument("--T", type=float, default=10.0,
                           action=_DriverFlag)
    benchmark.add_argument("--snap", type=float, default=0.1,
                           action=_DriverFlag,
                           help="grid the jump times are rounded to")
    benchmark.set_defaults(driver_flags=())

    p = sub.add_parser("linear-convergence", parents=[benchmark],
                       help="error table for the linear benchmark")
    p.add_argument("--jumps", default="2,4,6,8,10", action=_DriverFlag,
                   help="comma-separated jump counts")
    p.add_argument("--h", default="1e-1,1e-2,1e-3,1e-4,1e-5",
                   help="comma-separated steps")
    p.add_argument("--derivator", default=None,
                   help="JSON descriptor (inline or path) overriding the default driver")
    p.add_argument("--out", default="linear_convergence.csv")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=run_linear_convergence)

    p = sub.add_parser("silkworm", help="population model run vs exact solution")
    p.add_argument("--h", type=float, default=1e-2)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.1)
    p.add_argument("--c", type=float, default=1.2)
    p.add_argument("--x0", type=float, default=8.0)
    p.add_argument("--out", default="silkworm.csv")
    p.set_defaults(func=run_silkworm)

    p = sub.add_parser("quadrature-check",
                       help="randomized rule-vs-bound property suite")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--n-oracle", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="quadrature_check.csv")
    p.set_defaults(func=run_quadrature_check)

    p = sub.add_parser("bounds", parents=[benchmark],
                       help="measured constants vs the a-priori error bounds")
    p.add_argument("--jumps", type=int, default=2)
    p.add_argument("--h", type=float, default=1e-2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which is our config-error code too
        return int(exc.code) if exc.code else 0
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except solver.GridMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        # a failing or diverging solve, or a file that cannot be read or
        # written, is a configuration error too: exit code 1 stays reserved
        # for property and bound violations
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
