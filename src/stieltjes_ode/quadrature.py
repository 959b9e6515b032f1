"""Quadrature rules for integrals against a monotone driver on one interval.

All rules approximate the measure integral of ``f`` over ``[a, b)`` driven by
a :class:`~stieltjes_ode.derivator.Derivator` ``g``.  They form a 2x2
family, one :class:`RuleKind` each, evaluated by the one function
``evaluate_rule``.  Point masses at jump times are always summed exactly;
``kind.trapezoid`` picks the weights of the continuous part:

* one-point:     ``f(a) * (gC(b) - gC(a))``
* trapezoid:     ``(f(a) + f(b))/2 * (gC(b) - gC(a))``

and ``kind.corrected`` applies them to the continuous part of ``f``
relative to ``[a, b]``, plus cross terms ``(f(d+) - f(d)) * (gC(b) -
gC(d))`` at each jump, which is what makes the corrected rules second order
for ``g``-Lipschitz integrands.  The plain rules read ``f`` in place of
``f_right``, so their cross terms vanish.

``oracle_integral`` is an independent reference (jump sums plus a composite
trapezoid refinement of the continuous part) used by the property suite, and
``error_bound`` evaluates the worst-case bound attached to each rule.  The
oracle's block walk (``_pieces``, ``_blocks``, ``_trapezoid``) also serves
``linear.hat_exponential`` and ``general_linear_solution``.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from .derivator import (_ORACLE_BLOCK, MAX_GRID_STEPS, Derivator,
                        _check_number, _check_rises, _f_on_arrays,
                        _is_integer, make_test_derivator)

__all__ = [
    "RuleKind",
    "oracle_integral",
    "error_bound",
    "evaluate_rule",
    "make_lipschitz_integrand",
    "run_bound_suite",
]


class RuleKind(enum.Enum):
    """One rule of the family: one-point or trapezoid, plain or corrected."""

    ONE_POINT = "one-point"
    TRAPEZOID = "trapezoid"
    CORRECTED_ONE_POINT = "corrected-one-point"
    CORRECTED_TRAPEZOID = "corrected-trapezoid"

    @property
    def trapezoid(self) -> bool:
        """Trapezoid weights on the continuous part, else one-point."""
        return self in (RuleKind.TRAPEZOID, RuleKind.CORRECTED_TRAPEZOID)

    @property
    def corrected(self) -> bool:
        """The jump cross terms are kept: ``f_right`` is read."""
        return self in (RuleKind.CORRECTED_ONE_POINT,
                        RuleKind.CORRECTED_TRAPEZOID)


def _check_interval(g: Derivator, a: float, b: float):
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if a < 0.0 or b > g.domain_end:
        raise ValueError(f"[{a}, {b}) not inside [0, {g.domain_end}]")


def _check_refinement(n, name: str = "n"):
    """Reject ``n`` unless it is an integer (not a bool) in ``[1,
    MAX_GRID_STEPS]``; called before anything is allocated."""
    if not (_is_integer(n) and 1 <= n <= MAX_GRID_STEPS):
        raise ValueError(f"need an integer 1 <= {name} <= {MAX_GRID_STEPS} "
                         f"refinement subintervals, got {n!r}")


def _eval(f: Callable, x):
    return float(f(float(x)))


def evaluate_rule(kind: RuleKind, f, f_right, g: Derivator, a: float,
                  b: float) -> float:
    """The rule ``kind`` (a ``RuleKind`` or its value string) on ``[a, b)``.

    Only ``f``/``f_right`` values on the interval are needed; the
    discontinuities of ``f`` must sit inside the jump set of ``g``.
    """
    kind = RuleKind(kind)
    if not kind.corrected:
        f_right = f
    _check_interval(g, a, b)
    cb = g.continuous_value(b)
    dc = cb - g.continuous_value(a)
    # the one-point weight term comes before the jump terms, the trapezoid
    # one after them: the summation order of the two rules, kept bit for bit
    total = 0.0 if kind.trapezoid else _eval(f, a) * dc
    times, gaps = g.jumps_in(a, b)
    jump_in_f = 0.0
    for d, gap in zip(times, gaps):
        fd = _eval(f, d)
        delta = _eval(f_right, d) - fd
        jump_in_f += delta
        total += fd * gap + delta * (cb - g.continuous_value(d))
    if kind.trapezoid:
        # f(b) - jump_in_f: the continuous part of f relative to [a, b]
        total += 0.5 * (_eval(f, a) + (_eval(f, b) - jump_in_f)) * dc
    return total


def _grid_points(lo, hi, m, idx):
    """``np.linspace(lo, hi, m + 1)[idx]``, bit for bit, for an array
    ``idx`` of increasing grid indices, without building the rest of the
    grid."""
    width = hi - lo
    if width / m == 0:  # numpy's order when a subnormal width underflows
        xs = idx / m
        xs *= width
    else:
        xs = idx * (width / m)
    xs += lo
    if idx[-1] == m:
        xs[-1] = hi
    return xs


def _pieces(g: Derivator, a: float, b: float, n: int):
    """``(lo, hi, m)`` for each piece of ``[a, b]`` cut at the jumps inside
    ``(a, b)``, the ``n`` subintervals shared out by length."""
    interior, _ = g.jumps_in(np.nextafter(a, b), b)
    cuts = np.concatenate(([a], interior, [b]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            yield lo, hi, max(1, int(round(n * (hi - lo) / (b - a))))


def _blocks(g: Derivator, lo: float, hi: float, m: int):
    """``(start, block, dgc)`` for each block of ``_ORACLE_BLOCK`` steps of
    ``np.linspace(lo, hi, m + 1)`` that is not flat throughout.

    ``gC`` is read on the block ends (indices ``0, B, .., m``) first; it is
    nondecreasing, so a block whose end values are equal is flat and is
    skipped, unread.  A ``gC`` difference that is NaN or falls by more than
    rounding (the slack of the block-end values) raises ``ValueError``
    through ``derivator._check_rises``: each evaluated block's steps as it
    is read, then the block-end differences; the error names the first bad
    step of the first check that fails.  A NaN or a decrease strictly
    inside a block whose end values agree goes unseen.
    """
    starts = range(0, m, _ORACLE_BLOCK)
    edges = _grid_points(lo, hi, m, np.array([*starts, m], dtype=float))
    ce = g.continuous_value(edges)
    slack = g._rise_slack(ce)
    for j, start in enumerate(starts):
        if ce[j] == ce[j + 1]:
            continue  # flat throughout
        stop = min(start + _ORACLE_BLOCK, m)
        block = _grid_points(lo, hi, m,
                             np.arange(start, stop + 1, dtype=float))
        dgc = np.diff(g.continuous_value(block))
        _check_rises(dgc, slack, block, "oracle")
        yield start, block, dgc
    _check_rises(np.diff(ce), slack, edges, "oracle")


def _trapezoid(f, block, dgc, out, weight=None, first=None):
    """``out[i] = (v_i + v_i+1)/2 * dgc[i]`` in place on fresh zeros, for
    ``v = weight * f(block)`` (``weight`` defaults to 1) and ``first(x_0)``
    in place of ``f(x_0)`` when given.  A flat step (``dgc[i] == 0``) keeps
    ``0.0``, and ``f`` is read only at the ends of the other steps.
    The ``f(block)`` of a block without flat steps is served from the
    driver's memo of ``continuous_value(block)`` when ``f`` evaluates ``g``.
    """
    live = dgc != 0
    if live.all():
        fv = _f_on_arrays(f, block)
        live = True  # a plain add below
    else:
        # ``f`` at the ends of the live steps only, 0 elsewhere
        ends = np.append(live, False)
        ends[1:] |= live
        fv = np.zeros_like(block)
        fv[ends] = _f_on_arrays(f, block[ends])
    if weight is not None:
        fv = weight * fv  # a new array: ``f`` may hand back the block
    if first is not None and dgc[0] != 0:
        # a copy: ``f`` may hand back its argument, the block
        fv = np.concatenate(([_eval(first, block[0])], fv[1:]))
    # 0.5 * (fv[1:] + fv[:-1]) * dgc on the live steps, in place
    np.add(fv[1:], fv[:-1], out=out, where=live)
    out *= 0.5
    out *= dgc


def _piece_terms(f, g: Derivator, a: float, b: float, n: int,
                 f_right: Callable | None = None):
    """Trapezoid terms of ``f`` against the continuous part, piece by piece.

    For each piece of ``_pieces`` this yields ``(lo, hi, terms)``,
    ``terms[i] = (f(x_i) + f(x_i+1))/2 * (gC(x_i+1) - gC(x_i))`` on ``x =
    np.linspace(lo, hi, m + 1)``, 0.0 on the flat blocks that ``_blocks``
    skips; ``f_right(lo)``, when given, replaces ``f(lo)`` at a jump.  No
    whole grid is held.
    """
    for lo, hi, m in _pieces(g, a, b, n):
        first = f_right if f_right is not None and lo in g.jump_times else None
        terms = np.zeros(m)
        for start, block, dgc in _blocks(g, lo, hi, m):
            _trapezoid(f, block, dgc, terms[start:start + dgc.size],
                       first=None if start else first)
        yield lo, hi, terms


def oracle_integral(f, g: Derivator, a: float, b: float, n: int,
                    f_right: Callable | None = None) -> float:
    """Reference value of the measure integral of ``f`` over ``[a, b)``.

    Exact jump sums plus the composite trapezoid of ``_piece_terms`` on
    ``n`` subintervals, each piece's terms summed once in grid order.  A
    piece that starts at a jump time ``d`` (an interior jump, or ``a``
    itself) takes ``f_right(d) = f(d+)`` at its left end; ``f_right``
    defaults to ``f``, right when ``f`` is right-continuous there.  The
    trapezoid is then second order in ``1/n`` on every piece.  ``f`` is
    ignored on a null set of ``dg^C``: it is read at the jump atoms and at
    the ends of grid steps where ``g^C`` rises, never inside a flat stretch,
    where it may even be NaN.  ``g^C`` is read on the block ends of each
    piece and inside the blocks whose end values differ, not inside a block
    that is flat throughout.  Where it is NaN or falls by more than
    rounding, the call raises ``ValueError`` by the partition's rule (see
    ``_blocks``).  ``n`` must be an integer in ``[1, MAX_GRID_STEPS]``.
    The oracle shares no code with the single-interval rules above.
    """
    _check_interval(g, a, b)
    _check_refinement(n)
    times, gaps = g.jumps_in(a, b)
    total = sum(_eval(f, d) * gap for d, gap in zip(times, gaps))
    for _, _, terms in _piece_terms(f, g, a, b, n, f_right):
        total += float(np.sum(terms))
    return total


def error_bound(kind: RuleKind, H: float, p: float, a: float, b: float,
                var_f: float) -> float:
    """Worst-case error bound attached to each rule kind.

    One-point and trapezoid take a ``p``-Holder continuous part with
    constant ``H`` and an integrand of total variation ``var_f``; the
    corrected rules take the common Lipschitz constant ``H`` of both
    continuous parts (``p`` is forced to 1 and ``var_f`` ignored).  A NaN,
    infinite or negative ``H`` or ``var_f`` raises ``ValueError``: no error
    could meet the bound it gives.  So does a non-finite ``a`` or ``b``.
    """
    kind = RuleKind(kind)
    _check_number(a, "a")
    _check_number(b, "b")
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"Holder exponent must be in (0, 1], got {p}")
    _check_number(H, "H", "nonnegative")
    _check_number(var_f, "var_f", "nonnegative")
    width = b - a
    if kind.corrected:
        return (0.5 * H if kind.trapezoid else H) * H * width * width
    return H * (0.5 * width if kind.trapezoid else width) ** p * var_f


def make_lipschitz_integrand(g: Derivator, c1: float, c2: float):
    """Integrand ``c1*g + c2*sin(g)`` with its right-limit companion.

    It is Lipschitz along ``g`` with constant ``|c1| + |c2|``, which makes
    its jump sizes and total variation easy to bound analytically.  A
    non-finite ``c1`` or ``c2`` raises ``ValueError``.
    """
    _check_number(c1, "c1")
    _check_number(c2, "c2")

    def combine(gv):
        # c1 * gv + c2 * sin(gv), in place on the fresh driver values
        s = np.sin(gv)
        s *= c2
        gv *= c1
        gv += s
        return gv

    def f(t):
        return combine(g.value(t))

    def f_right(t):
        return combine(g.right_value(t))

    return f, f_right, abs(c1) + abs(c2)


def run_bound_suite(num_cases: int = 200, n_oracle: int = 10 ** 6,
                    seed: int = 20240) -> list[dict]:
    """Randomized check that the rules respect their error bounds.

    Each case draws a ramp-and-jumps test driver, a ``g``-Lipschitz
    integrand, an interval of random position and scale, and one of the
    four rules, then compares the rule against the refinement oracle.
    Returns one row per case with the rule value, the oracle value, the
    bound, and a pass flag.  ``num_cases`` must be an integer of at least
    1, ``n_oracle`` one in ``[1, MAX_GRID_STEPS]`` and ``seed`` one of at
    least 0.
    """
    if not (_is_integer(num_cases) and num_cases >= 1):
        raise ValueError(f"need at least one case: num_cases must be an "
                         f"integer >= 1, got {num_cases!r}")
    _check_refinement(n_oracle, "n_oracle")
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    kinds = list(RuleKind)
    rows = []
    for case in range(num_cases):
        nj = int(rng.integers(0, 5))
        alpha = float(rng.uniform(1.0, 6.0))
        g = make_test_derivator(nj, alpha=alpha, T=10.0)
        a = float(rng.uniform(0.0, 9.0))
        width = 10.0 ** float(rng.uniform(-3.0, math.log10(g.domain_end - a)))
        b = min(a + width, g.domain_end)
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        kind = kinds[int(rng.integers(0, len(kinds)))]
        f, f_right, h_f = make_lipschitz_integrand(g, c1, c2)
        h_gc = g.estimate_continuous_lipschitz(a, b)
        var_f = h_f * g.measure(a, b)                # variation bound along g
        hh = max(h_gc, h_f * h_gc) if kind.corrected else h_gc
        oracle = oracle_integral(f, g, a, b, n_oracle, f_right)
        value = evaluate_rule(kind, f, f_right, g, a, b)
        bound = error_bound(kind, hh, 1.0, a, b, var_f)
        rows.append({
            "case": case,
            "rule": kind.value,
            "value": value,
            "oracle": oracle,
            "bound": bound,
            "passed": abs(value - oracle) <= bound + 1e-12,
        })
    return rows
