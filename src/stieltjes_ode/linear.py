"""Closed-form solutions of the linear equation driven by a derivator.

The problem is ``x'_g(t) + d(t) x(t) = forcing(t)`` with ``x(0) = x0``.  Its
solution is expressed through a driver-adapted exponential: coefficients are
"hatted" at jump times (``ln|1 + c(t) gap| / gap``), integrated against the
driver's measure, and exponentiated, with a sign flip recorded at every jump
where ``1 + c(t) gap`` is negative.  A jump is admissible as long as
``d(t) * gap != 1``; the constant-coefficient closed forms additionally
require ``d * gap < 1``, which keeps every product factor positive.  The
jump factors come from ``_jump_map``, which rejects one that is 0, NaN or
infinite; a non-finite constant coefficient is rejected too.  Every closed
form takes its arguments in the order ``(coefficients, x0, g, t)``.

With classical time (no jumps, ``g(t) = t``) everything reduces to the
textbook formulas.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from .derivator import Derivator, _check_number, _check_times
from .quadrature import _blocks, _piece_terms, _pieces, _trapezoid

__all__ = [
    "hat_exponential",
    "homogeneous_solution",
    "constant_linear_solution",
    "general_linear_solution",
]

Coefficient = Union[float, Callable]


def _as_time_function(v: Coefficient, name: str) -> Callable:
    """``v`` as a function of time, which for a constant ``v`` (it must be
    finite) returns an array of ``t``'s shape."""
    if callable(v):
        return v
    c = float(v)
    _check_number(c, name)
    return lambda t: np.full(np.shape(t), c)


def _jump_map(c_values, times, gaps, positive=False):
    """The factors ``1 + c*gap`` of the jump maps, with ``c_values`` the
    coefficient at the jumps ``times``; ``ValueError`` names the first jump
    whose map ``x -> (1 + c*gap) x`` is not invertible: a factor that is not
    finite and nonzero (with ``positive``, not finite and above 0)."""
    with np.errstate(over="ignore"):  # an overflow is rejected below
        factors = 1.0 + np.asarray(c_values, dtype=float) * gaps
    size = factors if positive else np.abs(factors)
    bad = ~((size > 0.0) & (size < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        rule = "positive and finite" if positive else "a finite nonzero number"
        raise ValueError(f"inadmissible jump at t={float(times[k])}: the jump "
                         f"factor {float(factors[k])} is not {rule}")
    return factors


def hat_exponential(c: Coefficient, g: Derivator, t: float,
                    quad_n: int = 10 ** 6) -> float:
    """Driver-adapted exponential of the coefficient ``c`` at time ``t``.

    Magnitude is ``exp`` of the measure integral of the hatted coefficient
    over ``[0, t)`` (constant ``c`` evaluates in closed form, otherwise the
    continuous part is refined on ``quad_n`` subintervals); the sign flips
    once for every jump before ``t`` with ``1 + c*gap < 0``.  A factor ``1
    + c*gap`` of 0, NaN or inf (``_jump_map``), a non-finite constant
    ``c``, a ``t`` outside ``[0, T]``, or a ``quad_n`` that is not an
    integer in ``[1, MAX_GRID_STEPS]`` (checked for a constant ``c`` too),
    raises ``ValueError``.
    """
    _check_number(quad_n, "quad_n", "grid steps")
    t = float(t)
    if not 0.0 <= t <= g.domain_end:
        raise ValueError(f"need 0 <= t <= {g.domain_end}, got t={t}")
    times, gaps = g.jumps_in(0.0, t)
    c_fun = _as_time_function(c, "coefficient c")
    factors = _jump_map([float(c_fun(s)) for s in times], times, gaps)
    log_mag = 0.0
    for factor in factors:
        log_mag += math.log(abs(factor))
    if not callable(c):
        log_mag += float(c) * g.continuous_value(t)
    else:
        for _, _, terms in _piece_terms(c, g, 0.0, t, quad_n):
            log_mag += float(np.sum(terms))
    return (-1.0) ** int(np.sum(factors < 0.0)) * math.exp(log_mag)


def homogeneous_solution(d: float, x0: float, g: Derivator, t,
                         from_right: bool = False):
    """Exact solution of ``x'_g + d x = 0`` with constant ``d``.

    ``x(t) = x0 * exp(-d g(t)) * prod (1 - d gap) exp(d gap)`` with the
    product over jumps strictly before ``t`` (or up to and including ``t``
    for the right limit).  Requires finite ``d`` and ``x0`` and a positive
    jump factor ``1 - d * gap`` (``_jump_map``), that is ``d * gap < 1``,
    at every jump; accepts scalar or array ``t``.
    """
    _check_number(d, "damping d")
    _check_number(x0, "initial value")
    factors = (_jump_map(-d, g.jump_times, g.jump_gaps, positive=True)
               * np.exp(d * g.jump_gaps))
    arr, scalar = np.asarray(t, dtype=float), np.asarray(t).ndim == 0
    span = _check_times(arr, g.domain_end, closed_right=not from_right)
    prefix = np.concatenate(([1.0], np.cumprod(factors)))
    prods = g._prefix_at(prefix, arr, "right" if from_right else "left", span)
    # ``x0 * exp(-d * g) * prods`` in place on the fresh array of ``g`` (a
    # float for a 0-d ``t``, which ``asarray`` makes a writable 0-d array)
    out = np.asarray(g.right_value(arr) if from_right else g.value(arr))
    out *= -d
    np.exp(out, out=out)
    out *= x0
    out *= prods
    return float(out) if scalar else out


def constant_linear_solution(d: float, forcing: float, x0: float, g: Derivator,
                             t, from_right: bool = False):
    """Exact solution of ``x'_g + d x = forcing`` with constant coefficients.

    The constant ``forcing/d`` solves the equation at every time, jumps
    included, so ``x = x0 H + forcing (1 - H)/d`` with ``H`` the
    :func:`homogeneous_solution` started from 1; for ``d = 0`` it is ``x0 +
    forcing g(t)``.  Requires finite ``d``, ``forcing`` and ``x0`` and ``d *
    gap < 1`` at every jump; accepts scalar or array ``t``.
    """
    _check_number(d, "damping d")
    _check_number(forcing, "forcing")
    _check_number(x0, "initial value")
    if d == 0.0:
        return x0 + forcing * (g.right_value(t) if from_right else g.value(t))
    hom = homogeneous_solution(d, 1.0, g, t, from_right)
    return x0 * hom + forcing * (1.0 - hom) / d


def general_linear_solution(d: Coefficient, forcing: Coefficient, x0: float,
                            g: Derivator, t: float,
                            quad_n: int = 10 ** 6) -> float:
    """Solution of the linear equation with time-dependent coefficients.

    ``d`` and ``forcing`` may be constants or callables of time.
    Evaluates the adapted-exponential representation with the continuous
    parts refined on ``quad_n`` subintervals (jump contributions are exact).
    Each piece is walked once in ``quadrature._blocks``: per block, the
    trapezoid of ``d``, its running integral ``phi`` (a cumsum seeded by the
    piece's) and the trapezoid of ``sign * exp(phi) * forcing``.  ``forcing``
    is read at the jumps and at the ends of grid steps where ``g^C`` rises,
    never inside a flat stretch, where it may even be NaN.  Requires a
    finite ``x0`` and finite constant coefficients (a callable is not
    sampled), a finite nonzero jump factor ``1 - d(t) * gap`` at every jump
    (``_jump_map``, with ``d`` read once per jump), ``t`` in ``[0, T]`` and
    an integer ``quad_n`` in ``[1, MAX_GRID_STEPS]``.
    """
    _check_number(quad_n, "quad_n", "grid steps")
    _check_number(x0, "initial value")
    d_fun = _as_time_function(d, "damping d")
    h_fun = _as_time_function(forcing, "forcing")
    denoms = _jump_map([-float(d_fun(s)) for s in g.jump_times],
                       g.jump_times, g.jump_gaps)
    t = float(t)
    if not 0.0 <= t <= g.domain_end:
        raise ValueError(f"need 0 <= t <= {g.domain_end}, got t={t}")
    times, gaps = g.jumps_in(0.0, t)
    log_mag = 0.0
    sign = 1.0
    forced = 0.0
    # piece i ends at jump i, the last piece at t
    for i, (lo, hi, m) in enumerate(_pieces(g, 0.0, t, quad_n)):
        terms = np.zeros(m)  # the forcing's trapezoid terms
        run = 0.0  # the d-integral along the piece up to the block
        for start, block, dgc in _blocks(g, lo, hi, m):
            # the d-integral at the block's points: a cumsum seeded by the
            # piece's running integral gives the whole piece's, bit for bit
            phi = np.append(run, np.zeros(dgc.size))
            _trapezoid(d_fun, block, dgc, phi[1:])
            np.cumsum(phi, out=phi)
            run = phi[-1]
            weight = sign * np.exp(phi + log_mag)
            _trapezoid(h_fun, block, dgc, terms[start:start + dgc.size],
                       weight)
        forced += float(np.sum(terms))
        log_mag = float(log_mag + run)
        if i < len(times):
            s, gap, denom = float(times[i]), float(gaps[i]), float(denoms[i])
            h_tilde = float(h_fun(s)) / denom
            forced += sign * math.exp(log_mag) * h_tilde * gap
            log_mag += -math.log(abs(denom))
            if denom < 0.0:
                sign = -sign
    e_hat_t = sign * math.exp(log_mag)
    return (x0 + forced) / e_hat_t
