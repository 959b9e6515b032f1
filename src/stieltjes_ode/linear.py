"""Closed-form solutions of the linear equation driven by a derivator.

The problem is ``x'_g(t) + d(t) x(t) = forcing(t)`` with ``x(0) = x0``.  Its
solution is expressed through a driver-adapted exponential: coefficients are
"hatted" at jump times (``ln|1 + c(t) gap| / gap``), integrated against the
driver's measure, and exponentiated, with a sign flip recorded at every jump
where ``1 + c(t) gap`` is negative.  A jump is admissible as long as
``d(t) * gap != 1``; the constant-coefficient closed forms additionally
require ``d * gap < 1``, which keeps every product factor positive.  Every
closed form takes its arguments in the order ``(coefficients, x0, g, t)``.

With classical time (no jumps, ``g(t) = t``) everything reduces to the
textbook formulas.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from .derivator import Derivator, _f_on_arrays
from .quadrature import _grid_block, _piece_terms

__all__ = [
    "check_admissibility",
    "hat_transform",
    "hat_exponential",
    "tilde_coefficients",
    "homogeneous_solution",
    "constant_linear_solution",
    "general_linear_solution",
]

Coefficient = Union[float, Callable]


def _as_time_function(v: Coefficient) -> Callable:
    if callable(v):
        return v
    c = float(v)

    def const(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return c
        return np.full(arr.shape, c)

    return const


def check_admissibility(d: Coefficient, g: Derivator,
                        strict: bool = False) -> list[tuple[float, float]]:
    """The ``(time, d*gap)`` pairs of the jumps that violate ``d(t) * gap !=
    1`` (or ``< 1`` when strict); empty when every jump is admissible.

    With finitely many jumps the summability condition on ``ln|1 - d*gap|``
    always holds, so it is not checked.
    """
    d_fun = _as_time_function(d)
    offending = []
    for time, gap in zip(g.jump_times, g.jump_gaps):
        prod = float(d_fun(time)) * float(gap)
        bad = prod >= 1.0 if strict else prod == 1.0
        if bad:
            offending.append((float(time), prod))
    return offending


def _require_admissible(d, g, strict):
    offending = check_admissibility(d, g, strict=strict)
    if offending:
        kind = "d*gap < 1" if strict else "d*gap != 1"
        raise ValueError(
            f"inadmissible damping: {kind} fails at jumps {offending}")


def hat_transform(c: Coefficient, g: Derivator) -> Callable:
    """Driver-adapted coefficient: ``ln|1 + c(t) gap| / gap`` at jumps.

    Away from jumps the coefficient is returned unchanged.  Accepts scalar
    or array ``t``; raises when ``1 + c(t) gap`` vanishes at some jump.
    """
    c_fun = _as_time_function(c)

    def hatted(t):
        arr = np.asarray(t, dtype=float)
        gap = g.jump_gap(arr)
        c_val = _f_on_arrays(c_fun, arr)
        at_jump = gap > 0.0
        arg = 1.0 + c_val * gap
        singular = at_jump & (arg == 0.0)
        if np.any(singular):
            raise ValueError("hat transform undefined: 1 + c*gap = 0 at jump "
                             f"t={float(arr[singular][0])}")
        out = np.where(at_jump, np.log(np.abs(arg))
                       / np.where(at_jump, gap, 1.0), c_val)
        return float(out) if arr.ndim == 0 else out

    return hatted


def hat_exponential(c: Coefficient, g: Derivator, t: float,
                    quad_n: int = 10 ** 6) -> float:
    """Driver-adapted exponential of the coefficient ``c`` at time ``t``.

    Magnitude is ``exp`` of the measure integral of the hatted coefficient
    over ``[0, t)`` (constant ``c`` evaluates in closed form, otherwise the
    continuous part is refined on ``quad_n`` subintervals); the sign flips
    once for every jump before ``t`` with ``1 + c*gap < 0``.  A ``t``
    outside ``[0, T]`` raises ``ValueError``.
    """
    t = float(t)
    times, gaps = g.jumps_in(0.0, t)
    c_fun = _as_time_function(c)
    log_mag = 0.0
    flips = 0
    for d_time, gap in zip(times, gaps):
        arg = 1.0 + float(c_fun(d_time)) * gap
        if arg == 0.0:
            raise ValueError(
                f"adapted exponential undefined: 1 + c*gap = 0 at jump t={d_time}")
        if arg < 0.0:
            flips += 1
        log_mag += math.log(abs(arg))
    if not callable(c):
        log_mag += float(c) * g.continuous_value(t)
    else:
        for _, _, terms in _piece_terms(c, g, 0.0, t, quad_n):
            log_mag += float(np.sum(terms))
    return (-1.0) ** flips * math.exp(log_mag)


def tilde_coefficients(d: Coefficient, forcing: Coefficient, g: Derivator,
                       t: float):
    """Coefficients of the right-limit form: both divided by ``1 - d*gap``.

    At non-jump times this is the identity.
    """
    t = float(t)
    gap = g.jump_gap(t)
    d_val = float(_as_time_function(d)(t))
    f_val = float(_as_time_function(forcing)(t))
    denom = 1.0 - d_val * gap
    if denom == 0.0:
        raise ValueError(f"inadmissible jump at t={t}: d*gap = 1")
    return d_val / denom, f_val / denom


def homogeneous_solution(d: float, x0: float, g: Derivator, t,
                         from_right: bool = False):
    """Exact solution of ``x'_g + d x = 0`` with constant ``d``.

    ``x(t) = x0 * exp(-d g(t)) * prod (1 - d gap) exp(d gap)`` with the
    product over jumps strictly before ``t`` (or up to and including ``t``
    for the right limit).  Requires ``d * gap < 1`` at every jump; accepts
    scalar or array ``t``.
    """
    _require_admissible(d, g, strict=True)
    arr, scalar = np.asarray(t, dtype=float), np.asarray(t).ndim == 0
    g_vals = g.right_value(arr) if from_right else g.value(arr)
    factors = (1.0 - d * g.jump_gaps) * np.exp(d * g.jump_gaps)
    prefix = np.concatenate(([1.0], np.cumprod(factors)))
    prods = g._prefix_at(prefix, arr, "right" if from_right else "left")
    out = x0 * np.exp(-d * g_vals) * prods
    return float(out) if scalar else out


def constant_linear_solution(d: float, forcing: float, x0: float, g: Derivator,
                             t, from_right: bool = False):
    """Exact solution of ``x'_g + d x = forcing`` with constant coefficients.

    The constant ``forcing/d`` solves the equation at every time, jumps
    included, so ``x = x0 H + forcing (1 - H)/d`` with ``H`` the
    :func:`homogeneous_solution` started from 1; for ``d = 0`` it is ``x0 +
    forcing g(t)``.  Requires ``d * gap < 1`` at every jump; accepts scalar
    or array ``t``.
    """
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
    Requires ``d(t) * gap != 1`` at every jump and ``t`` in ``[0, T]``.
    """
    _require_admissible(d, g, strict=False)
    t = float(t)
    d_fun = _as_time_function(d)
    h_fun = _as_time_function(forcing)
    times, gaps = g.jumps_in(0.0, t)
    log_mag = 0.0
    sign = 1.0
    forced = 0.0
    # piece i ends at jump i, the last piece at t
    for i, (lo, hi, terms) in enumerate(_piece_terms(d_fun, g, 0.0, t,
                                                     quad_n)):
        # cumulative integral of the hatted coefficient along the piece
        phi = log_mag + np.concatenate(([0.0], np.cumsum(terms)))
        xs = _grid_block(lo, hi, terms.size, 0, terms.size)
        integrand = sign * np.exp(phi) * _f_on_arrays(h_fun, xs)
        forced += float(np.sum(0.5 * (integrand[1:] + integrand[:-1])
                               * np.diff(g.continuous_value(xs))))
        log_mag = float(phi[-1])
        if i < len(times):
            s, gap = float(times[i]), float(gaps[i])
            d_s = float(d_fun(s))
            denom = 1.0 - d_s * gap
            h_tilde = float(h_fun(s)) / denom
            forced += sign * math.exp(log_mag) * h_tilde * gap
            log_mag += -math.log(abs(denom))
            if denom < 0.0:
                sign = -sign
    e_hat_t = sign * math.exp(log_mag)
    return (x0 + forced) / e_hat_t
