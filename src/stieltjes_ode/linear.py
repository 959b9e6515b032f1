"""Closed-form solutions of the linear equation driven by a derivator.

The problem is ``x'_g(t) + d(t) x(t) = forcing(t)`` with ``x(0) = x0``.  Its
solution is expressed through a driver-adapted exponential: coefficients are
"hatted" at jump times (``ln|1 + c(t) gap| / gap``), integrated against the
driver's measure, and exponentiated, with a sign flip recorded at every jump
where ``1 + c(t) gap`` is negative.  A jump is admissible as long as
``d(t) * gap != 1``; the constant-coefficient closed forms additionally
require ``d * gap < 1``, which keeps every product factor positive.

With classical time (no jumps, ``g(t) = t``) everything reduces to the
textbook formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .derivator import Derivator, _f_on_arrays, _segment_grids

__all__ = [
    "LinearProblem",
    "AdmissibilityReport",
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


@dataclass
class LinearProblem:
    """Damping ``d``, forcing term, and initial value of the linear equation.

    ``damping`` and ``forcing`` may be constants or callables of time.  The
    forcing is the inhomogeneous right-hand side (kept distinct from the
    grid step, which is written ``h`` everywhere else in this package).
    """

    damping: Coefficient
    forcing: Coefficient
    x0: float


@dataclass
class AdmissibilityReport:
    """Outcome of the jump-admissibility check.

    ``offending`` lists ``(time, d*gap)`` pairs violating the selected
    condition; ``sign_flips`` lists jump times with ``d*gap > 1``, where the
    adapted exponential changes sign.  With finitely many jumps the
    summability condition on ``ln|1 - d*gap|`` always holds, so it is not
    checked.
    """

    ok: bool
    offending: list = field(default_factory=list)
    sign_flips: list = field(default_factory=list)


def check_admissibility(d: Coefficient, g: Derivator,
                        strict: bool = False) -> AdmissibilityReport:
    """Check ``d(t) * gap != 1`` (or ``< 1`` when strict) at every jump."""
    d_fun = _as_time_function(d)
    offending = []
    flips = []
    for time, gap in zip(g.jump_times, g.jump_gaps):
        prod = float(d_fun(time)) * float(gap)
        bad = prod >= 1.0 if strict else prod == 1.0
        if bad:
            offending.append((float(time), prod))
        if prod > 1.0:
            flips.append(float(time))
    return AdmissibilityReport(ok=not offending, offending=offending,
                               sign_flips=flips)


def _require_admissible(d, g, strict):
    report = check_admissibility(d, g, strict=strict)
    if not report.ok:
        kind = "d*gap < 1" if strict else "d*gap != 1"
        raise ValueError(
            f"inadmissible damping: {kind} fails at jumps {report.offending}")
    return report


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
                    quad_n: int = 10 ** 6, from_right: bool = False) -> float:
    """Driver-adapted exponential of the coefficient ``c`` at time ``t``.

    Magnitude is ``exp`` of the measure integral of the hatted coefficient
    over ``[0, t)`` (constant ``c`` evaluates in closed form, otherwise the
    continuous part is refined on ``quad_n`` subintervals); the sign flips
    once for every jump before ``t`` with ``1 + c*gap < 0``.
    """
    t = float(t)
    side = "right" if from_right else "left"
    hi = np.searchsorted(g.jump_times, t, side=side)
    times = g.jump_times[:hi]
    gaps = g.jump_gaps[:hi]
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
        for xs in _segment_grids(g, 0.0, t, quad_n):
            cv = g.continuous_value(xs)
            fv = _f_on_arrays(c, xs)
            log_mag += float(np.sum(0.5 * (fv[1:] + fv[:-1]) * np.diff(cv)))
    return (-1.0) ** flips * math.exp(log_mag)


def tilde_coefficients(prob: LinearProblem, g: Derivator, t: float):
    """Coefficients of the right-limit form: both divided by ``1 - d*gap``.

    At non-jump times this is the identity.
    """
    t = float(t)
    gap = g.jump_gap(t)
    d_val = float(_as_time_function(prob.damping)(t))
    f_val = float(_as_time_function(prob.forcing)(t))
    denom = 1.0 - d_val * gap
    if denom == 0.0:
        raise ValueError(f"inadmissible jump at t={t}: d*gap = 1")
    return d_val / denom, f_val / denom


def _jump_factors(d: float, gaps: np.ndarray) -> np.ndarray:
    return (1.0 - d * gaps) * np.exp(d * gaps)


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
    prefix = np.concatenate(([1.0], np.cumprod(_jump_factors(d, g.jump_gaps))))
    side = "right" if from_right else "left"
    prods = prefix[np.searchsorted(g.jump_times, arr, side=side)]
    out = x0 * np.exp(-d * g_vals) * prods
    return float(out) if scalar else out


def _forced_weight(d: float, g: Derivator, upto_index: int, t_right_cont: float,
                   prefix_prod: np.ndarray, prefix_gap: np.ndarray) -> float:
    """Measure integral of exp(d g(s)) / prod_{u<=s} factors over [0, t)."""
    times = g.jump_times[:upto_index]
    gaps = g.jump_gaps[:upto_index]
    cont = g.continuous_value
    total = 0.0
    # atoms: the integrand divided by (1 - d*gap) collapses with the jump
    # factor, so each atom contributes with the product taken before its jump
    for i, (s, gap) in enumerate(zip(times, gaps)):
        g_s = cont(s) + prefix_gap[i]
        total += math.exp(d * g_s) / prefix_prod[i] * gap / (1.0 - d * gap)
    # continuous segments: substitute u = gC(s), which integrates exactly
    cuts = np.concatenate(([0.0], times, [t_right_cont]))
    for i in range(len(cuts) - 1):
        lo, hi = cuts[i], cuts[i + 1]
        if hi <= lo:
            continue
        c_lo, c_hi = cont(lo), cont(hi)
        scale = math.exp(d * prefix_gap[i]) / prefix_prod[i]
        if d == 0.0:
            total += scale * (c_hi - c_lo)
        else:
            total += scale * (math.exp(d * c_hi) - math.exp(d * c_lo)) / d
    return total


def constant_linear_solution(d: float, forcing: float, x0: float, g: Derivator,
                             t: float, from_right: bool = False) -> float:
    """Exact solution of ``x'_g + d x = forcing`` with constant coefficients.

    The homogeneous part multiplies the jump products of
    :func:`homogeneous_solution`; the forced part integrates the adapted
    exponential in closed form (jump atoms exactly, continuous segments by
    monotone substitution, so no refinement error is left).  Requires
    ``d * gap < 1`` at every jump.
    """
    _require_admissible(d, g, strict=True)
    t = float(t)
    side = "right" if from_right else "left"
    hi = int(np.searchsorted(g.jump_times, t, side=side))
    gaps = g.jump_gaps
    prefix_prod = np.concatenate(([1.0], np.cumprod(_jump_factors(d, gaps))))
    prefix_gap = np.concatenate(([0.0], np.cumsum(gaps)))
    g_t = g.right_value(t) if from_right else g.value(t)
    envelope = math.exp(-d * g_t) * prefix_prod[hi]
    weight = _forced_weight(d, g, hi, t, prefix_prod, prefix_gap)
    return x0 * envelope + forcing * envelope * weight


def general_linear_solution(prob: LinearProblem, g: Derivator, t: float,
                            quad_n: int = 10 ** 6) -> float:
    """Solution of the linear equation with time-dependent coefficients.

    Evaluates the adapted-exponential representation with the continuous
    parts refined on ``quad_n`` subintervals (jump contributions are exact).
    Requires ``d(t) * gap != 1`` at every jump.
    """
    _require_admissible(prob.damping, g, strict=False)
    t = float(t)
    d_fun = _as_time_function(prob.damping)
    h_fun = _as_time_function(prob.forcing)
    times, gaps = g.jumps_in(0.0, t)
    log_mag = 0.0
    sign = 1.0
    forced = 0.0
    # segment i ends at jump i, the last segment at t
    for i, xs in enumerate(_segment_grids(g, 0.0, t, quad_n)):
        cv = g.continuous_value(xs)
        dv = _f_on_arrays(d_fun, xs)
        hv = _f_on_arrays(h_fun, xs)
        dc = np.diff(cv)
        # cumulative integral of the hatted coefficient along the segment
        phi = log_mag + np.concatenate(
            ([0.0], np.cumsum(0.5 * (dv[1:] + dv[:-1]) * dc)))
        e_hat = sign * np.exp(phi)
        integrand = e_hat * hv
        forced += float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * dc))
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
    return (prob.x0 + forced) / e_hat_t
