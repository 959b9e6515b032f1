"""Benchmark problems: the linear family and the silkworm population model.

The silkworm model runs on the staged periodic driver of
:func:`~stieltjes_ode.derivator.make_silkworm_derivator`.  Each 5-unit
period covers worms, cocoons, moths and eggs; the population decays at rate
``c`` while alive, is wiped out by the unit jump at ``5k+4`` (moths die
after laying eggs), and restarts at the unit jump at ``5(k+1)`` with
``lambda`` times the integral of the previous generation over its life span
``[5(k-1), 5k-1]``.  That delay integral is what makes the right-hand side
functional: it reads the trajectory computed so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivator import _silkworm_base
from .solver import IvpSpec, TrajectoryHistory

__all__ = [
    "SilkwormParams",
    "silkworm_rhs",
    "silkworm_rhs_right",
    "make_silkworm_spec",
    "SilkwormSolution",
    "make_linear_spec",
]


@dataclass(frozen=True)
class SilkwormParams:
    """Decay rate ``c``, fecundity ``lam``, initial population and horizon.

    ``lam = 0`` is allowed as the degenerate no-reproduction case (the
    population dies out after the first cycle); negative rates are not.
    """

    c: float
    lam: float
    x0: float
    T: float = 10.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(
                f"decay rate c must be positive and finite, got {self.c}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(
                f"fecundity lam must be nonnegative and finite, got {self.lam}")


def silkworm_rhs(t: float, x: float, history: TrajectoryHistory,
                 params: SilkwormParams) -> float:
    """Staged right-hand side: decay, moth death, or hatch integral.

    The stage comes from the offset ``t - 5*floor(t/5)`` into the period.
    Grid nodes at hatch and moth-death times are snapped to the stored jump
    times ``5k+5`` and ``5k+4``, on which the offset is exact, so the
    comparisons with 0 and 4 need no tolerance.
    """
    r = t - 5.0 * math.floor(t / 5.0)
    if r == 0.0 and t > 0.0:
        return params.lam * history.integral(t - 5.0, t - 1.0)
    if r == 4.0:
        return -x
    return -params.c * x


def silkworm_rhs_right(t: float, x: float, history: TrajectoryHistory,
                       params: SilkwormParams) -> float:
    """Right limit of the right-hand side.

    Just after a hatch or moth-death time the population is back in the
    decay regime, and everywhere else the stage does not change from the
    right, so this is plain decay.  (At moth-death times the value is
    irrelevant anyway: the driver is flat there, so the predictor and
    corrector weights vanish.)
    """
    return -params.c * x


def make_silkworm_spec(params: SilkwormParams) -> IvpSpec:
    """Bundle the staged right-hand side into a solver spec."""
    return IvpSpec(
        rhs=lambda t, x, hist: silkworm_rhs(t, x, hist, params),
        rhs_right=lambda t, x, hist: silkworm_rhs_right(t, x, hist, params),
        x0=params.x0,
    )


def _life_span_mass(c: float) -> float:
    """Integral of ``exp(-c g)`` over one life span ``[0, 4]`` of the driver.

    ``s = 2 - 2cos(theta)`` on the worm ramp and ``s = 3 + sin(phi)`` on the
    moth ramp remove the square-root ends (``g = sin(theta)``, ``g = 2 -
    cos(phi)``); the cocoon adds ``exp(-c)``.  ``theta = pi/2 t^3`` widens
    the worm's layer of width ``1/c`` at 0, which rounding of the nodes next
    to 0 would limit to about ``c * 1e-16`` relative.  Gauss-Legendre doubles
    from 32 nodes until two values agree to 1e-13 relative; ``RuntimeError``
    if they do not by 1024 nodes (every ``c`` up to 1e5 settles by 512).
    """
    previous = None
    for n in (32, 64, 128, 256, 512, 1024):
        x, w = np.polynomial.legendre.leggauss(n)
        t, w = 0.5 * (x + 1.0), 0.5 * w  # rule on [0, 1]
        theta, phi = 0.5 * np.pi * t ** 3, 0.5 * np.pi * t
        worm = np.dot(w, np.exp(-c * np.sin(theta)) * np.sin(theta) * t * t)
        moth = np.dot(w, np.exp(-c * (2.0 - np.cos(phi))) * np.cos(phi))
        value = float(3.0 * np.pi * worm + math.exp(-c) + 0.5 * np.pi * moth)
        if previous is not None and abs(value - previous) <= 1e-13 * abs(value):
            return value
        previous = value
    raise RuntimeError("life-span quadrature did not stabilize")


class SilkwormSolution:
    """Exact population path, evaluated generation by generation.

    Generation 0 decays from ``x0``; each later generation starts at
    ``lam`` times the time integral of its parent over the parent's life
    span and decays along the driver from there; the population is zero in
    every egg phase.  The per-generation life-span integral is a single
    quadrature (the driver repeats with period 5), see
    :func:`_life_span_mass`.
    """

    def __init__(self, params: SilkwormParams):
        self.params = params
        mass = _life_span_mass(params.c)
        n_gen = int(math.floor(params.T / 5.0)) + 1
        amps = [params.x0]
        for _ in range(n_gen):
            amps.append(params.lam * amps[-1] * mass)
        self._amps = np.array(amps)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        k = np.floor(arr / 5.0).astype(int)
        offset = arr - 5.0 * k
        out = np.zeros_like(arr)
        alive = (offset <= 4.0) & ((offset > 0.0) | (k == 0))
        if np.any(alive):
            amps = self._amps[np.minimum(k[alive], len(self._amps) - 1)]
            out[alive] = amps * np.exp(-self.params.c * _silkworm_base(offset[alive]))
        return float(out[0]) if scalar else out

    def right(self, t):
        """Right limit: zero after moth death, a fresh hatch after ``5k``."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = self(arr)
        k = np.round(arr / 5.0).astype(int)
        hatch = (arr == 5.0 * k) & (k >= 1)
        out[hatch] = self._amps[np.minimum(k[hatch], len(self._amps) - 1)]
        died = arr == 5.0 * np.floor(arr / 5.0) + 4.0
        out[died] = 0.0
        return float(out[0]) if scalar else out


def make_linear_spec(d: float, x0: float) -> IvpSpec:
    """Solver spec for the homogeneous linear benchmark ``x'_g = -d x``."""
    return IvpSpec(rhs=lambda t, x, hist: -d * x, x0=x0)
