"""Predictor-corrector time stepping driven by a monotone derivator.

On a uniform grid ``t_k = k*h`` whose nodes contain every jump of the driver
``g``, the scheme advances three quantities per step:

    u_k+     = u_k + f(t_k, u_k) * gap(t_k)                  (jump update)
    u*_{k+1} = u_k+ + f(t_k+, u_k+) * (g(t_{k+1}) - g(t_k+))  (predictor)
    u_{k+1}  = u_k+ + (f(t_k+, u_k+) + f(t_{k+1}, u*_{k+1}))/2
                      * (g(t_{k+1}) - g(t_k+))                (corrector)

With classical time (``g(t) = t``) this is exactly Heun's method.  The
right-hand side receives read access to the trajectory computed so far, so
delay or integral terms can be evaluated from history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .derivator import MAX_GRID_STEPS, Derivator

__all__ = [
    "GridMismatchError",
    "Partition",
    "IvpSpec",
    "TrajectoryHistory",
    "Trajectory",
    "build_partition",
    "solve",
    "solve_perturbed",
]

# relative slack when matching jump times to grid nodes
_GRID_TOL = 1e-9


class GridMismatchError(ValueError):
    """The uniform grid cannot host the driver: the domain is not an integer
    number of steps, or some jump time falls between nodes."""


@dataclass(frozen=True)
class Partition:
    """Uniform grid bound to a derivator, with per-node driver data.

    ``nodes`` holds ``t_0 .. t_{N+1}`` with ``t_{N+1} = T``; nodes matched to
    a jump are snapped to the exact stored jump time (the mismatch is below
    ``h * 1e-9`` by construction) so jump lookups stay exact.  ``gaps``,
    ``g_left`` and ``g_right`` cache ``gap(t_k)``, ``g(t_k)`` and ``g(t_k+)``
    per node; the solver reads only these arrays in its inner loop.
    """

    g: Derivator
    h: float
    nodes: np.ndarray
    gaps: np.ndarray
    g_left: np.ndarray
    g_right: np.ndarray

    @property
    def n_steps(self) -> int:
        """Number of steps ``N + 1``; the grid has ``N + 2`` nodes."""
        return len(self.nodes) - 1


def build_partition(g: Derivator, h: float) -> Partition:
    """Uniform grid of step ``h`` on ``[0, T]`` containing every jump of ``g``.

    ``T/h`` must be an integer (to float accuracy) and every jump time must
    sit within ``h * 1e-9`` of a grid node, otherwise a
    :class:`GridMismatchError` names the first offending jump.  A grid of
    more than ``MAX_GRID_STEPS`` steps raises ``ValueError`` before anything
    is allocated.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step must be positive and finite, got {h}")
    T = g.domain_end
    steps = T / h
    if steps > MAX_GRID_STEPS + 0.5:
        raise ValueError(f"step {h} asks for {steps:.4g} steps on [0, {T}], "
                         f"more than the {MAX_GRID_STEPS} a grid may have")
    n_total = int(round(steps))
    if n_total < 1 or abs(steps - n_total) > 1e-9 * max(1.0, n_total):
        raise GridMismatchError(
            f"domain end {T} is not an integer number of steps {h}")
    nodes = np.arange(n_total + 1, dtype=float) * h
    nodes[-1] = T
    gaps = np.zeros(n_total + 1)
    for d, gap in zip(g.jump_times, g.jump_gaps):
        idx = int(round(d / h))
        if idx >= n_total or abs(nodes[idx] - d) > h * _GRID_TOL:
            raise GridMismatchError(
                f"jump at t={d} is not a node of the step-{h} grid; "
                f"the scheme requires every jump on the grid")
        nodes[idx] = d
        gaps[idx] = gap
    cont = g.continuous_value(nodes)
    g_left = cont + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    g_right = g_left + gaps
    return Partition(g, h, nodes, gaps, g_left, g_right)


@dataclass
class IvpSpec:
    """Initial value problem data for the stepping scheme.

    ``rhs(t, x, history)`` is the right-hand side at time ``t`` and state
    ``x``; ``history`` is the trajectory computed so far (ignore it for
    plain ``f(t, x)`` problems).  ``rhs_right`` evaluates the right limit
    ``f(t+, x)`` and defaults to ``rhs``, which is valid whenever
    ``f(., x)`` is right-continuous at the jump times.
    """

    rhs: Callable
    x0: float
    rhs_right: Optional[Callable] = None

    def __post_init__(self):
        if self.rhs_right is None:
            self.rhs_right = self.rhs
        if not math.isfinite(self.x0):
            raise ValueError(f"initial value must be finite, got {self.x0}")


class TrajectoryHistory:
    """Read view of the first ``filled`` trajectory values during a solve."""

    def __init__(self, nodes: np.ndarray, values: np.ndarray, step: float,
                 filled: int):
        self.nodes = nodes
        self.values = values
        self.step = step
        self.filled = filled

    def integral(self, lo: float, hi: float) -> float:
        """Trapezoid integral of the stored values over ``[lo, hi]`` (in dt).

        Uses the left node values; fractional end cells are handled by
        linear interpolation.  ``lo`` is clamped to the start of the grid.
        """
        lo = max(lo, self.nodes[0])
        if hi <= lo:
            return 0.0
        last = self.filled - 1
        if hi > self.nodes[last] + 1e-9 * self.step:
            raise ValueError(
                f"history covers [{self.nodes[0]}, {self.nodes[last]}], "
                f"cannot integrate up to {hi}")
        nodes = self.nodes[:self.filled]
        values = self.values[:self.filled]
        i0 = int(np.searchsorted(nodes, lo, side="left"))
        i1 = int(np.searchsorted(nodes, hi, side="right")) - 1
        total = 0.0
        if i1 > i0:
            xs = nodes[i0:i1 + 1]
            ys = values[i0:i1 + 1]
            total += float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        if i0 > 0 and nodes[i0] > lo:
            y_lo = float(np.interp(lo, nodes, values))
            total += 0.5 * (y_lo + values[i0]) * (nodes[i0] - lo)
        if nodes[i1] < hi:
            y_hi = float(np.interp(hi, nodes, values))
            total += 0.5 * (values[i1] + y_hi) * (hi - nodes[i1])
        return total


@dataclass
class Trajectory:
    """Scheme output on the full grid.

    ``values[k]`` is ``u_k`` for ``k = 0 .. N+1``; ``right_values[k]`` is
    ``u_k+`` for ``k = 0 .. N``; ``predictor_values[k-1]`` is ``u*_k`` for
    ``k = 1 .. N+1``.  Immutable once returned by :func:`solve`.
    """

    partition: Partition
    values: np.ndarray
    right_values: np.ndarray
    predictor_values: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.partition.nodes


def _run_scheme(spec: IvpSpec, part: Partition, rho_plus, rho_star,
                rho) -> Trajectory:
    n_steps = part.n_steps
    values = np.empty(n_steps + 1)
    right_values = np.empty(n_steps)
    predictor_values = np.empty(n_steps)
    values[0] = spec.x0
    rhs = spec.rhs
    rhs_right = spec.rhs_right
    history = TrajectoryHistory(part.nodes, values, part.h, 1)
    # memoryviews hand out and take Python floats: the same IEEE arithmetic
    # as numpy scalars, at a fraction of the cost per element
    nodes, gaps, g_left, g_right, rho_plus, rho_star, rho = map(memoryview, (
        part.nodes, part.gaps, part.g_left, part.g_right, rho_plus, rho_star,
        rho))
    out_u, out_plus, out_star = map(memoryview, (values, right_values,
                                                 predictor_values))
    u_k = out_u[0]
    for k in range(n_steps):
        t_k = nodes[k]
        t_next = nodes[k + 1]
        try:
            u_plus = u_k + rhs(t_k, u_k, history) * gaps[k] + rho_plus[k]
            dg = g_left[k + 1] - g_right[k]
            f_plus = rhs_right(t_k, u_plus, history)
            u_star = u_plus + f_plus * dg + rho_star[k]
            f_star = rhs(t_next, u_star, history)
        except Exception as exc:
            raise RuntimeError(
                f"right-hand side evaluation failed at node {k} "
                f"(step to t={t_next}): {exc}") from exc
        u_k = u_plus + 0.5 * (f_plus + f_star) * dg + rho[k]
        if not math.isfinite(u_k):
            raise FloatingPointError(
                f"state became non-finite stepping to node {k + 1} "
                f"(t={t_next}); aborting")
        out_plus[k] = u_plus
        out_star[k] = u_star
        out_u[k + 1] = u_k
        history.filled = k + 2
    return Trajectory(part, values, right_values, predictor_values)


def solve(spec: IvpSpec, part: Partition) -> Trajectory:
    """Run the scheme over the whole partition; deterministic."""
    # -0.0 is the additive identity of IEEE floats, signed zeros included
    zero = np.full(part.n_steps, -0.0)
    return _run_scheme(spec, part, zero, zero, zero)


def solve_perturbed(spec: IvpSpec, part: Partition, rho_plus, rho_star,
                    rho) -> Trajectory:
    """Scheme with additive perturbations injected at each stage.

    ``rho_plus[k]`` lands on ``u_k+`` (k = 0..N), ``rho_star[k]`` on
    ``u*_{k+1}`` and ``rho[k]`` on ``u_{k+1}``; all three sequences must
    have length ``N + 1``.  Zero perturbations reproduce :func:`solve`
    exactly.
    """
    n = part.n_steps
    rhos = [np.asarray(r, dtype=float) for r in (rho_plus, rho_star, rho)]
    for name, arr in zip(("rho_plus", "rho_star", "rho"), rhos):
        if arr.shape != (n,):
            raise ValueError(f"{name} must have length {n}, got {arr.shape}")
    return _run_scheme(spec, part, *rhos)
