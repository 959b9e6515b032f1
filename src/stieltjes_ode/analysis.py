"""Error metrics, truncation errors, propagation bounds, and order fits.

``sample_exact`` samples an exact solution on a partition once, as a
reference ``Trajectory``.  Given a computed trajectory and that reference,
this module reports the per-node errors of the corrector, the predictor and
the right-limit update, evaluates the scheme's local truncation errors, and
assembles the constants ``G1 .. G6`` that drive the a-priori error bounds.
``estimate_order`` fits a convergence order from (step, error) pairs and
``convergence_table`` runs a whole benchmark grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .derivator import MEMO_POINTS, Derivator, _check_number, _f_on_arrays
from .solver import (IvpSpec, GridMismatchError, Partition, Trajectory,
                     build_partition, solve)

__all__ = [
    "ErrorReport",
    "BoundConstants",
    "sample_exact",
    "error_report",
    "truncation_errors",
    "measure_constants",
    "theoretical_bounds",
    "estimate_order",
    "ConvergenceCell",
    "convergence_table",
    "format_convergence_csv",
]


@dataclass
class ErrorReport:
    """Per-node errors of a trajectory against an exact solution.

    ``e[k] = u_k - x(t_k)`` for every node and ``max_e`` its largest
    magnitude.  ``max_e_star`` is the largest predictor error ``|u*_{k+1} -
    x(t_{k+1})|`` (it absorbs the one-point local truncation, which is why
    it sits well above ``max_e``).  ``max_e_plus`` is the largest
    right-limit error ``|u_k+ - x(t_k+)|`` over the jump nodes only, where
    the right limit actually differs from the node value; at every other
    node that error coincides with ``e``.  (Without jumps it runs over all
    nodes but the last.)
    """

    e: np.ndarray
    max_e: float
    max_e_star: float
    max_e_plus: float


# points per step of measure_constants' refinement grid
_STEP_POINTS = 21
# steps per block of that grid: one block's points fit the driver's memo, so
# the exact solution's read of g^C is served from it
_BLOCK_STEPS = MEMO_POINTS // _STEP_POINTS


def _on_arrays(rhs: Callable, hist: Trajectory, t, x) -> np.ndarray:
    """``rhs(t, x, hist)`` elementwise over the arrays ``t`` and ``x``."""
    return _f_on_arrays(lambda t, x: rhs(t, x, hist), t, x)


def _state_slope(rhs: Callable, hist: Trajectory, t, x,
                 delta: float) -> float:
    """Largest central difference quotient of ``rhs`` in the state."""
    return float(np.max(np.abs(_on_arrays(rhs, hist, t, x + delta)
                               - _on_arrays(rhs, hist, t, x - delta))
                        / (2 * delta)))


def sample_exact(exact: Callable, part: Partition) -> Trajectory:
    """The exact solution on ``part`` as a reference trajectory, the history
    its right-hand side reads.

    ``exact(t, from_right=False)`` must accept numpy arrays of times; with
    ``from_right=True`` it returns the right limits ``x(t+)``.  It is called
    twice: on the nodes and, for the right limits, on ``nodes[:-1]``.
    """
    nodes = part.nodes
    x = np.asarray(exact(nodes), dtype=float)
    x_right = np.asarray(exact(nodes[:-1], from_right=True), dtype=float)
    return Trajectory(part, x, x_right, x[1:])


def _max_abs(v: np.ndarray) -> float:
    """``max(|v|)`` without an array of ``|v|``; NaN when ``v`` holds one,
    and ``0.0``, not ``-0.0``, for an array of zeros."""
    return float(abs(max(v.max(), -v.min())))


def _check_reference(ref: Trajectory, part: Partition) -> None:
    if ref.partition is not part:
        raise ValueError("the reference is sampled on another partition")


def error_report(traj: Trajectory, ref: Trajectory) -> ErrorReport:
    """Compare a trajectory with the reference ``sample_exact`` drew on its
    partition; another partition raises ``ValueError``."""
    part = traj.partition
    _check_reference(ref, part)
    e = traj.values - ref.values
    diff = traj.predictor_values - ref.predictor_values
    max_e_star = _max_abs(diff)
    at_jump = np.flatnonzero(part.gaps[:-1])  # a gap is 0.0 or positive
    if at_jump.size:
        diff = traj.right_values[at_jump] - ref.right_values[at_jump]
    else:
        np.subtract(traj.right_values, ref.right_values, out=diff)
    return ErrorReport(e=e, max_e=_max_abs(e), max_e_star=max_e_star,
                       max_e_plus=_max_abs(diff))


def truncation_errors(spec: IvpSpec, part: Partition, ref: Trajectory):
    """Local truncation residuals of the exact solution in the scheme.

    ``ref`` is the exact solution sampled on ``part`` (``sample_exact``);
    another partition raises ``ValueError``.  Returns three arrays indexed
    by step (entry ``k`` belongs to node ``k+1``): the predictor residual,
    the corrector residual with the exact endpoint value, and the combined
    residual with the predicted endpoint.
    """
    _check_reference(ref, part)
    nodes = part.nodes
    x_right, x_end = ref.right_values, ref.predictor_values
    f_plus = _on_arrays(spec.rhs_right, ref, nodes[:-1], x_right)
    resid_pred = x_end - x_right - f_plus * part.dg
    f_end = _on_arrays(spec.rhs, ref, nodes[1:], x_end)
    resid_corr = x_end - x_right - 0.5 * (f_plus + f_end) * part.dg
    x_star = x_right + f_plus * part.dg
    f_pred = _on_arrays(spec.rhs, ref, nodes[1:], x_star)
    resid_comb = x_end - x_right - 0.5 * (f_plus + f_pred) * part.dg
    return resid_pred, resid_corr, resid_comb


@dataclass
class BoundConstants:
    """Regularity constants and the derived propagation factors.

    ``k1`` is the largest jump gap, ``k2``/``k3`` bound the state derivative
    of the right-hand side and of its right limit, ``lip`` is the common
    Lipschitz constant of the continuous parts, ``h`` the grid step and
    ``num_jumps`` the jump count.  ``g1 .. g6`` are recomputed from their
    defining formulas on every access.  ``ValueError`` unless ``k1 .. lip``
    are finite and nonnegative, ``h`` positive and ``num_jumps`` a count.
    """

    k1: float
    k2: float
    k3: float
    lip: float
    h: float
    num_jumps: int

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "lip"):
            _check_number(getattr(self, name), name, "nonnegative")
        _check_number(self.h, "h", "positive")
        _check_number(self.num_jumps, "num_jumps", "count")

    @property
    def g1(self) -> float:
        k2h = self.k2 * self.lip * self.h
        k3h = self.k3 * self.lip * self.h
        return 0.5 * k2h + 0.5 * k3h + 0.5 * k3h * k3h

    @property
    def g2(self) -> float:
        k1, k2, k3 = self.k1, self.k2, self.k3
        hh = self.lip * self.h
        return (k1 * k2 + 0.5 * k1 * k2 * k3 * hh + 0.5 * k1 * k2 * k2 * hh
                + 0.5 * k1 * k2 * k2 * k3 * hh * hh)

    @property
    def g3(self) -> float:
        return self.k1 * self.k2

    @property
    def g4(self) -> float:
        return self.k3 * self.lip * self.h

    @property
    def g5(self) -> float:
        return self.g3 * (1.0 + self.g4)

    @property
    def g6(self) -> float:
        return 0.5 * self.k2 * self.lip * self.h


def _within_steps(v: np.ndarray) -> np.ndarray:
    """The differences of neighbours in one step of the flat refinement
    array ``v``, ``_STEP_POINTS`` points a step, as a (steps, points - 1)
    view; none is taken across a step boundary."""
    out = np.empty(v.size)
    np.subtract(v[1:], v[:-1], out=out[:-1])
    return out.reshape(-1, _STEP_POINTS)[:, :-1]


def measure_constants(spec: IvpSpec, part: Partition, ref: Trajectory,
                      exact: Callable) -> BoundConstants:
    """Sample the regularity constants along the exact solution.

    ``ref`` is the exact solution sampled on ``part`` (``sample_exact``;
    another partition raises ``ValueError``) and ``exact`` the same solution
    as a callable, read only inside the steps.  ``k2`` and ``k3`` come from
    central differences of the right-hand side in the state variable over
    the solution's range; the Lipschitz constant is the largest time
    difference quotient of the driver's continuous part and of the composed
    right-hand side (restricted per step, so jump contributions are
    excluded), sampled 20 times per step.  Each block of the refinement
    grid is one array that both ``continuous_value`` and ``exact`` read,
    so the driver's memo evaluates the continuous part once per point.
    """
    _check_reference(ref, part)
    g = part.g
    nodes = part.nodes
    x, x_right = ref.values, ref.right_values
    scale = max(1.0, float(np.max(np.abs(x))))
    delta = 1e-6 * scale
    starts = nodes[:-1]
    k2 = _state_slope(spec.rhs, ref, nodes, x, delta)
    k3 = _state_slope(spec.rhs_right, ref, starts, x_right, delta)
    # within a step the composed rhs is continuous from t_k+ onwards
    f_plus = _on_arrays(spec.rhs_right, ref, starts, x_right)
    frac = np.linspace(0.0, 1.0, _STEP_POINTS)
    widths = np.diff(nodes)
    block_lips = []
    for k0 in range(0, part.n_steps, _BLOCK_STEPS):
        block = slice(k0, k0 + _BLOCK_STEPS)
        ts = (starts[block, None] + widths[block, None] * frac).ravel()
        cv = g.continuous_value(ts)
        xs = np.asarray(exact(ts), dtype=float).reshape(-1, _STEP_POINTS)
        ts_grid = ts.reshape(xs.shape)
        fv = np.empty(xs.shape)
        fv[:, 0] = f_plus[block]
        fv[:, 1:] = _on_arrays(spec.rhs, ref, ts_grid[:, 1:], xs[:, 1:])
        dts = _within_steps(ts)
        block_lips.append(np.max(np.abs(_within_steps(cv)) / dts))
        block_lips.append(np.max(np.abs(_within_steps(fv.ravel())) / dts))
    lip = float(np.max(block_lips))
    return BoundConstants(g.max_gap, k2, k3, lip, part.h, g.n_jumps)


def theoretical_bounds(consts: BoundConstants, t: float, e0: float,
                       truncation_max: float) -> tuple[float, float, float]:
    """A-priori bounds at time ``t`` on the corrector, predictor and
    right-limit errors, at every node.

    The corrector bound is ``(1 + G2)^jumps * (|e0| + truncation_max / G1)
    * exp(G1 * t / h)``: the jump factor amplifies once per discontinuity,
    the exponential propagates the per-step growth over ``t/h`` steps.  The
    predictor bound is that times ``exp(G4) * (1 + G5)``, the right-limit
    bound that times ``1 + G3``.  An entry past the float range is ``inf``.
    A NaN, infinite or negative ``t`` or ``truncation_max``, or a
    non-finite ``e0``, raises ``ValueError``: no error could meet the
    bound it gives.
    """
    _check_number(t, "t", "nonnegative")
    _check_number(e0, "e0")
    _check_number(truncation_max, "truncation_max", "nonnegative")
    g1 = consts.g1
    if g1 == 0.0:
        raise ValueError(f"bound undefined: G1 = 0 (K2={consts.k2:.4g}, "
                         f"K3={consts.k3:.4g}, H={consts.lip:.4g})")
    try:
        corrector = ((1.0 + consts.g2) ** consts.num_jumps
                     * (abs(e0) + truncation_max / g1)
                     * math.exp(g1 * t / consts.h))
    except OverflowError:
        corrector = math.inf
    try:
        predictor = corrector * math.exp(consts.g4) * (1.0 + consts.g5)
    except OverflowError:
        predictor = math.inf
    return corrector, predictor, corrector * (1.0 + consts.g3)


def estimate_order(h_values: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log10(error) against log10(step)."""
    h_arr = np.asarray(h_values, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if h_arr.size != e_arr.size or h_arr.size < 2:
        raise ValueError("need at least two (step, error) pairs")
    if not (np.all(np.isfinite(h_arr)) and np.all(np.isfinite(e_arr))):
        raise ValueError("steps and errors must be finite for a log-log fit")
    if np.any(h_arr <= 0.0) or np.any(e_arr <= 0.0):
        raise ValueError("steps and errors must be positive for a log-log fit")
    if h_arr.min() == h_arr.max():
        raise ValueError("need at least two distinct steps for a log-log fit")
    slope, _ = np.polyfit(np.log10(h_arr), np.log10(e_arr), 1)
    return float(slope)


@dataclass
class ConvergenceCell:
    """One (jump count, step) cell of a convergence table."""

    num_jumps: int
    h: float
    max_e_star: float = math.nan
    max_e: float = math.nan
    max_e_plus: float = math.nan
    failed: bool = False
    reason: str = ""


def convergence_table(spec: IvpSpec, drivers: Sequence[Derivator],
                      exact_factory: Callable,
                      h_values: Sequence[float]) -> list[ConvergenceCell]:
    """Run the benchmark grid and collect the three error maxima per cell.

    ``spec`` is the problem, solved on every driver of ``drivers`` at every
    step of ``h_values``; ``exact_factory(g)`` builds the exact solution
    ``exact(t, from_right=False)`` on driver ``g``.  A cell is labelled
    with its driver's jump count.
    A cell whose step is incompatible with the driver's jumps is marked
    failed and the run continues.
    """
    cells = []
    for g in drivers:
        exact = exact_factory(g)
        for h in h_values:
            try:
                part = build_partition(g, h)
                traj = solve(spec, part)
                report = error_report(traj, sample_exact(exact, part))
            except GridMismatchError as exc:
                cells.append(ConvergenceCell(g.n_jumps, h, failed=True,
                                             reason=str(exc)))
            else:
                cells.append(ConvergenceCell(g.n_jumps, h, report.max_e_star,
                                             report.max_e, report.max_e_plus))
    return cells


def format_convergence_csv(cells: Sequence[ConvergenceCell]) -> str:
    """Render table cells as CSV, scientific notation with 5 significant digits."""
    lines = ["num_jumps,h,max_e_star,max_e,max_e_plus"]
    for c in cells:
        if c.failed:
            lines.append(f"{c.num_jumps},{c.h:.4e},failed,failed,failed")
        else:
            lines.append(f"{c.num_jumps},{c.h:.4e},{c.max_e_star:.4e},"
                         f"{c.max_e:.4e},{c.max_e_plus:.4e}")
    return "\n".join(lines) + "\n"
