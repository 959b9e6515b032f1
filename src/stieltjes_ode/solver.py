"""Predictor-corrector time stepping driven by a monotone derivator.

On a partition ``0 = t_0 < .. < t_{N+1} = T`` whose nodes contain every jump
of the driver ``g``, the scheme advances three quantities per step:

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .derivator import MAX_GRID_STEPS, Derivator, _check_number, _check_rises

__all__ = [
    "GridMismatchError",
    "Partition",
    "IvpSpec",
    "Trajectory",
    "build_partition",
    "solve",
    "solve_perturbed",
]

class GridMismatchError(ValueError):
    """The partition cannot host the driver: the domain is not an integer
    number of steps, or some jump time is not a node."""


@dataclass(frozen=True)
class Partition:
    """Nodes ``0 = t_0 < .. < t_{N+1} = T`` bound to a derivator.

    Any node array works as long as every jump time of ``g`` is a node
    exactly (bit for bit), so the jump lookups need no tolerance; the
    uniform grids of :func:`build_partition` are the case whose nodes are
    snapped to the jump times.  ``h`` is the largest step, ``gaps[k]`` is
    ``gap(t_k)`` and ``dg[k]`` is the continuous measure ``g(t_{k+1}) -
    g(t_k+)`` of step ``k``; the solver reads only these arrays in its
    inner loop.
    """

    g: Derivator
    h: float
    nodes: np.ndarray
    gaps: np.ndarray
    dg: np.ndarray

    @property
    def n_steps(self) -> int:
        """Number of steps ``N + 1``; the grid has ``N + 2`` nodes."""
        return len(self.nodes) - 1

    @classmethod
    def from_nodes(cls, g: Derivator, nodes) -> Partition:
        """Partition of ``[0, T]`` with the given nodes.

        ``nodes`` must be a 1-d array of at most ``MAX_GRID_STEPS`` steps,
        finite and strictly increasing from ``0`` to ``T``, otherwise
        ``ValueError``; a jump time that is not a node raises
        :class:`GridMismatchError`.  A step whose continuous measure ``dg``
        is NaN or negative beyond rounding raises ``ValueError`` naming the
        first such step (``derivator._check_rises``); ``nodes`` is not copied.
        """
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or not 2 <= nodes.size <= MAX_GRID_STEPS + 1:
            raise ValueError(f"nodes must be a 1-d array of 1 to "
                             f"{MAX_GRID_STEPS} steps, got shape {nodes.shape}")
        T = g.domain_end
        # the step widths, in the array that becomes ``dg`` below
        dg = np.diff(nodes)
        # increasing from 0 to a finite T also rules out NaN and inf nodes
        if not (nodes[0] == 0.0 and nodes[-1] == T and np.all(dg > 0.0)):
            raise ValueError(f"nodes must be finite and strictly increasing "
                             f"from 0 to {T}")
        h = float(dg.max())
        # jump times lie inside (0, T), so each one has a node at or after it
        at = np.searchsorted(nodes, g.jump_times)
        missing = g.jump_times[nodes[at] != g.jump_times]
        if missing.size:
            raise GridMismatchError(f"jump at t={missing[0]} is not a node; "
                                    f"the scheme requires every jump as a node")
        gaps = np.zeros(nodes.size)
        gaps[at] = g.jump_gaps
        g_left = g.value(nodes)
        np.add(g_left[:-1], gaps[:-1], out=dg)
        np.subtract(g_left[1:], dg, out=dg)
        # g(t_k) + gap(t_k) is rounded, so a flat step of a nondecreasing
        # driver may come out an ulp or two of its values below zero
        _check_rises(dg, g._rise_slack(g_left), nodes, "partition")
        return cls(g, h, nodes, gaps, dg)


def _uniform_nodes(g: Derivator, h: float) -> np.ndarray:
    """Nodes of :func:`build_partition`, checked and snapped to the jumps the
    same way, without evaluating the driver."""
    _check_number(h, "step", "positive")
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
    times = g.jump_times
    idx = np.rint(times / h).astype(np.intp)
    # node 0 stays at 0 and node n_total at T: a jump near either is off
    off = (idx <= 0) | (idx >= n_total) | (
        np.abs(nodes[np.minimum(idx, n_total)] - times) > h * 1e-9)
    if np.any(off):
        raise GridMismatchError(
            f"jump at t={times[np.argmax(off)]} is not a node of the step-{h} "
            f"grid; the scheme requires every jump on the grid")
    nodes[idx] = times
    return nodes


def build_partition(g: Derivator, h: float) -> Partition:
    """Uniform grid of step ``h`` on ``[0, T]`` containing every jump of ``g``.

    ``T/h`` must be an integer (to float accuracy) and every jump time must
    sit within ``h * 1e-9`` of a grid node, otherwise a
    :class:`GridMismatchError` names the first offending jump.  Matched
    nodes are snapped to the exact jump times.  A grid of more than
    ``MAX_GRID_STEPS`` steps raises ``ValueError`` before anything is
    allocated.
    """
    return Partition.from_nodes(g, _uniform_nodes(g, h))


@dataclass
class IvpSpec:
    """Initial value problem data for the stepping scheme.

    ``rhs(t, x, history)`` is the right-hand side at time ``t`` and state
    ``x``; ``history`` is the :class:`Trajectory` being filled (ignore it
    for plain ``f(t, x)`` problems).  ``rhs_right`` evaluates the right limit
    ``f(t+, x)`` and defaults to ``rhs``, which is valid whenever
    ``f(., x)`` is right-continuous at the jump times.  ``rhs`` is read
    at ``(t_k, u_k)`` only at a jump or a zero state, and inside a long run
    of flat steps (no jump, no continuous measure) neither is called unless
    the state is ``-0.0``, so they may be NaN, infinite or raising there;
    see :func:`solve`.
    """

    rhs: Callable
    x0: float
    rhs_right: Optional[Callable] = None

    def __post_init__(self):
        if self.rhs_right is None:
            self.rhs_right = self.rhs
        _check_number(self.x0, "initial value")


@dataclass
class Trajectory:
    """Scheme output on the full grid, and the history a right-hand side reads.

    ``values[k]`` is ``u_k`` for ``k = 0 .. N+1``; ``right_values[k]`` is
    ``u_k+`` for ``k = 0 .. N``; ``predictor_values[k-1]`` is ``u*_k`` for
    ``k = 1 .. N+1``.  ``filled`` counts the ``u_k`` set so far: all once
    built, ``k + 1`` while :func:`solve` steps from ``t_k`` and passes the
    trajectory to the right-hand side as ``history``.  Immutable once
    returned by :func:`solve`.
    """

    partition: Partition
    values: np.ndarray
    right_values: np.ndarray
    predictor_values: np.ndarray
    filled: int = field(init=False)

    def __post_init__(self):
        self.filled = self.values.size

    def integral(self, lo: float, hi: float) -> float:
        """Trapezoid integral of the ``filled`` values over ``[lo, hi]`` (in dt).

        One trapezoid over ``lo``, the nodes strictly inside ``(lo, hi)`` and
        ``hi``, with the end values interpolated linearly in their cells (so
        both ends may lie in one cell).  A cell that starts at a jump node
        ``t_k`` runs from the right limit ``u_k+`` to ``u_{k+1}``; the last
        filled node's ``u_k+`` is not read, as a solve has not written it
        yet.  ``lo`` is clamped to the start of the grid (``-inf`` too); a
        NaN end raises ``ValueError`` naming it.
        """
        _check_number(lo, "lo", "not NaN")
        _check_number(hi, "hi", "not NaN")
        part = self.partition
        lo = max(lo, part.nodes[0])
        if hi <= lo:
            return 0.0
        last = self.filled - 1
        if hi > part.nodes[last] + 1e-9 * part.h:
            raise ValueError(
                f"history covers [{part.nodes[0]}, {part.nodes[last]}], "
                f"cannot integrate up to {hi}")
        nodes = part.nodes[:self.filled]
        values = self.values[:self.filled]
        i = np.searchsorted(nodes, lo, side="right")
        j = np.searchsorted(nodes, hi, side="left")
        xs = np.concatenate(([lo], nodes[i:j], [hi]))
        ys = np.concatenate(([np.interp(lo, nodes, values)], values[i:j],
                             [np.interp(hi, nodes, values)]))
        starts = ys[:-1].copy()  # piece p lies in cell i - 1 + p
        for p in np.flatnonzero(part.gaps[i - 1:min(j, last)] > 0.0):
            k = i - 1 + p
            cell = nodes[k:k + 2], (self.right_values[k], values[k + 1])
            starts[p] = np.interp(xs[p], *cell)
            if k == j - 1:
                ys[-1] = np.interp(hi, *cell)
        return float(np.sum(0.5 * (ys[1:] + starts) * np.diff(xs)))


# a carried run costs ~2.1 us, a step ~0.37 us: carrying every flat run made
# alternating flat and live steps 3.3x slower (1e5 steps, 0.121 s vs 0.037 s)
_MIN_CARRIED_RUN = 16


def _carried_runs(part: Partition, rhos) -> list[tuple[int, int]]:
    """``(a, b)`` of each maximal run of at least ``_MIN_CARRIED_RUN`` flat
    steps ``a .. b-1``: no jump, no continuous measure and no perturbation,
    so every weight of the scheme is zero on them."""
    flat = (part.gaps[:-1] == 0.0) & (part.dg == 0.0)
    for r in rhos:
        flat &= r == 0.0
    edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
    starts, stops = edges[::2], edges[1::2]
    long = stops - starts >= _MIN_CARRIED_RUN
    return list(zip(starts[long].tolist(), stops[long].tolist()))


def _step_failed(k, t_next, exc=None) -> Exception:
    """The error of step ``k``: ``exc`` raised, or else a non-finite state."""
    if exc is None:
        return FloatingPointError(f"state became non-finite stepping to node "
                                  f"{k + 1} (t={t_next}); aborting")
    return RuntimeError(f"right-hand side evaluation failed at node {k} "
                        f"(step to t={t_next}): {exc}")


def _run_scheme(spec: IvpSpec, part: Partition, rhos=()) -> Trajectory:
    n_steps = part.n_steps
    values = np.empty(n_steps + 1)
    right_values = np.empty(n_steps)
    predictor_values = np.empty(n_steps)
    history = Trajectory(part, values, right_values, predictor_values)
    history.filled = 1
    values[0] = spec.x0
    rhs, rhs_right, isfinite = spec.rhs, spec.rhs_right, math.isfinite
    # memoryviews hand out and take Python floats: the same IEEE arithmetic
    # as numpy scalars, at a fraction of the cost per element
    nodes, gaps, dgs = map(memoryview, (part.nodes, part.gaps, part.dg))
    views = [memoryview(r) for r in rhos]
    out_u, out_plus, out_star = map(memoryview, (values, right_values,
                                                 predictor_values))
    u_k = out_u[0]
    lo = 0
    # the steps up to each carried run, then those after the last one
    for a, b in [*_carried_runs(part, rhos), (n_steps, n_steps)]:
        # one flat tuple per step: k, t_k, t_{k+1}, gap, dg[, three rhos]
        cols = (range(lo, a), nodes[lo:a], nodes[lo + 1:a + 1], gaps[lo:a],
                dgs[lo:a])
        # u_k + f * 0.0 is u_k for a finite f and a nonzero u_k; the two
        # bodies differ only in the perturbation each stage adds last
        if views:
            for k, t_k, t_next, gap, dg, r_plus, r_star, r in zip(
                    *cols, *[v[lo:a] for v in views]):
                try:
                    u_plus = (u_k + rhs(t_k, u_k, history) * gap
                              if gap or not u_k else u_k) + r_plus
                    f_plus = rhs_right(t_k, u_plus, history)
                    u_star = u_plus + f_plus * dg + r_star
                    f_star = rhs(t_next, u_star, history)
                except Exception as exc:
                    raise _step_failed(k, t_next, exc) from exc
                u_k = u_plus + 0.5 * (f_plus + f_star) * dg + r
                if not isfinite(u_k):
                    raise _step_failed(k, t_next)
                out_plus[k], out_star[k], out_u[k + 1] = u_plus, u_star, u_k
                history.filled = k + 2
        else:
            for k, t_k, t_next, gap, dg in zip(*cols):
                try:
                    u_plus = (u_k + rhs(t_k, u_k, history) * gap
                              if gap or not u_k else u_k)
                    f_plus = rhs_right(t_k, u_plus, history)
                    u_star = u_plus + f_plus * dg
                    f_star = rhs(t_next, u_star, history)
                except Exception as exc:
                    raise _step_failed(k, t_next, exc) from exc
                u_k = u_plus + 0.5 * (f_plus + f_star) * dg
                if not isfinite(u_k):
                    raise _step_failed(k, t_next)
                out_plus[k], out_star[k], out_u[k + 1] = u_plus, u_star, u_k
                history.filled = k + 2
        if u_k == 0.0 and math.copysign(1.0, u_k) < 0.0:
            # stepped through: a flat step turns a -0.0 state into +0.0
            lo = a
            continue
        # every weight is zero on the run: no right-hand side is read
        values[a + 1:b + 1] = u_k
        right_values[a:b] = predictor_values[a:b] = u_k
        history.filled = b + 1
        lo = b
    return history


def solve(spec: IvpSpec, part: Partition) -> Trajectory:
    """Run the scheme over the whole partition; deterministic.

    Its step body has no perturbation terms.  Off the jumps the jump update
    adds ``f(t_k, u_k) * 0.0``, which leaves a nonzero ``u_k`` as it is, so
    such a step calls ``rhs_right`` at ``(t_k, u_k)`` and ``rhs`` at the
    predictor only, as Heun's method does; a jump step or a zero state
    also reads ``rhs(t_k, u_k)``.
    A step with ``gap(t_k) = 0`` and ``dg_k = 0`` is flat: every weight of
    the scheme is zero on it.  On a run of at least ``_MIN_CARRIED_RUN``
    (16) flat steps that starts from any state but ``-0.0``, the state is
    carried across without evaluating the right-hand side: the steps next
    to the run read it at the run's two end nodes only, and inside the run
    it may be NaN, infinite or raising without aborting the solve.  A
    ``-0.0`` state is stepped through, as a flat step may turn it ``+0.0``.
    Every finite right-hand side gives the bits of the step-by-step scheme;
    with the default ``rhs_right``, a non-finite or raising one aborts at
    the same node with the same message.
    """
    return _run_scheme(spec, part)


def solve_perturbed(spec: IvpSpec, part: Partition, rho_plus, rho_star,
                    rho) -> Trajectory:
    """Scheme with additive perturbations injected at each stage.

    ``rho_plus[k]`` lands on ``u_k+`` (k = 0..N), ``rho_star[k]`` on
    ``u*_{k+1}`` and ``rho[k]`` on ``u_{k+1}``; all three sequences must
    have length ``N + 1``.  Its own step body adds each one last in its
    stage; zero perturbations reproduce :func:`solve` exactly, and a step
    with a nonzero perturbation is never carried.
    """
    n = part.n_steps
    rhos = [np.asarray(r, dtype=float) for r in (rho_plus, rho_star, rho)]
    for name, arr in zip(("rho_plus", "rho_star", "rho"), rhos):
        if arr.shape != (n,):
            raise ValueError(f"{name} must have length {n}, got {arr.shape}")
    return _run_scheme(spec, part, rhos)
