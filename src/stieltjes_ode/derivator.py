"""Increasing, left-continuous driver functions with finitely many jumps.

A :class:`Derivator` plays the role of generalized time: it is an increasing,
left-continuous function ``g`` on ``[0, T]``, normalized so ``g(0) = 0``,
stored as a continuous nondecreasing part plus a finite sorted list of jumps
``(d_k, gap_k)`` with ``gap_k = g(d_k+) - g(d_k) > 0``.  The induced interval
measure is ``measure(a, b) = g(b) - g(a)`` for ``[a, b)``; jump times carry
point masses.

Derivators are immutable after construction and safe to share between
threads; every evaluation accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "MAX_GRID_STEPS",
    "Derivator",
    "identity_derivator",
    "make_phi",
    "make_test_derivator",
    "make_silkworm_derivator",
    "from_descriptor",
]


# largest number of subintervals of one grid (solver partition or oracle
# refinement); a float array of this length takes 80 MB
MAX_GRID_STEPS = 10 ** 7

# the continuous part is checked for monotonicity on this many uniform samples
_MONOTONE_SAMPLES = 1025


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _f_on_arrays(f, *arrays):
    """Evaluate ``f`` elementwise on equally shaped arrays.

    ``f`` is called once on the whole arrays; if that raises or returns
    another shape (a scalar-only function, or one that reads per-point
    state), it is called once per element instead.
    """
    try:
        out = np.asarray(f(*arrays), dtype=float)
        if out.shape == arrays[0].shape:
            return out
    except Exception:
        pass
    flat = [a.ravel() for a in arrays]
    return np.array([float(f(*point)) for point in zip(*flat)]
                    ).reshape(arrays[0].shape)


def _segment_grids(g, a, b, n):
    """``linspace`` grids of the pieces of ``[a, b]`` cut at the jumps of
    ``g`` inside ``(a, b)``, with ``n`` subintervals shared out by length."""
    interior, _ = g.jumps_in(np.nextafter(a, b), b)
    cuts = np.concatenate(([a], interior, [b]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            m = max(1, int(round(n * (hi - lo) / (b - a))))
            yield np.linspace(lo, hi, m + 1)


class Derivator:
    """Increasing left-continuous ``g`` on ``[0, T]`` with finite jumps.

    Parameters
    ----------
    domain_end : float
        Right endpoint ``T`` of the domain.
    continuous_part : callable
        Nondecreasing continuous function of time; must accept numpy arrays.
        Values are shifted so the full ``g`` satisfies ``g(0) = 0``.  It is
        sampled at construction, and a non-finite value or a decrease beyond
        rounding raises ``ValueError``.
    jump_times, jump_gaps : sequences of float
        Strictly increasing jump times inside the open interval ``(0, T)``
        and their positive gaps.  No jump may sit at 0 (``g`` must be
        continuous at 0) or at ``T`` (jumps live in ``[0, T)``).
    """

    def __init__(self, domain_end, continuous_part, jump_times=(), jump_gaps=()):
        T = float(domain_end)
        if not (T > 0.0 and math.isfinite(T)):
            raise ValueError(f"domain end must be positive and finite, got {T}")
        times = np.asarray(jump_times, dtype=float)
        gaps = np.asarray(jump_gaps, dtype=float)
        if times.shape != gaps.shape or times.ndim > 1:
            raise ValueError("jump times and gaps must be 1-d and equally long")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(gaps))):
            raise ValueError("jump times and gaps must be finite")
        if times.size:
            if np.any(np.diff(times) <= 0.0):
                raise ValueError("jump times must be strictly increasing")
            if times[0] <= 0.0 or times[-1] >= T:
                raise ValueError(
                    f"jump times must lie strictly inside (0, {T}); got "
                    f"first={times[0]}, last={times[-1]}")
            if np.any(gaps <= 0.0):
                raise ValueError("every jump gap must be strictly positive")
        ts = np.linspace(0.0, T, _MONOTONE_SAMPLES)
        samples = np.asarray(continuous_part(ts), dtype=float)
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"the continuous part must be finite on [0, {T}]")
        # decreases within rounding of the sampled values are tolerated
        tol = 1e-12 * max(np.ptp(samples), np.max(np.abs(samples)))
        falls = np.flatnonzero(np.diff(samples) < -tol)
        if falls.size:
            raise ValueError("the continuous part must be nondecreasing; it "
                             f"decreases after t={float(ts[falls[0]]):g}")
        self.domain_end = T
        self.continuous_part = continuous_part
        self.jump_times = times
        self.jump_gaps = gaps
        self._c0 = float(continuous_part(0.0))
        # prefix[i] = sum of the first i gaps, so prefix[searchsorted(times, t)]
        # is the jump mass strictly before t
        self._prefix = np.concatenate(([0.0], np.cumsum(gaps)))

    # -- basic queries -----------------------------------------------------

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    @property
    def max_gap(self) -> float:
        return float(self.jump_gaps.max()) if self.jump_gaps.size else 0.0

    def _check_domain(self, arr, closed_right=True):
        hi_ok = arr <= self.domain_end if closed_right else arr < self.domain_end
        if not np.all((arr >= 0.0) & hi_ok):
            bracket = "]" if closed_right else ")"
            raise ValueError(
                f"time outside the domain [0, {self.domain_end}{bracket}")

    def continuous_value(self, t):
        """Continuous part ``g^C(t)``, normalized so ``g^C(0) = 0``."""
        arr, scalar = _as_float_array(t)
        out = np.asarray(self.continuous_part(arr), dtype=float) - self._c0
        return float(out) if scalar else out

    def value(self, t):
        """``g(t)``: continuous part plus all gaps strictly before ``t``."""
        arr, scalar = _as_float_array(t)
        self._check_domain(arr)
        out = (np.asarray(self.continuous_part(arr), dtype=float) - self._c0
               + self._prefix[np.searchsorted(self.jump_times, arr, side="left")])
        return float(out) if scalar else out

    __call__ = value

    def right_value(self, t):
        """Right limit ``g(t+)``; includes the gap at ``t`` itself."""
        arr, scalar = _as_float_array(t)
        self._check_domain(arr, closed_right=False)
        out = (np.asarray(self.continuous_part(arr), dtype=float) - self._c0
               + self._prefix[np.searchsorted(self.jump_times, arr, side="right")])
        return float(out) if scalar else out

    def jump_gap(self, t):
        """Gap ``g(t+) - g(t)``; zero when ``t`` is not a stored jump time.

        Membership uses exact float equality against the constructor-provided
        jump times, which are canonical and never recomputed.
        """
        arr, scalar = _as_float_array(t)
        self._check_domain(arr, closed_right=False)
        if self.jump_times.size == 0:
            out = np.zeros_like(arr)
            return float(out) if scalar else out
        idx = np.searchsorted(self.jump_times, arr, side="left")
        idx_c = np.minimum(idx, self.jump_times.size - 1)
        hit = (idx < self.jump_times.size) & (self.jump_times[idx_c] == arr)
        out = np.where(hit, self.jump_gaps[idx_c], 0.0)
        return float(out) if scalar else out

    def measure(self, a, b):
        """Measure of ``[a, b)``: ``g(b) - g(a)``; requires ``a <= b``."""
        a = float(a)
        b = float(b)
        if a > b:
            raise ValueError(f"interval endpoints out of order: {a} > {b}")
        return self.value(b) - self.value(a)

    def jumps_in(self, a, b):
        """Jump times and gaps inside ``[a, b)`` as two arrays."""
        lo = np.searchsorted(self.jump_times, a, side="left")
        hi = np.searchsorted(self.jump_times, b, side="left")
        return self.jump_times[lo:hi], self.jump_gaps[lo:hi]

    def estimate_continuous_lipschitz(self, a=None, b=None, samples=4001):
        """Sampled Lipschitz constant of the continuous part on ``[a, b]``.

        Maximum of consecutive difference quotients on a uniform grid,
        floored by the mean slope so it can never undershoot the average.
        """
        a = 0.0 if a is None else float(a)
        b = self.domain_end if b is None else float(b)
        ts = np.linspace(a, b, samples)
        vals = self.continuous_value(ts)
        quots = np.abs(np.diff(vals)) / np.diff(ts)
        mean_slope = abs(vals[-1] - vals[0]) / (b - a) if b > a else 0.0
        return float(max(quots.max() if quots.size else 0.0, mean_slope))

    def __repr__(self):
        return (f"Derivator(T={self.domain_end}, jumps={self.n_jumps}, "
                f"total_gap={float(self.jump_gaps.sum()) if self.n_jumps else 0.0})")


# -- builders --------------------------------------------------------------


def identity_derivator(T: float) -> Derivator:
    """Classical time: ``g(t) = t`` with no jumps."""
    return Derivator(T, lambda t: np.asarray(t, dtype=float))


def make_phi(alpha: float) -> Callable:
    """Smooth monotone ramp from 0 to 1 supported on ``[0, 1]``.

    ``phi(x) = [1 + exp(-2*alpha*tan(pi/2*(2x - 1)))]**-1`` for ``x`` in
    ``(0, 1)``, extended by 0 below and 1 above.  ``alpha`` controls the
    steepness; the output is exactly 0 for ``x <= 0`` and exactly 1 for
    ``x >= 1``.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    a = float(alpha)

    def phi(x):
        arr, scalar = _as_float_array(x)
        out = np.zeros_like(arr)
        out[arr >= 1.0] = 1.0
        inner = (arr > 0.0) & (arr < 1.0)
        if np.any(inner):
            z = -2.0 * a * np.tan(0.5 * np.pi * (2.0 * arr[inner] - 1.0))
            with np.errstate(over="ignore"):
                out[inner] = 1.0 / (1.0 + np.exp(z))
        return float(out) if scalar else out

    return phi


def make_test_derivator(num_jumps: int, alpha: float = 4.0, T: float = 10.0,
                        snap: float | None = None) -> Derivator:
    """Benchmark driver: three smooth ramps plus equally spaced unit jumps.

    The continuous part concatenates three copies of the ramp, each
    stretched over two time units (``phi(t/2) + phi((t-4)/2) +
    phi((t-8)/2)``: rises on [0,2], [4,6], [8,10], flat in between),
    reaching 3 at ``t = 10``.  The ``num_jumps`` unit jumps sit at
    ``T*j/(num_jumps+1)``.  When ``snap`` is given, each jump time is
    rounded to the nearest multiple of it so that a uniform grid of step
    ``snap`` (or any decade refinement) contains every jump; solver runs
    need that.
    """
    if T <= 0:
        raise ValueError(f"domain end must be positive, got {T}")
    if num_jumps < 0:
        raise ValueError(f"num_jumps must be nonnegative, got {num_jumps}")
    phi = make_phi(alpha)

    def cont(t):
        # one ramp per point: below 4 the later ramps are exactly 0, from 4
        # (8) on the earlier ones are exactly 1, so ``k + phi`` is the same
        # float as the three-term sum
        arr = np.asarray(t, dtype=float)
        k = np.clip(np.floor(arr / 4.0), 0.0, 2.0)
        return k + phi((arr - 4.0 * k) / 2.0)

    times = np.array([T * j / (num_jumps + 1) for j in range(1, num_jumps + 1)])
    if snap is not None and times.size:
        times = np.round(times / snap) * snap
        if np.any(np.diff(times) <= 0) or times[0] <= 0 or times[-1] >= T:
            raise ValueError(
                f"snap={snap} collapses or expels the {num_jumps} jump times")
    return Derivator(T, cont, times, np.ones_like(times))


def _silkworm_base(offset):
    """One 5-unit period of the staged continuous part, from 0 up to 2."""
    s = np.asarray(offset, dtype=float)
    out = np.empty_like(s)
    m1 = s <= 2.0
    out[m1] = 0.5 * np.sqrt(np.maximum(4.0 * s[m1] - s[m1] ** 2, 0.0))
    m2 = (s > 2.0) & (s <= 3.0)
    out[m2] = 1.0
    m3 = (s > 3.0) & (s <= 4.0)
    out[m3] = 2.0 - np.sqrt(np.maximum(6.0 * s[m3] - s[m3] ** 2 - 8.0, 0.0))
    m4 = s > 4.0
    out[m4] = 2.0
    return out


def make_silkworm_derivator(T: float) -> Derivator:
    """Periodic staged driver for the silkworm population model.

    One period covers worms (growth), cocoons (flat), moths (growth), eggs
    (flat); unit jumps at ``5k+4`` (moth death) and ``5k+5`` (hatching)
    extend it with period 5: ``g(t+5) = g(t) + 4``.
    """
    if T <= 0:
        raise ValueError(f"domain end must be positive, got {T}")

    def cont(t):
        arr = np.asarray(t, dtype=float)
        m = np.floor(arr / 5.0)
        return 2.0 * m + _silkworm_base(arr - 5.0 * m)

    times = []
    k = 0
    while True:
        for cand in (5.0 * k + 4.0, 5.0 * k + 5.0):
            if 0.0 < cand < T:
                times.append(cand)
        if 5.0 * k + 5.0 >= T:
            break
        k += 1
    times = np.asarray(times)
    return Derivator(T, cont, times, np.ones_like(times))


_BUILTIN_CONTINUOUS = {
    "identity": lambda t: np.asarray(t, dtype=float),
    "zero": lambda t: np.zeros_like(np.asarray(t, dtype=float)),
}


def from_descriptor(desc: dict) -> Derivator:
    """Build a derivator from its JSON descriptor (see README for the schema).

    ``{"kind": "identity" | "test" | "silkworm" | "custom", "T": ...}`` plus
    kind-specific fields: ``alpha``/``num_jumps``/``snap`` for ``test``,
    ``continuous`` (a named builtin) and ``jumps`` for ``custom``.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("derivator descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    T = float(desc.get("T", 10.0))
    if kind == "identity":
        return identity_derivator(T)
    if kind == "test":
        return make_test_derivator(int(desc.get("num_jumps", 0)),
                                   float(desc.get("alpha", 4.0)), T,
                                   desc.get("snap"))
    if kind == "silkworm":
        return make_silkworm_derivator(T)
    if kind == "custom":
        name = desc.get("continuous", "identity")
        if name not in _BUILTIN_CONTINUOUS:
            raise ValueError(f"unknown continuous part {name!r}; "
                             f"choose from {sorted(_BUILTIN_CONTINUOUS)}")
        jumps = desc.get("jumps", [])
        times = [float(j["t"]) for j in jumps]
        gaps = [float(j["gap"]) for j in jumps]
        return Derivator(T, _BUILTIN_CONTINUOUS[name], times, gaps)
    raise ValueError(f"unknown derivator kind {kind!r}")
