"""Increasing, left-continuous driver functions with finitely many jumps.

A :class:`Derivator` plays the role of generalized time: it is an increasing,
left-continuous function ``g`` on ``[0, T]``, normalized so ``g(0) = 0``,
stored as a continuous nondecreasing part plus a finite sorted list of jumps
``(d_k, gap_k)`` with ``gap_k = g(d_k+) - g(d_k) > 0``.  The induced interval
measure is ``measure(a, b) = g(b) - g(a)`` for ``[a, b)``; jump times carry
point masses.

Derivators are immutable after construction (apart from a private memo of
the last continuous-part evaluation, see :class:`Derivator`) and safe to
share between threads; every evaluation accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

__all__ = [
    "MAX_GRID_STEPS",
    "MEMO_POINTS",
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

# ulps of the raw values a measure may round below zero; read by _rise_slack
_DG_ULPS = 8

# the most grid steps of one block of the refinement oracle (``quadrature``;
# a block is a leaf of numpy's pairwise sum): about 256 kB per array
_ORACLE_BLOCK = 2 ** 15

# the most points of an argument ``Derivator`` keeps in its continuous-part
# memo: one oracle block with its end point
MEMO_POINTS = _ORACLE_BLOCK + 1


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


def _is_sorted(arr):
    """1-d, two or more points, ``arr[1:] >= arr[:-1]`` (so no NaN)."""
    return arr.ndim == 1 and arr.size > 1 and (arr[1:] >= arr[:-1]).all()


def _check_rises(steps, slack, xs, grid):
    """Raise ``ValueError`` naming the first step ``[xs[k], xs[k + 1]]`` of
    the ``grid`` whose measure ``steps[k]`` is NaN or below ``-slack``."""
    rises = steps >= -slack
    if not rises.all():
        k = int(np.argmin(rises))
        raise ValueError(f"the driver's continuous part decreases or is NaN "
                         f"on the {grid} grid between {xs[k]} and "
                         f"{xs[k + 1]}: its measure there is {steps[k]}")


def _is_integer(n, lo, hi=math.inf):
    """``n`` is an integer (a Python or numpy one, not a bool) in ``[lo,
    hi]``."""
    return (isinstance(n, numbers.Integral) and not isinstance(n, bool)
            and lo <= n <= hi)


# each rule of ``_check_number``: its test and its words in the message
_NUMBER_RULES = {
    "finite": (math.isfinite, "finite"),
    "positive": (lambda x: 0.0 < x < math.inf, "positive and finite"),
    "nonnegative": (lambda x: 0.0 <= x < math.inf, "finite and nonnegative"),
    "not NaN": (lambda x: not math.isnan(x), "a number, not NaN"),
    # counts: jumps and seeds, bound-suite cases, grid subintervals
    "count": (lambda n: _is_integer(n, 0), "an integer >= 0"),
    "case count": (lambda n: _is_integer(n, 1), "an integer >= 1"),
    "grid steps": (lambda n: _is_integer(n, 1, MAX_GRID_STEPS),
                   f"an integer in [1, {MAX_GRID_STEPS}]")}


def _check_number(x, name, rule="finite"):
    """Raise ``ValueError`` naming the argument ``name`` unless the number
    ``x`` keeps ``rule``, a key of ``_NUMBER_RULES`` (NaN keeps none, and
    a bool or a float keeps no count rule)."""
    test, words = _NUMBER_RULES[rule]
    if not test(x):
        raise ValueError(f"{name} must be {words}, got {x}")


def _check_interval(a, b, T, empty=False):
    """Raise ``ValueError`` unless ``0 <= a < b <= T`` (``a <= b`` with
    ``empty``), the rule of every ``[a, b)`` argument; NaN fails it."""
    if not (0.0 <= a <= b <= T and (empty or a < b)):
        raise ValueError(f"need 0 <= a {'<=' if empty else '<'} b <= {T}, "
                         f"got a={a}, b={b}")


def _check_times(arr, T, closed_right=True):
    """Reject a time outside ``[0, T]`` (``[0, T)`` unless ``closed_right``);
    return the smallest and the largest time, ``(0.0, 0.0)`` for none."""
    if not arr.size:
        return 0.0, 0.0
    lo, hi = arr.min(), arr.max()
    # ``min``/``max`` propagate NaN, which then fails both comparisons
    if not (lo >= 0.0 and (hi <= T if closed_right else hi < T)):
        raise ValueError(f"time outside the domain [0, {T}"
                         f"{']' if closed_right else ')'}")
    return lo, hi


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

    Notes
    -----
    ``value``, ``right_value`` and ``continuous_value`` remember the last
    array they passed to the continuous part, with its raw values.  The
    refinement oracle reads the part on each piece's block ends, skips the
    blocks whose two end values agree, and on every other block its
    ``continuous_value(block)`` and, on a block without flat steps, its
    ``f(block)`` evaluate the part once per point (on a block with flat
    steps ``f`` reads only the ends of the live steps, a smaller array that
    is evaluated afresh).  A remembered value is served
    only for an argument of the same shape and the same bits (``-0.0`` and
    ``0.0`` differ, and so do NaN payloads), so an argument changed in place
    between two calls gets fresh values.  Scalars, arrays of more than
    ``MEMO_POINTS`` points and parts that return a view of their
    argument are never remembered.  The memo is one tuple of a private copy
    of the argument and the raw values, replaced whole and never handed
    out: every call returns fresh arrays, so a thread that reads a stale
    tuple still gets the values of its own argument.  The continuous part
    must therefore be a pure function of time.
    """

    def __init__(self, domain_end, continuous_part, jump_times=(), jump_gaps=()):
        T = float(domain_end)
        _check_number(T, "domain end T", "positive")
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
        # (copy of the last remembered argument, its raw continuous values)
        self._memo = None

    # -- basic queries -----------------------------------------------------

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    @property
    def max_gap(self) -> float:
        return float(self.jump_gaps.max()) if self.jump_gaps.size else 0.0

    def _raw_continuous(self, arr):
        """``continuous_part(arr)`` as floats, through the one-entry memo.

        The result may be the memo's own array: callers derive a fresh
        array from it and never hand it out.
        """
        memo = self._memo
        if memo is not None and memo[0].shape == arr.shape and arr.size:
            old, new = memo[0].view(np.uint64), arr.view(np.uint64)
            # the first point settles most misses (consecutive oracle blocks
            # share only an end point) without a pass over the whole array
            if old.item(0) == new.item(0) and np.array_equal(old, new):
                return memo[1]
        raw = np.asarray(self.continuous_part(arr), dtype=float)
        if (0 < arr.ndim and arr.size <= MEMO_POINTS
                and not np.may_share_memory(raw, arr)):
            self._memo = (arr.copy(), raw)
        return raw

    def _rise_slack(self, values):
        """``_DG_ULPS`` ulps of what the part returned for driver ``values``:
        their largest finite ``|value|``, ``max(max, -min)`` with no array of
        ``|values|``, plus the ``|g^C(0)|`` subtracted."""
        finite = np.isfinite(values)
        top = max(values.max(initial=0.0, where=finite),
                  -values.min(initial=0.0, where=finite))
        return _DG_ULPS * np.finfo(float).eps * (top + abs(self._c0))

    def _prefix_at(self, table, arr, side, span):
        """``table[searchsorted(jump_times, arr, side)]`` for a table with
        one entry per jump interval, such as the jump mass before each point
        (``self._prefix``, ``side="left"``) or up to it (``"right"``).

        ``span`` is the smallest and the largest time of ``arr``, as
        ``_check_times`` returns them.  When no jump separates them the
        entry is one float; otherwise a sorted 1-d ``arr`` (every oracle
        block and partition) is cut into one run per jump interval instead
        of being searched point by point.  The values are the same.
        """
        first, last = np.searchsorted(self.jump_times, span, side)
        if first == last:
            return table[first]
        if _is_sorted(arr):
            ends = np.searchsorted(arr, self.jump_times,
                                   side="right" if side == "left" else "left")
            return np.repeat(table, np.diff(ends, prepend=0, append=arr.size))
        return table[np.searchsorted(self.jump_times, arr, side=side)]

    def continuous_value(self, t):
        """Continuous part ``g^C(t)``, normalized so ``g^C(0) = 0``."""
        arr, scalar = _as_float_array(t)
        out = self._raw_continuous(arr) - self._c0
        return float(out) if scalar else out

    def value(self, t):
        """``g(t)``: continuous part plus all gaps strictly before ``t``."""
        arr, scalar = _as_float_array(t)
        span = _check_times(arr, self.domain_end)
        out = self._raw_continuous(arr) - self._c0
        out += self._prefix_at(self._prefix, arr, "left", span)
        return float(out) if scalar else out

    def right_value(self, t):
        """Right limit ``g(t+)``; includes the gap at ``t`` itself."""
        arr, scalar = _as_float_array(t)
        span = _check_times(arr, self.domain_end, closed_right=False)
        out = self._raw_continuous(arr) - self._c0
        out += self._prefix_at(self._prefix, arr, "right", span)
        return float(out) if scalar else out

    def jump_gap(self, t):
        """Gap ``g(t+) - g(t)``; zero when ``t`` is not a stored jump time.

        Takes every ``t`` in the closed ``[0, T]``: no jump sits at ``T``,
        so the gap there is zero.  Membership uses exact float equality
        against the constructor-provided jump times, which are canonical and
        never recomputed.
        """
        arr, scalar = _as_float_array(t)
        _check_times(arr, self.domain_end)
        # a sentinel past the last jump: NaN equals no time, its gap is 0
        idx = np.searchsorted(self.jump_times, arr, side="left")
        hit = np.append(self.jump_times, np.nan)[idx] == arr
        out = np.where(hit, np.append(self.jump_gaps, 0.0)[idx], 0.0)
        return float(out) if scalar else out

    def measure(self, a, b):
        """Measure of ``[a, b)``: ``g(b) - g(a)``; ``ValueError`` unless
        ``0 <= a <= b <= T``."""
        a, b = float(a), float(b)
        _check_interval(a, b, self.domain_end, empty=True)
        return self.value(b) - self.value(a)

    def jumps_in(self, a, b):
        """Jump times and gaps inside ``[a, b)`` as two arrays; ``ValueError``
        unless ``0 <= a <= b <= T`` (so also for a NaN end)."""
        _check_interval(a, b, self.domain_end, empty=True)
        lo = np.searchsorted(self.jump_times, a, side="left")
        hi = np.searchsorted(self.jump_times, b, side="left")
        return self.jump_times[lo:hi], self.jump_gaps[lo:hi]

    def estimate_continuous_lipschitz(self, a, b):
        """Sampled Lipschitz constant of the continuous part on ``[a, b]``.

        Maximum of consecutive difference quotients on a uniform grid of
        4001 points, floored by the mean slope so it can never undershoot
        the average.  Requires ``0 <= a < b <= T``; on an interval too
        narrow for 4001 distinct floats the repeated points are dropped.
        """
        a, b = float(a), float(b)
        _check_interval(a, b, self.domain_end)
        # ``unique`` leaves a strictly increasing grid as it is
        ts = np.unique(np.linspace(a, b, 4001))
        vals = self.continuous_value(ts)
        quots = np.abs(np.diff(vals)) / np.diff(ts)
        mean_slope = abs(vals[-1] - vals[0]) / (b - a)
        return float(max(quots.max(), mean_slope))

    def __repr__(self):
        return (f"Derivator(T={self.domain_end}, jumps={self.n_jumps}, "
                f"total_gap={float(self.jump_gaps.sum()) if self.n_jumps else 0.0})")


# -- builders --------------------------------------------------------------


def identity_derivator(T: float) -> Derivator:
    """Classical time: ``g(t) = t`` with no jumps."""
    return Derivator(T, _BUILTIN_CONTINUOUS["identity"])


def _ramp(z, alpha):
    """``phi(z/2)`` of :func:`make_phi` for ``z`` in ``(0, 2)``, in place."""
    z -= 1.0
    z *= 0.5 * np.pi
    np.tan(z, out=z)
    # an infinite product or exponential is the ramp's exact limit, 0 or 1;
    # doubling is exact, so the two products round as one, and 0 * alpha
    # stays 0 for every finite alpha
    with np.errstate(over="ignore"):
        z *= -2.0
        z *= float(alpha)
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def make_phi(alpha: float) -> Callable:
    """Smooth monotone ramp from 0 to 1 supported on ``[0, 1]``.

    ``phi(x) = [1 + exp(-2*alpha*tan(pi/2*(2x - 1)))]**-1`` for ``x`` in
    ``(0, 1)``, extended by 0 below and 1 above.  ``alpha`` controls the
    steepness; the output is exactly 0 for ``x <= 0`` and for NaN, and
    exactly 1 for ``x >= 1``.  Every input takes one path, by masks.
    """
    _check_number(alpha, "alpha", "positive")

    def phi(x):
        arr, scalar = _as_float_array(x)
        out = np.zeros_like(arr)
        out[arr >= 1.0] = 1.0
        inner = (arr > 0.0) & (arr < 1.0)
        out[inner] = _ramp(arr[inner] * 2.0, alpha)
        return float(out) if scalar else out

    return phi


def make_test_derivator(num_jumps: int, alpha: float = 4.0, T: float = 10.0,
                        snap: float | None = None) -> Derivator:
    """Benchmark driver: three smooth ramps plus equally spaced unit jumps.

    The continuous part concatenates three copies of the ramp, each
    stretched over two time units (``phi(t/2) + phi((t-4)/2) +
    phi((t-8)/2)``: rises on [0,2], [4,6], [8,10], flat in between),
    reaching 3 at ``t = 10``.  The ``num_jumps`` unit jumps (an integer, not
    a bool) sit at ``T*j/(num_jumps+1)``.  When ``snap`` is given, each jump
    time is rounded to the nearest multiple of it so that a uniform grid of
    step ``snap`` (or any decade refinement) contains every jump; solver
    runs need that.  A sorted array (every oracle block and partition) is cut
    once at the ramps' starts and ends, with the ramp run in place inside
    each; other input takes ``phi``'s masks.  Both give the same bits.
    """
    _check_number(T, "domain end T", "positive")
    if snap is not None:
        _check_number(snap, "snap", "positive")
    _check_number(num_jumps, "num_jumps", "count")
    if num_jumps > MAX_GRID_STEPS:
        raise ValueError(f"num_jumps={num_jumps} asks for more jumps than the "
                         f"{MAX_GRID_STEPS} steps a grid may have, and every "
                         f"jump must be a grid node")
    phi = make_phi(alpha)

    def cont(t):
        # one ramp per point: below 4 the later ramps are exactly 0, from 4
        # (8) on the earlier ones are exactly 1, so ``k + phi`` is the same
        # float as the three-term sum.  Multiplying by 0.25 and 0.5 is exact
        # scaling: the same floats as dividing by 4 and 2, and faster.
        arr = np.asarray(t, dtype=float)
        if _is_sorted(arr):
            # ramp k rises on (4k, 4k + 2), where t - 4k is phi's exact 2x,
            # then stays at k + 1; inf ends the last flat run
            starts = np.searchsorted(arr, (0.0, 4.0, 8.0, math.inf), "right")
            ends = np.searchsorted(arr, (2.0, 6.0, 10.0), "left")
            out = np.empty_like(arr)
            out[:starts[0]] = 0.0
            for k, (lo, hi, stop) in enumerate(zip(starts, ends, starts[1:])):
                _ramp(np.subtract(arr[lo:hi], 4.0 * k, out=out[lo:hi]), alpha)
                out[lo:hi] += k
                out[hi:stop] = k + 1.0
            return out
        k = np.clip(np.floor(arr * 0.25), 0.0, 2.0)
        return k + phi((arr - 4.0 * k) * 0.5)

    times = T * np.arange(1, num_jumps + 1, dtype=float) / (num_jumps + 1)
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
    _check_number(T, "domain end T", "positive")
    periods = math.ceil(T / 5.0)
    if 2 * periods > MAX_GRID_STEPS:
        raise ValueError(f"domain end T={T} asks for about {0.4 * T:.4g} "
                         f"jumps, more than the {MAX_GRID_STEPS} steps a grid "
                         f"may have")

    def cont(t):
        arr = np.asarray(t, dtype=float)
        m = np.floor(arr / 5.0)
        return 2.0 * m + _silkworm_base(arr - 5.0 * m)

    starts = 5.0 * np.arange(periods)
    times = np.column_stack((starts + 4.0, starts + 5.0)).ravel()
    times = times[times < T]
    return Derivator(T, cont, times, np.ones_like(times))


_BUILTIN_CONTINUOUS = {
    "identity": lambda t: np.asarray(t, dtype=float),
    "zero": lambda t: np.zeros_like(np.asarray(t, dtype=float)),
}


def _field(obj: dict, name: str, kind, default, where="descriptor"):
    """``kind(obj[name])``, or ``default`` when the field is absent or null.

    A missing required field (``default`` is ``...``), a boolean, a value
    ``kind`` cannot convert, or a non-integral value for ``int`` raises
    ``ValueError`` naming the field.
    """
    value = obj.get(name)
    if value is None:
        if default is ...:
            raise ValueError(f"{where} has no {name!r} field")
        return default
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where} field {name!r} must be {what}, "
                         f"got {value!r}") from None


def from_descriptor(desc: dict) -> Derivator:
    """Build a derivator from its JSON descriptor (see README for the schema).

    ``{"kind": "identity" | "test" | "silkworm" | "custom", "T": ...}`` plus
    kind-specific fields: ``alpha``/``num_jumps``/``snap`` for ``test``,
    ``continuous`` (a named builtin) and ``jumps`` for ``custom``.  A field
    of the wrong type, or a jump without ``t`` or ``gap``, raises
    ``ValueError`` naming it.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("derivator descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    T = _field(desc, "T", float, 10.0)
    if kind == "identity":
        return identity_derivator(T)
    if kind == "test":
        return make_test_derivator(_field(desc, "num_jumps", int, 0),
                                   _field(desc, "alpha", float, 4.0), T,
                                   _field(desc, "snap", float, None))
    if kind == "silkworm":
        return make_silkworm_derivator(T)
    if kind == "custom":
        name = desc.get("continuous", "identity")
        if not isinstance(name, str) or name not in _BUILTIN_CONTINUOUS:
            raise ValueError(f"unknown continuous part {name!r}; "
                             f"choose from {sorted(_BUILTIN_CONTINUOUS)}")
        jumps = desc.get("jumps", [])
        if not isinstance(jumps, list) or not all(
                isinstance(j, dict) for j in jumps):
            raise ValueError("descriptor field 'jumps' must be a list of "
                             "objects with 't' and 'gap'")
        times = [_field(j, "t", float, ..., f"jump {i}")
                 for i, j in enumerate(jumps)]
        gaps = [_field(j, "gap", float, ..., f"jump {i}")
                for i, j in enumerate(jumps)]
        return Derivator(T, _BUILTIN_CONTINUOUS[name], times, gaps)
    raise ValueError(f"unknown derivator kind {kind!r}")
