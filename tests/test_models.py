import math

import numpy as np
import pytest

from cpu_target import per_target
from stieltjes_ode.analysis import error_report, estimate_order, sample_exact
from stieltjes_ode.derivator import identity_derivator, make_silkworm_derivator
from stieltjes_ode.models import (SilkwormParams, SilkwormSolution,
                                  make_silkworm_spec, silkworm_rhs,
                                  silkworm_rhs_right)
from stieltjes_ode.solver import Partition, Trajectory, build_partition, solve

PARAMS = SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=10.0)

# right limits of SilkwormSolution(c=1.2, lam=1.1, x0=8, T=15) on the h=1e-2
# grid, by node index: every jump node and its neighbours, every 100th node
RIGHT_LIMITS_T15 = {
    0: '0x1.0000000000000p+3', 100: '0x1.6a375a119353fp+1',
    200: '0x1.346c4167a12dep+1', 300: '0x1.346c4167a12dep+1',
    399: '0x1.b81eac3f86d9dp-1', 400: '0x0.0p+0', 401: '0x0.0p+0',
    499: '0x0.0p+0', 500: '0x1.7cdaccf1837a1p+3',
    501: '0x1.51d6a8aeab0b1p+3', 600: '0x1.0d6fdf674ec87p+2',
    700: '0x1.cad84c2ec1edfp+1', 800: '0x1.cad84c2ec1edfp+1',
    899: '0x1.4762d91251384p+0', 900: '0x0.0p+0', 901: '0x0.0p+0',
    999: '0x0.0p+0', 1000: '0x1.1b4d25b756dc1p+4',
    1001: '0x1.f69b61a4b1a40p+3', 1100: '0x1.90d85894eda30p+2',
    1200: '0x1.55509e4dc2d57p+2', 1300: '0x1.55509e4dc2d57p+2',
    1399: '0x1.e70e8a7bab555p+0', 1400: '0x0.0p+0', 1401: '0x0.0p+0',
    1500: '0x1.a578a67b023cdp+4',
}
# on numpy's AVX2 loops six of them come out an ulp or two higher
# (cpu_target.py)
RIGHT_LIMITS_T15.update(per_target({}, {
    200: '0x1.346c4167a12dfp+1', 300: '0x1.346c4167a12dfp+1',
    700: '0x1.cad84c2ec1ee1p+1', 800: '0x1.cad84c2ec1ee1p+1',
    1200: '0x1.55509e4dc2d58p+2', 1300: '0x1.55509e4dc2d58p+2'}))


def history_on_grid(values, h):
    nodes = np.arange(len(values)) * h
    values = np.asarray(values, dtype=float)
    part = Partition.from_nodes(identity_derivator(nodes[-1]), nodes)
    return Trajectory(part, values, values[:-1], values[1:])


def simpson(fn, lo, hi, n=2000):
    if n % 2:
        n += 1
    xs = np.linspace(lo, hi, n + 1)
    ys = fn(xs)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (hi - lo) / (3.0 * n) * float(np.dot(w, ys))


def window_integral(exact, lo):
    """Independent integral of the population over one life span [lo, lo+4].

    The decay curve has square-root-type slope at both growth ramps, so the
    two curved pieces are integrated under trigonometric substitutions that
    flatten them; the middle piece is plain Simpson.
    """
    i1 = simpson(lambda th: exact(lo + 2.0 * (1.0 - np.cos(th)))
                 * 2.0 * np.sin(th), 0.0, np.pi / 2.0)
    i2 = simpson(lambda sg: exact(lo + sg), 2.0, 3.0)
    i3 = simpson(lambda th: exact(lo + 3.0 + np.sin(th)) * np.cos(th),
                 0.0, np.pi / 2.0)
    return i1 + i2 + i3


class TestParams:
    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ValueError):
            SilkwormParams(c=0.0, lam=1.0, x0=1.0)

    def test_rejects_negative_fecundity(self):
        with pytest.raises(ValueError):
            SilkwormParams(c=1.0, lam=-0.1, x0=1.0)

    @pytest.mark.parametrize("c, lam", [(math.nan, 1.0), (math.inf, 1.0),
                                        (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite_rates(self, c, lam):
        with pytest.raises(ValueError):
            SilkwormParams(c=c, lam=lam, x0=1.0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_initial_population(self, x0):
        with pytest.raises(ValueError, match="initial value must be finite"):
            SilkwormParams(c=1.2, lam=1.1, x0=x0)

    def test_zero_fecundity_allowed(self):
        p = SilkwormParams(c=1.0, lam=0.0, x0=1.0)
        assert SilkwormSolution(p)(7.0) == 0.0


class TestRhs:
    def test_decay_branch(self):
        hist = history_on_grid(np.zeros(5), 0.1)
        assert silkworm_rhs(1.0, 2.0, hist, PARAMS) == pytest.approx(-2.4)

    def test_moth_death_branch(self):
        hist = history_on_grid(np.zeros(60), 0.1)
        assert silkworm_rhs(4.0, 3.0, hist, PARAMS) == -3.0

    def test_hatch_branch_integrates_history(self):
        h = 0.1
        values = np.linspace(1.0, 2.0, 51)  # grid covers [0, 5]
        hist = history_on_grid(values, h)
        expected = PARAMS.lam * float(np.trapezoid(values[:41],
                                                   np.arange(41) * h))
        assert silkworm_rhs(5.0, 0.0, hist, PARAMS) == pytest.approx(expected)

    def test_node_off_the_period_grid_decays(self):
        # on an h = 1.3 grid 3.9 is the fourth node but not a moth death
        hist = history_on_grid(np.zeros(4), 1.3)
        assert silkworm_rhs(3.9, 2.0, hist, PARAMS) == -PARAMS.c * 2.0

    def test_right_limit_always_decays(self):
        hist = history_on_grid(np.zeros(60), 0.1)
        for t in (1.0, 4.0, 5.0):
            assert silkworm_rhs_right(t, 2.0, hist, PARAMS) == pytest.approx(-2.4)


class TestExactSolution:
    def test_first_generation_decay(self):
        assert SilkwormSolution(PARAMS)(2.0) == pytest.approx(
            8.0 * math.exp(-1.2))

    def test_egg_phase_is_empty(self):
        assert SilkwormSolution(PARAMS)(4.5) == 0.0

    def test_second_generation_recursion(self):
        exact = SilkwormSolution(PARAMS)
        expected = PARAMS.lam * math.exp(-1.2) * window_integral(exact, 0.0)
        assert exact(7.0) == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_everywhere(self):
        exact = SilkwormSolution(PARAMS)
        ts = np.linspace(0.0, 10.0, 4001)
        assert np.all(exact(ts) >= 0.0)

    def test_extinction_windows_every_generation(self):
        exact = SilkwormSolution(PARAMS)
        for k in (0, 1):
            ts = np.linspace(5.0 * k + 4.0 + 1e-9, 5.0 * k + 5.0, 101)
            assert np.all(exact(ts) == 0.0)

    def test_generation_recursion_against_quadrature(self):
        exact = SilkwormSolution(PARAMS)
        for k in (1, 2):
            integral = window_integral(exact, 5.0 * (k - 1))
            assert exact(5.0 * k, from_right=True) == pytest.approx(
                PARAMS.lam * integral, abs=1e-8)

    @pytest.mark.parametrize("c", [1e-6, 0.6, 0.9, 1.2, 2.01, 2.5, 50.0,
                                   1000.0])
    def test_life_span_mass_against_mpmath(self, c):
        mp = pytest.importorskip("mpmath")
        params = SilkwormParams(c=c, lam=1.1, x0=8.0)
        mass = (SilkwormSolution(params)(5.0, from_right=True)
                / (params.lam * params.x0))

        def g(s):  # one life span of the staged driver, in mpmath arithmetic
            if s <= 2:
                return mp.sqrt(4 * s - s * s) / 2
            if s <= 3:
                return mp.mpf(1)
            return 2 - mp.sqrt((s - 2) * (4 - s))

        with mp.workdps(30):
            ref = mp.quad(lambda s: mp.exp(-mp.mpf(c) * g(s)), [0, 2, 3, 4])
        assert mass == pytest.approx(float(ref), rel=1e-13)

    def test_unsettled_mass_fails_fast(self):
        # c = 1e6 never reaches the 1e-13 agreement; the doubling stops at
        # 1024 nodes instead of building 2048- and 4096-node rules
        with pytest.raises(RuntimeError, match="did not stabilize"):
            SilkwormSolution(SilkwormParams(c=1e6, lam=1.1, x0=8.0))

    def test_right_limits(self):
        exact = SilkwormSolution(PARAMS)
        assert exact(4.0, from_right=True) == 0.0  # moths die
        # a hatch: the right limit is where the next generation starts
        assert exact(5.0, from_right=True) == pytest.approx(
            exact(np.nextafter(5.0, 6.0)))
        # continuous point
        assert exact(1.0, from_right=True) == pytest.approx(exact(1.0))

    @pytest.mark.parametrize("from_right", [False, True])
    @pytest.mark.parametrize("t", [-1.0, 11.0, math.nan, [2.0, 11.0, 3.0]],
                             ids=["before", "after", "nan", "array"])
    def test_time_outside_the_domain_rejected(self, t, from_right):
        # unchecked, t = -1 would read generation -1: the last amplitude
        exact = SilkwormSolution(PARAMS)
        with pytest.raises(ValueError,
                           match=r"outside the domain \[0, 10.0\]"):
            exact(t, from_right=from_right)

    @pytest.mark.parametrize("from_right", [False, True])
    def test_closed_domain_and_empty_arrays_accepted(self, from_right):
        exact = SilkwormSolution(PARAMS)
        values = exact(np.array([0.0, 10.0]), from_right=from_right)
        assert np.all(np.isfinite(values)) and values[0] == 8.0
        assert exact(np.array([]), from_right=from_right).shape == (0,)

    def test_right_limits_bitwise_on_a_grid(self):
        # hex values of the right limits as the separate right-limit method
        # computed them, on a grid with moth-death (4, 9, 14), hatch (5, 10,
        # 15) and interior nodes; off those six nodes the right limit is the
        # value itself
        params = SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=15.0)
        nodes = build_partition(make_silkworm_derivator(15.0), 1e-2).nodes
        exact = SilkwormSolution(params)
        expected = exact(nodes)
        for k, value in RIGHT_LIMITS_T15.items():
            expected[k] = float.fromhex(value)
        assert np.array_equal(exact(nodes, from_right=True), expected)
        assert np.flatnonzero(expected != exact(nodes)).tolist() == [
            400, 500, 900, 1000, 1400, 1500]


def test_scheme_tracks_exact_solution():
    g = make_silkworm_derivator(10.0)
    part = build_partition(g, 1e-2)
    spec = make_silkworm_spec(PARAMS)
    traj = solve(spec, part)
    exact = SilkwormSolution(PARAMS)
    report = error_report(traj, sample_exact(exact, part))
    assert report.max_e <= 5e-2


def test_every_hatch_amplitude_converges_at_the_same_order():
    # the hatch rate integrates the last life span from its right limit
    # u(5k+), not from the zero left value u(5k): reading the left value
    # errs O(h) in every hatch after the first (orders 0.93 and 0.95)
    params = SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=20.0)
    exact = SilkwormSolution(params)
    g = make_silkworm_derivator(params.T)
    steps = (1e-2, 1e-3, 1e-4)
    errors = {5: [], 10: [], 15: []}
    for h in steps:
        traj = solve(make_silkworm_spec(params), build_partition(g, h))
        for t, errs in errors.items():
            amp = exact(float(t), from_right=True)
            errs.append(abs(traj.right_values[round(t / h)] - amp) / amp)
    for t, errs in errors.items():
        assert estimate_order(steps, errs) >= 1.4, (t, errs)
