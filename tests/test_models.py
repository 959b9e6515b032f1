import math

import numpy as np
import pytest

from stieltjes_ode.analysis import error_report
from stieltjes_ode.derivator import make_silkworm_derivator
from stieltjes_ode.models import (SilkwormParams, SilkwormSolution,
                                  make_silkworm_spec, silkworm_rhs,
                                  silkworm_rhs_right)
from stieltjes_ode.solver import TrajectoryHistory, build_partition, solve

PARAMS = SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=10.0)


def history_on_grid(values, h):
    nodes = np.arange(len(values)) * h
    return TrajectoryHistory(nodes, np.asarray(values, dtype=float), h,
                             len(values))


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
            assert exact.right(5.0 * k) == pytest.approx(
                PARAMS.lam * integral, abs=1e-8)

    @pytest.mark.parametrize("c", [1e-6, 0.6, 0.9, 1.2, 2.01, 2.5, 50.0,
                                   1000.0])
    def test_life_span_mass_against_mpmath(self, c):
        mp = pytest.importorskip("mpmath")
        params = SilkwormParams(c=c, lam=1.1, x0=8.0)
        mass = (SilkwormSolution(params).right(5.0)
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
        assert exact.right(4.0) == 0.0  # moths die
        # a hatch: the right limit is where the next generation starts
        assert exact.right(5.0) == pytest.approx(exact(np.nextafter(5.0, 6.0)))
        assert exact.right(1.0) == pytest.approx(exact(1.0))  # continuous point


def test_scheme_tracks_exact_solution():
    g = make_silkworm_derivator(10.0)
    part = build_partition(g, 1e-2)
    spec = make_silkworm_spec(PARAMS)
    traj = solve(spec, part)
    exact = SilkwormSolution(PARAMS)
    report = error_report(traj, exact, exact.right)
    assert report.max_e <= 5e-2
