import math

import numpy as np
import pytest

from stieltjes_ode.derivator import (Derivator, identity_derivator,
                                     make_test_derivator)
from stieltjes_ode.linear import (LinearProblem, check_admissibility,
                                  constant_linear_solution,
                                  general_linear_solution, hat_exponential,
                                  hat_transform, homogeneous_solution,
                                  tilde_coefficients)
from stieltjes_ode.quadrature import oracle_integral
from stieltjes_ode.solver import IvpSpec, build_partition, solve


def linear_driver(T, times, gaps):
    return Derivator(T, lambda t: np.asarray(t, dtype=float), times, gaps)


class TestAdmissibility:
    def test_passes_below_one(self):
        g = linear_driver(3.0, [1.0, 2.0], [1.0, 1.0])
        report = check_admissibility(0.5, g)
        assert report.ok and not report.sign_flips

    def test_fails_at_exactly_one(self):
        g = linear_driver(2.0, [1.0], [1.0])
        report = check_admissibility(1.0, g)
        assert not report.ok
        assert report.offending == [(1.0, 1.0)]

    def test_above_one_passes_nonstrict_with_flips(self):
        g = linear_driver(2.0, [1.0], [1.0])
        report = check_admissibility(2.0, g, strict=False)
        assert report.ok
        assert report.sign_flips == [1.0]

    def test_strict_rejects_above_one(self):
        g = linear_driver(2.0, [1.0], [1.0])
        assert not check_admissibility(2.0, g, strict=True).ok


class TestHatTransform:
    def test_identity_off_jumps(self):
        g = linear_driver(2.0, [1.0], [1.0])
        c = lambda t: 3.0 * t
        assert hat_transform(c, g)(0.5) == pytest.approx(1.5)

    def test_log_compression_at_jump(self):
        g = linear_driver(2.0, [1.0], [1.0])
        assert hat_transform(-0.5, g)(1.0) == pytest.approx(math.log(0.5))

    def test_zero_coefficient_stays_zero(self):
        g = linear_driver(2.0, [1.0], [1.0])
        assert hat_transform(0.0, g)(1.0) == 0.0

    def test_singular_jump_rejected(self):
        g = linear_driver(2.0, [1.0], [1.0])
        with pytest.raises(ValueError, match="t=1.0"):
            hat_transform(-1.0, g)(1.0)

    def test_array_call_matches_scalar_calls(self):
        g = linear_driver(2.0, [0.5, 1.0], [1.0, 0.25])
        hatted = hat_transform(lambda t: np.cos(3.0 * t) - 0.5, g)
        ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
        values = hatted(ts)
        assert values.shape == ts.shape
        assert list(values) == [hatted(t) for t in ts]
        assert isinstance(hatted(0.5), float)


class TestHatExponential:
    def test_classical_exponential(self):
        g = identity_derivator(2.0)
        assert hat_exponential(1.0, g, 1.0) == pytest.approx(math.e)

    def test_jump_compresses_magnitude(self):
        g = linear_driver(2.0, [0.5], [1.0])
        value = hat_exponential(-0.5, g, 1.0)
        assert value == pytest.approx(math.exp(-0.5) * 0.5)
        # cross-check: exp of the measure integral of the hatted coefficient
        hatted = hat_transform(-0.5, g)
        integral = oracle_integral(hatted, g, 0.0, 1.0, 10 ** 5)
        assert value == pytest.approx(math.exp(integral), rel=1e-3)

    def test_sign_flips_past_strong_jump(self):
        g = linear_driver(2.0, [0.5], [1.0])
        assert hat_exponential(-2.0, g, 1.0) < 0.0
        assert hat_exponential(-2.0, g, 0.5) > 0.0  # jump not yet crossed

    def test_callable_coefficient_refines(self):
        g = identity_derivator(2.0)
        c = lambda t: t
        value = hat_exponential(c, g, 1.5, quad_n=20000)
        assert value == pytest.approx(math.exp(1.5 ** 2 / 2.0), rel=1e-6)


class TestTildeCoefficients:
    def setup_method(self):
        self.g = linear_driver(3.0, [1.0], [1.0])

    def test_identity_off_jumps(self):
        prob = LinearProblem(damping=0.5, forcing=2.0, x0=0.0)
        assert tilde_coefficients(prob, self.g, 0.25) == (0.5, 2.0)

    def test_halved_denominator(self):
        prob = LinearProblem(damping=0.5, forcing=0.0, x0=0.0)
        d_t, _ = tilde_coefficients(prob, self.g, 1.0)
        assert d_t == pytest.approx(1.0)

    def test_negative_branch(self):
        prob = LinearProblem(damping=2.0, forcing=0.0, x0=0.0)
        d_t, _ = tilde_coefficients(prob, self.g, 1.0)
        assert d_t == pytest.approx(-2.0)

    def test_singular_jump_rejected(self):
        prob = LinearProblem(damping=1.0, forcing=0.0, x0=0.0)
        with pytest.raises(ValueError):
            tilde_coefficients(prob, self.g, 1.0)


class TestHomogeneousSolution:
    def test_classical_exponential_decay(self):
        g = identity_derivator(3.0)
        ts = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(homogeneous_solution(0.7, 2.0, g, ts),
                                   2.0 * np.exp(-0.7 * ts), rtol=1e-12)

    def test_negative_damping_with_jump(self):
        g = linear_driver(4.0, [2.0], [1.0])
        assert homogeneous_solution(-0.5, 1.0, g, 3.0) == pytest.approx(
            1.5 * math.exp(1.5))

    def test_before_first_jump_plain_exponential(self):
        g = linear_driver(4.0, [2.0], [1.0])
        assert homogeneous_solution(-0.5, 1.0, g, 1.5) == pytest.approx(
            math.exp(0.75))

    def test_inadmissible_rejected(self):
        g = linear_driver(2.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            homogeneous_solution(1.5, 1.0, g, 1.5)

    def test_initial_value(self):
        g = make_test_derivator(3, snap=0.1)
        assert homogeneous_solution(-0.5, 4.2, g, 0.0) == pytest.approx(4.2)

    def test_agrees_with_scheme(self):
        g = linear_driver(4.0, [2.0], [1.0])
        spec = IvpSpec(rhs=lambda t, x, hist: 0.5 * x, x0=1.0)
        part = build_partition(g, 1e-3)
        traj = solve(spec, part)
        exact = homogeneous_solution(-0.5, 1.0, g, part.nodes)
        assert np.max(np.abs(traj.values - exact)) <= 1e-4


class TestConstantLinearSolution:
    def test_classical_saturation(self):
        g = identity_derivator(2.0)
        assert constant_linear_solution(1.0, 1.0, 0.0, g, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0))

    def test_zero_forcing_matches_homogeneous(self):
        g = make_test_derivator(2, snap=0.1)
        for t in (0.0, 1.7, 5.0, 10.0):
            assert constant_linear_solution(-0.5, 0.0, 1.0, g, t) == \
                pytest.approx(homogeneous_solution(-0.5, 1.0, g, t))

    def test_classical_limit_full_formula(self):
        g = identity_derivator(2.0)
        d, forcing, x0 = 0.8, 1.3, 2.0
        for t in (0.3, 1.0, 2.0):
            expected = (x0 * math.exp(-d * t)
                        + forcing / d * (1.0 - math.exp(-d * t)))
            assert constant_linear_solution(d, forcing, x0, g, t) == \
                pytest.approx(expected, rel=1e-12)

    def test_agrees_with_scheme_on_benchmark_driver(self):
        g = make_test_derivator(2, snap=0.1)
        d, forcing = -0.5, 1.0
        spec = IvpSpec(rhs=lambda t, x, hist: forcing - d * x, x0=1.0)
        part = build_partition(g, 1e-4)
        traj = solve(spec, part)
        sample = slice(None, None, 1000)
        exact = np.array([constant_linear_solution(d, forcing, 1.0, g, t)
                          for t in part.nodes[sample]])
        assert np.max(np.abs(traj.values[sample] - exact)) <= 1e-6

    def test_jump_relation_across_each_jump(self):
        g = make_test_derivator(3, snap=0.1)
        d, forcing, x0 = -0.5, 1.0, 1.0
        for t in g.jump_times:
            left = constant_linear_solution(d, forcing, x0, g, t)
            right = constant_linear_solution(d, forcing, x0, g, t,
                                             from_right=True)
            gap = g.jump_gap(t)
            assert right == pytest.approx(left + gap * (forcing - d * left),
                                          abs=1e-10)


class TestGeneralLinearSolution:
    def test_matches_constant_solution(self):
        g = linear_driver(3.0, [1.0, 2.0], [0.5, 1.0])
        prob = LinearProblem(damping=0.7, forcing=1.3, x0=2.0)
        expected = constant_linear_solution(0.7, 1.3, 2.0, g, 2.5)
        value = general_linear_solution(prob, g, 2.5, quad_n=10 ** 6)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_zero_damping_reduces_to_measure_integral(self):
        g = linear_driver(3.0, [1.0], [2.0])
        prob = LinearProblem(damping=0.0, forcing=1.5, x0=0.25)
        value = general_linear_solution(prob, g, 2.0, quad_n=10 ** 5)
        assert value == pytest.approx(0.25 + 1.5 * g.value(2.0), rel=1e-9)

    def test_time_dependent_damping_classical(self):
        g = identity_derivator(2.0)
        prob = LinearProblem(damping=lambda t: t, forcing=0.0, x0=1.0)
        value = general_linear_solution(prob, g, 1.5, quad_n=10 ** 5)
        assert value == pytest.approx(math.exp(-1.5 ** 2 / 2.0), rel=1e-7)

    def test_initial_value_and_error_estimate(self):
        g = linear_driver(3.0, [1.0], [0.5])
        prob = LinearProblem(damping=0.3, forcing=0.7, x0=1.2)
        assert general_linear_solution(prob, g, 0.0) == 1.2
        value = general_linear_solution(prob, g, 2.0, quad_n=10 ** 5)
        assert value == pytest.approx(
            constant_linear_solution(0.3, 0.7, 1.2, g, 2.0), abs=1e-8)

    def test_sign_flip_branch(self):
        # d*gap = 2 > 1: admissible in the general sense, solution changes
        # sign past the jump relative to the plain exponential envelope
        g = linear_driver(2.0, [1.0], [1.0])
        prob = LinearProblem(damping=2.0, forcing=0.0, x0=1.0)
        before = general_linear_solution(prob, g, 1.0, quad_n=10 ** 4)
        after = general_linear_solution(prob, g, 1.5, quad_n=10 ** 4)
        assert before > 0.0
        assert after < 0.0
        # the jump multiplies the state by (1 - d*gap) = -1
        assert after == pytest.approx(-before * math.exp(-2.0 * 0.5), rel=1e-6)

    def test_inadmissible_rejected(self):
        g = linear_driver(2.0, [1.0], [1.0])
        prob = LinearProblem(damping=1.0, forcing=0.0, x0=1.0)
        with pytest.raises(ValueError):
            general_linear_solution(prob, g, 1.5)


def test_semigroup_property():
    g = make_test_derivator(3, snap=0.1)
    d, x0 = -0.5, 1.0
    rng = np.random.default_rng(2024)
    for _ in range(100):
        t = float(rng.uniform(0.0, 9.0))
        r = float(rng.uniform(0.0, 10.0 - t))
        lhs = homogeneous_solution(d, x0, g, t + r)
        times, gaps = g.jumps_in(t, t + r)
        mu_cont = g.measure(t, t + r) - float(gaps.sum())
        rhs = (homogeneous_solution(d, x0, g, t) * math.exp(-d * mu_cont)
               * float(np.prod(1.0 - d * gaps)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_all_solutions_start_at_x0():
    g = make_test_derivator(2, snap=0.1)
    prob = LinearProblem(damping=0.4, forcing=0.9, x0=3.5)
    assert homogeneous_solution(0.4, 3.5, g, 0.0) == 3.5
    assert constant_linear_solution(0.4, 0.9, 3.5, g, 0.0) == 3.5
    assert general_linear_solution(prob, g, 0.0) == 3.5
    assert hat_exponential(0.4, g, 0.0) == 1.0
