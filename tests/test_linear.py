import math

import numpy as np
import pytest

from cpu_target import per_target
from stieltjes_ode.derivator import (_ORACLE_BLOCK, MAX_GRID_STEPS, Derivator,
                                     identity_derivator, make_test_derivator)
from stieltjes_ode.linear import (check_admissibility,
                                  constant_linear_solution,
                                  general_linear_solution, hat_exponential,
                                  hat_transform, homogeneous_solution,
                                  tilde_coefficients)
from stieltjes_ode.quadrature import _piece_terms, oracle_integral
from stieltjes_ode.solver import IvpSpec, build_partition, solve


def linear_driver(T, times, gaps):
    return Derivator(T, lambda t: np.asarray(t, dtype=float), times, gaps)


class TestAdmissibility:
    def test_passes_below_one(self):
        g = linear_driver(3.0, [1.0, 2.0], [1.0, 1.0])
        assert check_admissibility(0.5, g) == []

    def test_fails_at_exactly_one(self):
        g = linear_driver(2.0, [1.0], [1.0])
        assert check_admissibility(1.0, g) == [(1.0, 1.0)]

    def test_above_one_passes_nonstrict_with_flips(self):
        g = linear_driver(2.0, [1.0], [1.0])
        assert check_admissibility(2.0, g, strict=False) == []
        # d*gap > 1: the adapted exponential of -d changes sign at the jump
        assert hat_exponential(-2.0, g, 2.0) < 0.0

    def test_strict_rejects_above_one(self):
        g = linear_driver(2.0, [1.0], [1.0])
        assert check_admissibility(2.0, g, strict=True) == [(1.0, 2.0)]


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
        assert tilde_coefficients(0.5, 2.0, self.g, 0.25) == (0.5, 2.0)

    def test_halved_denominator(self):
        d_t, _ = tilde_coefficients(0.5, 0.0, self.g, 1.0)
        assert d_t == pytest.approx(1.0)

    def test_negative_branch(self):
        d_t, _ = tilde_coefficients(2.0, 0.0, self.g, 1.0)
        assert d_t == pytest.approx(-2.0)

    def test_singular_jump_rejected(self):
        with pytest.raises(ValueError):
            tilde_coefficients(1.0, 0.0, self.g, 1.0)


class TestDomainEnd:
    """No jump sits at the domain end, so the jump-adapted coefficients
    there are the plain ones."""

    def test_tilde_coefficients_at_domain_end(self):
        g = make_test_derivator(2)
        assert tilde_coefficients(0.5, 0.7, g, 10.0) == (0.5, 0.7)

    def test_hat_transform_at_domain_end(self):
        g = make_test_derivator(2)
        assert hat_transform(0.5, g)(10.0) == 0.5


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

    @pytest.mark.parametrize("from_right", [False, True])
    def test_sorted_points_get_the_values_of_shuffled_ones(self, from_right):
        # sorted points take the jump-factor product run by run, shuffled
        # ones by a search per point; jump times and their neighbours included
        g = make_test_derivator(4, snap=0.1)
        near = np.concatenate([g.jump_times, np.nextafter(g.jump_times, 0.0),
                               np.nextafter(g.jump_times, 10.0)])
        grid = np.linspace(0.0, 10.0, 1001)[:-1]  # right limits stop before T
        ts = np.sort(np.concatenate([grid, near]))
        shuffled = np.random.default_rng(5).permutation(ts)
        order = np.argsort(shuffled, kind="stable")
        sorted_vals = homogeneous_solution(-0.5, 1.3, g, ts, from_right)
        shuffled_vals = homogeneous_solution(-0.5, 1.3, g, shuffled, from_right)
        assert np.array_equal(sorted_vals, shuffled_vals[order])

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

    @pytest.mark.parametrize("from_right", [False, True])
    @pytest.mark.parametrize("d", [0.0, 0.4, -0.7])
    def test_array_call_matches_scalar_calls(self, d, from_right):
        g = make_test_derivator(3, snap=0.1)
        ts = np.linspace(0.0, 10.0, 41)[:-1 if from_right else None]
        values = constant_linear_solution(d, 1.3, 0.6, g, ts, from_right)
        np.testing.assert_allclose(values, [
            constant_linear_solution(d, 1.3, 0.6, g, t, from_right)
            for t in ts], rtol=1e-15, atol=0.0)

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
        expected = constant_linear_solution(0.7, 1.3, 2.0, g, 2.5)
        value = general_linear_solution(0.7, 1.3, 2.0, g, 2.5, quad_n=10 ** 6)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_zero_damping_reduces_to_measure_integral(self):
        g = linear_driver(3.0, [1.0], [2.0])
        value = general_linear_solution(0.0, 1.5, 0.25, g, 2.0, quad_n=10 ** 5)
        assert value == pytest.approx(0.25 + 1.5 * g.value(2.0), rel=1e-9)

    def test_time_dependent_damping_classical(self):
        g = identity_derivator(2.0)
        value = general_linear_solution(lambda t: t, 0.0, 1.0, g, 1.5,
                                        quad_n=10 ** 5)
        assert value == pytest.approx(math.exp(-1.5 ** 2 / 2.0), rel=1e-7)

    def test_initial_value_and_error_estimate(self):
        g = linear_driver(3.0, [1.0], [0.5])
        assert general_linear_solution(0.3, 0.7, 1.2, g, 0.0) == 1.2
        value = general_linear_solution(0.3, 0.7, 1.2, g, 2.0, quad_n=10 ** 5)
        assert value == pytest.approx(
            constant_linear_solution(0.3, 0.7, 1.2, g, 2.0), abs=1e-8)

    def test_sign_flip_branch(self):
        # d*gap = 2 > 1: admissible in the general sense, solution changes
        # sign past the jump relative to the plain exponential envelope
        g = linear_driver(2.0, [1.0], [1.0])
        before = general_linear_solution(2.0, 0.0, 1.0, g, 1.0, quad_n=10 ** 4)
        after = general_linear_solution(2.0, 0.0, 1.0, g, 1.5, quad_n=10 ** 4)
        assert before > 0.0
        assert after < 0.0
        # the jump multiplies the state by (1 - d*gap) = -1
        assert after == pytest.approx(-before * math.exp(-2.0 * 0.5), rel=1e-6)

    def test_inadmissible_rejected(self):
        g = linear_driver(2.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            general_linear_solution(1.0, 0.0, 1.0, g, 1.5)


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
    assert homogeneous_solution(0.4, 3.5, g, 0.0) == 3.5
    assert constant_linear_solution(0.4, 0.9, 3.5, g, 0.0) == 3.5
    assert general_linear_solution(0.4, 0.9, 3.5, g, 0.0) == 3.5
    assert hat_exponential(0.4, g, 0.0) == 1.0


# general_linear_solution of the multi-block case below, on numpy's AVX-512
# and AVX2 loops (cpu_target.py)
MULTI_BLOCK_BITS = per_target("-0x1.e1008c2d2456dp-5", "-0x1.e1008c2d2455bp-5")


class TestClosedFormBits:
    """Values captured as hex floats before the jump lookups of the closed
    forms went through ``Derivator.jumps_in``; they must not move."""

    def test_hat_exponential(self):
        g2 = make_test_derivator(2)
        g5 = make_test_derivator(5, snap=0.1)
        cos = lambda t: np.cos(3.0 * t) - 0.5
        two_jumps = linear_driver(2.0, [0.5, 1.0], [1.0, 0.25])
        cases = [
            (hat_exponential(0.5, g2, 3.7), "0x1.3c8df2a9684f5p+1"),
            (hat_exponential(0.5, g2, 10.0), "0x1.42ae7e319bdeap+3"),
            # at a jump time: that jump is not crossed yet
            (hat_exponential(cos, g5, 5.0, quad_n=1000),
             "-0x1.9d5af23af15e7p-5"),
            (hat_exponential(-2.0, two_jumps, 2.0), "-0x1.2c155b8213cf4p-7"),
        ]
        for value, expected in cases:
            assert value == float.fromhex(expected)

    def test_general_linear_solution(self):
        value = general_linear_solution(0.5, np.sin, 1.25,
                                        make_test_derivator(2), 7.3,
                                        quad_n=1000)
        assert value == float.fromhex("0x1.48569eefb03b2p-3")
        value = general_linear_solution(
            lambda t: 0.3 * np.sin(t), 0.7, 1.25,
            make_test_derivator(5, snap=0.1), 6.5, quad_n=1000)
        assert value == float.fromhex("0x1.8c3e01fa753e9p+2")

    def test_multi_block_pieces(self):
        # at the default quad_n each piece spans several blocks, so a change
        # at a block boundary shows here
        g = make_test_derivator(4, snap=0.1)
        d = lambda t: 0.3 * np.sin(t)
        value = general_linear_solution(d, np.cos, 1.25, g, 9.3)
        assert value == float.fromhex(MULTI_BLOCK_BITS)
        assert hat_exponential(d, g, 9.3) == float.fromhex(
            "0x1.4682e16a992ecp+0")

    def test_forcing_is_read_only_where_the_driver_rises(self):
        # the case above, with a forcing that is NaN strictly inside the
        # plateaus [2, 4] and [6, 8] and counts the points it is read at
        g = make_test_derivator(4, snap=0.1)
        d = lambda t: 0.3 * np.sin(t)
        seen = []

        def forcing(t):
            arr = np.asarray(t, dtype=float)
            seen.append(arr.ravel().copy())
            plateau = ((arr > 2.0) & (arr < 4.0)) | ((arr > 6.0) & (arr < 8.0))
            return np.where(plateau, np.nan, np.cos(arr))

        value = general_linear_solution(d, forcing, 1.25, g, 9.3)
        assert value == float.fromhex(MULTI_BLOCK_BITS)
        # the ends of the grid steps where g^C rises, plus the four jumps;
        # each block reads the ends of its own live steps, so a block end
        # with a live step on both sides is read once by either block
        want = g.n_jumps
        shared = 0
        for lo, hi, terms in _piece_terms(d, g, 0.0, 9.3, 10 ** 6):
            xs = np.linspace(lo, hi, terms.size + 1)
            live = np.diff(g.continuous_value(xs)) != 0
            want += int(np.count_nonzero(np.append(live, False)
                                         | np.append(False, live)))
            ends = np.arange(_ORACLE_BLOCK, terms.size, _ORACLE_BLOCK)
            shared += int(np.count_nonzero(live[ends - 1] & live[ends]))
        assert shared == 16
        assert sum(map(len, seen)) == want + shared
        assert want < 600_000  # of 1_000_006 grid points and 4 jumps

    def test_the_driver_is_read_in_one_walk(self):
        # the forcing's trapezoid reads the blocks the d-integral reads: as
        # many g^C points as hat_exponential on the same coefficient and
        # grid, not a second pass over every grid point
        base = make_test_derivator(4, snap=0.1)
        points = []

        def part(t):
            arr = np.asarray(t, dtype=float)
            points.append(arr.size)
            return base.continuous_part(arr)

        g = Derivator(base.domain_end, part, base.jump_times, base.jump_gaps)
        d = lambda t: -0.3 + 0.1 * np.sin(t)
        points.clear()
        value = general_linear_solution(d, np.cos, 1.0, g, 9.3)
        assert value == float.fromhex("0x1.a60c2f74c3219p+2")
        read = sum(points)
        points.clear()
        hat_exponential(d, g, 9.3)
        assert read == sum(points) == 569_950  # of 1_000_005 grid points


class TestClosedFormDomain:
    """Both closed forms read their jumps through ``jumps_in``, which takes
    only times inside ``[0, T]``."""

    @pytest.mark.parametrize("t", [-1.0, 11.0, math.nan])
    @pytest.mark.parametrize("coef", [0.5, lambda t: 0.25 * np.cos(t)],
                             ids=["constant", "callable"])
    def test_time_outside_the_domain_rejected(self, t, coef):
        g = make_test_derivator(2)
        with pytest.raises(ValueError, match="<= 10.0"):
            hat_exponential(coef, g, t, quad_n=100)
        with pytest.raises(ValueError, match="<= 10.0"):
            general_linear_solution(coef, 0.7, 1.0, g, t, quad_n=100)

    @pytest.mark.parametrize("quad_n", [0, -5, 1.5, MAX_GRID_STEPS + 1])
    @pytest.mark.parametrize("coef", [0.5, np.cos], ids=["constant", "callable"])
    def test_bad_refinement_rejected(self, quad_n, coef):
        # each of these used to run silently with one subinterval per piece
        g = make_test_derivator(4, snap=0.1)
        with pytest.raises(ValueError, match="quad_n"):
            hat_exponential(coef, g, 9.3, quad_n=quad_n)
        with pytest.raises(ValueError, match="quad_n"):
            general_linear_solution(coef, 0.7, 1.0, g, 9.3, quad_n=quad_n)

    def test_domain_ends_accepted(self):
        g = make_test_derivator(2)
        assert hat_exponential(0.5, g, 0.0) == 1.0
        assert math.isfinite(hat_exponential(0.5, g, 10.0))
        assert math.isfinite(general_linear_solution(0.5, 0.7, 1.0, g, 10.0,
                                                     quad_n=100))


@pytest.mark.parametrize("call, message", [
    (lambda g: homogeneous_solution(math.nan, 1.0, g, 1.0), "damping d"),
    (lambda g: homogeneous_solution(0.5, math.nan, g, 1.0),
     "initial value"),
    (lambda g: constant_linear_solution(0.3, 1.0, math.inf, g, 5.0),
     "initial value"),
    (lambda g: constant_linear_solution(0.0, math.nan, 1.0, g, 5.0),
     "forcing"),
    (lambda g: constant_linear_solution(-math.inf, 1.0, 1.0, g, 5.0),
     "damping d"),
    (lambda g: general_linear_solution(math.nan, 0.7, 1.0, g, 5.0,
                                       quad_n=100), "damping d"),
    (lambda g: general_linear_solution(0.5, math.inf, 1.0, g, 5.0,
                                       quad_n=100), "forcing"),
    (lambda g: general_linear_solution(np.cos, 0.7, math.nan, g, 5.0,
                                       quad_n=100), "initial value"),
])
def test_non_finite_input_rejected_by_name(call, message):
    # each of these used to return NaN or inf
    with pytest.raises(ValueError, match=f"^{message} must be finite"):
        call(make_test_derivator(2))


class TestJumpMap:
    """Every closed form takes its jump factors from one jump map, which
    rejects a factor that is 0 or NaN at the first such jump."""

    @staticmethod
    def nan_at_jumps(g):
        # a callable coefficient that is NaN at the jumps and 0.25 elsewhere
        return lambda t: np.where(np.isin(t, g.jump_times), math.nan, 0.25)

    @staticmethod
    def inf_at_jumps(g):
        # the same, infinite at the jumps
        return lambda t: np.where(np.isin(t, g.jump_times), math.inf, 0.25)

    # each closed form that takes a callable coefficient, called with ``c``
    CALLS = pytest.mark.parametrize("call", [
        lambda c, g: hat_transform(c, g)(np.array([1.0, g.jump_times[0]])),
        lambda c, g: hat_exponential(c, g, 9.3, quad_n=100),
        lambda c, g: tilde_coefficients(c, 0.7, g, g.jump_times[0]),
        lambda c, g: general_linear_solution(c, 0.7, 1.0, g, 9.3,
                                             quad_n=100),
    ], ids=["hat_transform", "hat_exponential", "tilde_coefficients",
            "general_linear_solution"])

    @CALLS
    def test_callable_coefficient_nan_at_a_jump_rejected(self, call):
        # each of these used to return NaN
        g = make_test_derivator(2, snap=0.1)
        with pytest.raises(ValueError,
                           match=r"^inadmissible jump at t=3\.3.*factor nan"):
            call(self.nan_at_jumps(g), g)

    @pytest.mark.parametrize("strict", [False, True])
    def test_admissibility_reports_a_nan_product(self, strict):
        g = make_test_derivator(2, snap=0.1)
        offending = check_admissibility(self.nan_at_jumps(g), g, strict)
        assert [t for t, _ in offending] == list(g.jump_times)
        assert all(math.isnan(prod) for _, prod in offending)

    @CALLS
    def test_callable_coefficient_inf_at_a_jump_rejected(self, call):
        # general_linear_solution used to raise a bare ZeroDivisionError,
        # hat_exponential to return inf, tilde_coefficients (nan, -0.0)
        g = make_test_derivator(2, snap=0.1)
        with pytest.raises(ValueError, match=r"^inadmissible jump at t=3\.3.*"
                           r"factor -?inf is not a finite nonzero number"):
            call(self.inf_at_jumps(g), g)

    def test_homogeneous_factor_must_be_finite(self):
        # d*gap = -1e309 overflows: the factor 1 - d*gap is inf
        g = linear_driver(20.0, [1.0], [10.0])
        with pytest.raises(ValueError, match=r"^inadmissible jump at t=1\.0: "
                           r"the jump factor inf is not positive and finite"):
            homogeneous_solution(-1e308, 1.0, g, 1.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("strict", [False, True])
    def test_admissibility_reports_an_infinite_product(self, strict, sign):
        # the non-strict check used to return [] for both signs
        g = make_test_derivator(2, snap=0.1)
        d = lambda t: sign * self.inf_at_jumps(g)(t)
        offending = check_admissibility(d, g, strict)
        assert offending == [(t, sign * math.inf) for t in g.jump_times]

    def test_hat_transform_leaves_its_argument_unchanged(self):
        # ``lambda t: t`` hands back the array it is given
        g = linear_driver(2.0, [1.0], [1.0])
        ts = np.array([0.5, 1.0, 1.5])
        values = hat_transform(lambda t: t, g)(ts)
        assert list(ts) == [0.5, 1.0, 1.5]
        assert list(values) == [0.5, math.log(2.0), 1.5]

    def test_general_solution_reads_d_once_per_jump(self):
        g = make_test_derivator(4, snap=0.1)
        at_jumps = []

        def d(t):
            if np.ndim(t) == 0:
                at_jumps.append(float(t))
            return 0.3 * np.sin(t)

        general_linear_solution(d, np.cos, 1.25, g, 9.3, quad_n=100)
        assert at_jumps == list(g.jump_times)

    def test_homogeneous_factor_must_be_positive(self):
        g = linear_driver(2.0, [1.0], [1.0])
        with pytest.raises(ValueError, match=r"^inadmissible jump at t=1\.0: "
                           r"the jump factor -0\.5 is not positive"):
            homogeneous_solution(1.5, 1.0, g, 1.5)
