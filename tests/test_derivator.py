import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_ode.derivator import (Derivator, from_descriptor,
                                     identity_derivator, make_phi,
                                     make_silkworm_derivator,
                                     make_test_derivator)


@pytest.fixture(scope="module")
def silkworm():
    return make_silkworm_derivator(10.0)


class TestSilkwormDriver:
    @pytest.mark.parametrize("t, expected", [
        (2.0, 1.0),
        (4.0, 2.0),   # jump at 4 not yet included in the left value
        (3.0, 1.0),   # flat stretch
        (7.0, 5.0),   # one period up: 4 + g(2)
        (0.0, 0.0),
    ])
    def test_value(self, silkworm, t, expected):
        assert silkworm.value(t) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t, expected", [
        (4.0, 3.0),
        (1.0, 0.5 * math.sqrt(3.0)),
        (5.0, 4.0),
    ])
    def test_right_value(self, silkworm, t, expected):
        assert silkworm.right_value(t) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t, expected", [(4.0, 1.0), (1.0, 0.0), (9.0, 1.0)])
    def test_jump_gap(self, silkworm, t, expected):
        assert silkworm.jump_gap(t) == expected

    def test_jump_times(self, silkworm):
        assert silkworm.jump_times.tolist() == [4.0, 5.0, 9.0]
        assert silkworm.jump_gaps.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("a, b, expected", [
        (0.0, 2.0, 1.0),
        (4.0, 5.0, 1.0),  # pure jump mass at 4; flat on (4, 5]
        (3.0, 3.0, 0.0),
    ])
    def test_measure(self, silkworm, a, b, expected):
        assert silkworm.measure(a, b) == pytest.approx(expected, abs=1e-12)

    def test_measure_rejects_reversed_interval(self, silkworm):
        with pytest.raises(ValueError):
            silkworm.measure(2.0, 1.0)


def test_identity_value():
    g = identity_derivator(1.0)
    assert g.value(0.3) == 0.3
    assert g.value(0.0) == 0.0


def test_normalization_subtracts_continuous_offset():
    g = Derivator(1.0, lambda t: np.asarray(t, dtype=float) + 5.0)
    assert g.value(0.0) == 0.0
    assert g.value(1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("t", [-0.1, 10.1])
def test_value_outside_domain(silkworm, t):
    with pytest.raises(ValueError):
        silkworm.value(t)


def test_right_value_rejects_domain_end(silkworm):
    with pytest.raises(ValueError):
        silkworm.right_value(10.0)


@pytest.mark.parametrize("times, gaps", [
    ([0.0], [1.0]),          # jump at 0: driver must be continuous there
    ([10.0], [1.0]),         # jump at the domain end
    ([1.0], [0.0]),          # zero gap
    ([1.0], [-0.5]),         # negative gap
    ([2.0, 1.0], [1.0, 1.0]),  # unsorted
])
def test_constructor_rejects_bad_jumps(times, gaps):
    with pytest.raises(ValueError):
        Derivator(10.0, lambda t: np.asarray(t, dtype=float), times, gaps)


def test_constructor_rejects_nan_jump_time():
    with pytest.raises(ValueError, match="finite"):
        Derivator(10.0, lambda t: np.asarray(t, dtype=float), [math.nan], [1.0])


def test_constructor_rejects_nan_gap():
    with pytest.raises(ValueError, match="finite"):
        Derivator(10.0, lambda t: np.asarray(t, dtype=float), [2.0], [math.nan])


def test_constructor_rejects_infinite_gap():
    with pytest.raises(ValueError, match="finite"):
        Derivator(10.0, lambda t: np.asarray(t, dtype=float), [2.0], [math.inf])


def test_constructor_rejects_decreasing_continuous_part():
    # accepted before, when it gave measure(1, 2) = -1
    with pytest.raises(ValueError, match="nondecreasing"):
        Derivator(10.0, lambda t: -np.asarray(t, dtype=float))


def test_constructor_rejects_small_decrease_inside_the_domain():
    dip = lambda t: np.asarray(t, dtype=float) - 2.0 * np.clip(
        np.asarray(t, dtype=float) - 6.0, 0.0, 0.5)
    with pytest.raises(ValueError, match=r"decreases after t=(5\.99|6\.)"):
        Derivator(10.0, dip)
    with pytest.raises(ValueError, match="nondecreasing"):
        Derivator(10.0, lambda t: -1e-3 * np.asarray(t, dtype=float))


def test_constructor_tolerates_rounding_sized_decreases():
    # flat up to noise of 1e-14 relative to its size
    g = Derivator(10.0, lambda t: 1.0 + 1e-14 * np.sin(37.0 * np.asarray(
        t, dtype=float)))
    assert g.measure(0.0, 10.0) == pytest.approx(0.0, abs=1e-13)


def test_constructor_rejects_non_finite_continuous_part():
    with pytest.raises(ValueError, match="finite"):
        Derivator(10.0, lambda t: np.where(np.asarray(t) > 3.0, np.nan, t))


@pytest.mark.parametrize("T", [3.0, 10.0, 13.0])
def test_builtin_drivers_construct(T):
    for nj in range(5):
        for alpha in np.linspace(1.0, 6.0, 11):
            assert make_test_derivator(nj, alpha=alpha, T=T).n_jumps == nj
    make_silkworm_derivator(T)
    identity_derivator(T)
    for name in ("identity", "zero"):
        from_descriptor({"kind": "custom", "T": T, "continuous": name})


def test_right_minus_left_is_gap(silkworm):
    ts = np.concatenate((np.linspace(0.0, 9.99, 211), silkworm.jump_times))
    for t in ts:
        assert silkworm.right_value(t) - silkworm.value(t) == pytest.approx(
            silkworm.jump_gap(t), abs=1e-12)


@pytest.mark.parametrize("g", [make_silkworm_derivator(10.0),
                               make_test_derivator(4, alpha=3.0)],
                         ids=["silkworm", "ramps"])
def test_continuous_part_nondecreasing_on_random_samples(g):
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(0.0, 10.0, 4000))
    vals = g.continuous_value(ts)
    assert np.all(np.diff(vals) >= -1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 1.0))
def test_measure_additivity(a, b, frac):
    g = make_silkworm_derivator(10.0)
    a, b = min(a, b), max(a, b)
    m = a + frac * (b - a)
    total = g.measure(a, b)
    assert total == pytest.approx(g.measure(a, m) + g.measure(m, b), abs=1e-9)
    _, gaps = g.jumps_in(a, b)
    assert total >= gaps.sum() - 1e-12


def test_transfer_of_lipschitz_regularity():
    # f = c1*g + c2*sin(g) is g-Lipschitz with constant |c1| + |c2|; its
    # jump sizes and the increments of its continuous part
    # f(t) - sum_{d<t} (f(d+) - f(d)) must stay within that constant
    rng = np.random.default_rng(1234)
    g = make_test_derivator(3, alpha=4.0)
    c1, c2 = 0.8, -1.1
    h_f = abs(c1) + abs(c2)
    f = lambda t: c1 * g.value(t) + c2 * np.sin(g.value(t))
    fr = lambda t: c1 * g.right_value(t) + c2 * np.sin(g.right_value(t))
    deltas = [fr(d) - f(d) for d in g.jump_times]
    f_cont = lambda t: f(t) - sum(
        delta for d, delta in zip(g.jump_times, deltas) if d < t)
    for d, gap in zip(g.jump_times, g.jump_gaps):
        assert abs(fr(d) - f(d)) <= h_f * gap + 1e-12
    ts = rng.uniform(0.0, 10.0, size=(1000, 2))
    for t, s in ts:
        lhs = abs(f_cont(t) - f_cont(s))
        rhs = h_f * abs(g.continuous_value(t) - g.continuous_value(s))
        assert lhs <= rhs + 1e-9


class TestPhi:
    def test_endpoints_exact(self):
        phi = make_phi(4.0)
        assert phi(0.0) == 0.0
        assert phi(1.0) == 1.0
        assert phi(-3.0) == 0.0
        assert phi(2.0) == 1.0

    def test_midpoint(self):
        assert make_phi(4.0)(0.5) == pytest.approx(0.5)

    def test_monotone_and_bounded(self):
        phi = make_phi(2.5)
        xs = np.linspace(-0.5, 1.5, 2001)
        vals = phi(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_steepness_ordering(self):
        phi = make_phi(4.0)
        assert phi(0.25) < phi(0.75)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            make_phi(0.0)


class TestTestDerivator:
    def test_no_jumps_total_rise(self):
        g = make_test_derivator(0)
        assert g.value(10.0) == pytest.approx(3.0, abs=1e-12)

    def test_four_jumps_total(self):
        g = make_test_derivator(4)
        assert g.value(10.0) == pytest.approx(7.0, abs=1e-12)
        assert g.jump_times.tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_two_jumps_equally_spaced(self):
        g = make_test_derivator(2, T=10.0)
        np.testing.assert_allclose(g.jump_times, [10.0 / 3.0, 20.0 / 3.0])

    def test_snap_places_jumps_on_grid(self):
        g = make_test_derivator(2, snap=0.1)
        for d in g.jump_times:
            assert abs(d / 0.1 - round(d / 0.1)) < 1e-9

    def test_flat_between_ramps(self):
        g = make_test_derivator(0)
        assert g.continuous_value(3.9) == g.continuous_value(2.1)

    @pytest.mark.parametrize("T", [10.0, 13.0])
    @pytest.mark.parametrize("alpha", [1.0, 3.3, 4.0, 6.0])
    def test_one_pass_ramp_is_the_three_ramp_sum(self, alpha, T):
        phi = make_phi(alpha)
        cont = make_test_derivator(0, alpha=alpha, T=T).continuous_part
        ends = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, T])
        ts = np.concatenate((np.linspace(-1.0, T + 1.0, 100001), ends,
                             np.nextafter(ends, -np.inf),
                             np.nextafter(ends, np.inf),
                             [-0.0, -50.0, 2.0 * T, 1e300, -1e300]))
        three = phi(ts / 2.0) + phi((ts - 4.0) / 2.0) + phi((ts - 8.0) / 2.0)
        # bit for bit, signed zeros included
        assert np.array_equal(cont(ts).view(np.int64), three.view(np.int64))
        for t in ts[::4999]:
            assert float(cont(t)) == phi(t / 2.0) + phi((t - 4.0) / 2.0) \
                + phi((t - 8.0) / 2.0)

    def test_snap_collision_rejected(self):
        with pytest.raises(ValueError):
            make_test_derivator(9, snap=5.0)


class TestDescriptor:
    def test_identity(self):
        g = from_descriptor({"kind": "identity", "T": 2.0})
        assert g.value(1.5) == 1.5

    def test_test_kind(self):
        g = from_descriptor({"kind": "test", "T": 10.0, "num_jumps": 4,
                             "alpha": 4.0})
        assert g.n_jumps == 4

    def test_silkworm_kind(self):
        g = from_descriptor({"kind": "silkworm", "T": 10.0})
        assert g.jump_times.tolist() == [4.0, 5.0, 9.0]

    def test_custom(self):
        g = from_descriptor({"kind": "custom", "T": 2.0,
                             "continuous": "identity",
                             "jumps": [{"t": 1.0, "gap": 0.5}]})
        assert g.value(1.5) == pytest.approx(2.0)

    @pytest.mark.parametrize("desc", [
        {"T": 1.0},
        {"kind": "nope", "T": 1.0},
        {"kind": "custom", "T": 1.0, "continuous": "unknown"},
        "not a dict",
    ])
    def test_bad_descriptors(self, desc):
        with pytest.raises(ValueError):
            from_descriptor(desc)
