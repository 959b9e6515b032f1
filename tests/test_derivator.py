import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stieltjes_ode import derivator, quadrature
from stieltjes_ode.derivator import (Derivator, from_descriptor,
                                     identity_derivator, make_phi,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.models import SilkwormParams


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

    # no jump sits at the domain end T = 10, so the gap there is zero
    @pytest.mark.parametrize("t, expected", [(4.0, 1.0), (1.0, 0.0), (9.0, 1.0),
                                             (10.0, 0.0)])
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
    # no jumps: every gap is zero, scalar or array
    assert g.jump_gap(0.3) == 0.0 and isinstance(g.jump_gap(0.3), float)
    gaps = g.jump_gap(np.array([0.0, 0.5, 0.75]))
    assert gaps.shape == (3,) and not gaps.any()


def test_jump_gap_on_an_array_past_the_last_jump():
    g = make_test_derivator(3, snap=0.5)
    ts = np.concatenate((g.jump_times, np.nextafter(g.jump_times, 0.0),
                         np.nextafter(g.jump_times, 10.0), [0.0, 9.9, 10.0]))
    expected = np.where(np.isin(ts, g.jump_times), 1.0, 0.0)
    assert np.array_equal(g.jump_gap(ts), expected)
    with pytest.raises(ValueError, match="outside the domain"):
        g.jump_gap(10.5)


@pytest.mark.parametrize("a, b", [(2.0, 2.0), (3.0, 1.0), (math.nan, 1.0)])
def test_lipschitz_estimate_rejects_an_empty_interval(a, b):
    g = make_test_derivator(2)
    with pytest.raises(ValueError, match=r"^need 0 <= a < b <= 10.0, "
                                         rf"got a={a}, b={b}$"):
        g.estimate_continuous_lipschitz(a, b)


@pytest.mark.parametrize("a, b", [(-5.0, 20.0), (11.0, 12.0), (-1e-300, 1.0),
                                  (9.0, math.inf)])
def test_lipschitz_estimate_rejects_an_interval_outside_the_domain(a, b):
    g = make_test_derivator(2)
    with pytest.raises(ValueError, match=r"^need 0 <= a < b <= 10.0"):
        g.estimate_continuous_lipschitz(a, b)


def test_lipschitz_estimate_on_a_sub_resolution_interval():
    # one ulp wide: the 4001-point grid repeats its points, whose zero-width
    # steps once gave 0/0 (a RuntimeWarning, an error under this suite)
    g = make_test_derivator(4, snap=0.1)
    assert math.isfinite(g.estimate_continuous_lipschitz(
        1.0, np.nextafter(1.0, 2.0)))


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
    ([1.0, 2.0], [1.0]),       # one gap short
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


@pytest.mark.parametrize("T", [0.5, 3.9, 4.0, 5.0, 9.0, 10.0, 12.5, 5e3 + 1])
def test_silkworm_jump_times_match_the_loop(T):
    # the loop the vectorised construction replaced, kept as the reference
    times = []
    k = 0
    while 5.0 * k + 4.0 < T:
        times += [c for c in (5.0 * k + 4.0, 5.0 * k + 5.0) if c < T]
        k += 1
    assert np.array_equal(make_silkworm_derivator(T).jump_times, times)


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("build", [
    make_silkworm_derivator, lambda T: make_test_derivator(2, T=T),
    lambda T: SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=T)],
    ids=["silkworm", "test", "params"])
def test_builders_reject_bad_domain_end_by_name(build, T):
    with pytest.raises(ValueError, match="domain end T"):
        build(T)


def test_silkworm_rejects_more_jumps_than_a_grid_holds(monkeypatch):
    monkeypatch.setattr(derivator, "MAX_GRID_STEPS", 10)
    assert make_silkworm_derivator(25.0).n_jumps == 9
    with pytest.raises(ValueError, match="jumps"):
        make_silkworm_derivator(25.5)
    with pytest.raises(ValueError, match="jumps"):
        make_silkworm_derivator(1e300)


def test_test_derivator_rejects_more_jumps_than_a_grid_holds(monkeypatch):
    monkeypatch.setattr(derivator, "MAX_GRID_STEPS", 10)
    assert make_test_derivator(10).n_jumps == 10
    with pytest.raises(ValueError, match="num_jumps=11 .* 10 steps"):
        make_test_derivator(11)


@pytest.mark.parametrize("num_jumps", [2.5, 2.0, True, "2"])
def test_test_derivator_rejects_a_count_that_is_not_an_integer(num_jumps):
    # 2.5 used to build 3 jumps at 10j/3.5 and True one jump at 5.0
    with pytest.raises(ValueError, match="num_jumps must be an integer"):
        make_test_derivator(num_jumps)


def test_test_derivator_takes_a_numpy_integer():
    assert np.array_equal(make_test_derivator(np.int64(3)).jump_times,
                          make_test_derivator(3).jump_times)


@pytest.mark.parametrize("num_jumps", [0, 1, 2, 7, 99, 1000])
@pytest.mark.parametrize("T", [10.0, 3.7])
def test_test_derivator_jump_times_match_the_loop(num_jumps, T):
    # the list the vectorised construction replaced, kept as the reference
    times = [T * j / (num_jumps + 1) for j in range(1, num_jumps + 1)]
    assert np.array_equal(make_test_derivator(num_jumps, T=T).jump_times,
                          times)


@pytest.mark.parametrize("snap", [0.0, -0.1, math.nan, math.inf])
def test_test_derivator_rejects_bad_snap_by_name(snap):
    with pytest.raises(ValueError, match="snap"):
        make_test_derivator(2, snap=snap)


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


@pytest.mark.parametrize("g", [make_silkworm_derivator(10.0),
                               make_test_derivator(4, alpha=3.0),
                               identity_derivator(10.0)],
                         ids=["silkworm", "ramps", "identity"])
def test_sorted_points_get_the_values_of_shuffled_ones(g):
    # sorted arrays take the jump mass run by run, unsorted ones point by
    # point; both must give the same bits, also on and next to jump times
    rng = np.random.default_rng(7)
    ts = np.sort(np.concatenate((
        rng.uniform(0.0, 10.0, 500), g.jump_times, g.jump_times,
        np.nextafter(g.jump_times, 0.0), np.nextafter(g.jump_times, 10.0),
        [0.0, -0.0, 10.0])))
    for method, pts in ((g.value, ts), (g.right_value, ts[ts < 10.0])):
        perm = rng.permutation(pts.size)
        in_order = method(pts)
        shuffled = method(pts[perm])
        assert np.array_equal(in_order[perm].view(np.uint64),
                              shuffled.view(np.uint64))


def read_cases():
    """Times for the driver reads of ``make_test_derivator(4, snap=0.1)``
    (jumps at 2, 4, 6 and 8): inside one jump interval, ending or starting
    on a jump, across jumps, unsorted, 2-d, 0-d and empty."""
    rng = np.random.default_rng(11)
    inside = np.linspace(2.0, 4.0, 41)[1:-1]
    across = np.sort(np.concatenate((np.linspace(0.1, 9.9, 99),
                                     [2.0, 4.0, 6.0, 8.0, 0.0, -0.0])))
    return [inside, rng.permutation(inside), np.append(inside, 4.0),
            np.insert(inside, 0, 2.0), rng.permutation(np.append(inside, 4.0)),
            across, rng.permutation(across), across.reshape(7, 15),
            np.array(3.0), np.array(4.0), np.array(-0.0), 6.0,
            np.array([]), np.empty((0, 3))]


def per_point_value(g, ts, side):
    """``g`` by its definition, one point at a time: ``continuous_value(t) +
    _prefix[searchsorted(jump_times, t, side)]``."""
    out = [g.continuous_value(t)
           + g._prefix[np.searchsorted(g.jump_times, t, side)]
           for t in np.ravel(ts).tolist()]
    return np.array(out, dtype=float).reshape(np.shape(ts))


@pytest.mark.parametrize("g", [make_test_derivator(4, snap=0.1),
                               make_silkworm_derivator(10.0),
                               identity_derivator(10.0)],
                         ids=["ramps", "silkworm", "identity"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_reads_keep_the_bits_of_the_per_point_definition(g, side):
    # an argument inside one jump interval takes one float of jump mass,
    # others one entry per point; both are the per-point bits
    read = g.value if side == "left" else g.right_value
    for ts in read_cases():
        out = read(ts)
        assert isinstance(out, float) == (np.ndim(ts) == 0)
        assert np.shape(out) == np.shape(ts)
        assert np.array_equal(bits(out), bits(per_point_value(g, ts, side)))


def test_a_negative_zero_part_reads_as_zero_without_jumps():
    # g^C(t) - g^C(0) is -0.0 past t = 1; adding the no-jump mass 0.0 (one
    # float, or one per point) turns it +0.0, as every read did before
    g = Derivator(2.0, lambda t: np.copysign(0.0, 1.0 - np.asarray(t)))
    ts = np.linspace(0.0, 1.9, 20)
    assert bits(g.continuous_value(1.5)) == bits(-0.0)
    for read in (g.value, g.right_value):
        for arg in (ts, ts[::-1], ts[ts > 1.0], 1.5):
            assert np.all(bits(read(arg)) == bits(0.0))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 1.0))
# a + 1.0 * (b - a) rounds one ulp above b here
@example(1.587960687018485, 6.461490573246038, 1.0)
def test_measure_additivity(a, b, frac):
    g = make_silkworm_derivator(10.0)
    a, b = min(a, b), max(a, b)
    m = min(a + frac * (b - a), b)
    total = g.measure(a, b)
    assert total == pytest.approx(g.measure(a, m) + g.measure(m, b), abs=1e-9)
    _, gaps = g.jumps_in(a, b)
    assert total >= gaps.sum() - 1e-12


def test_jumps_in_covers_the_closed_domain(silkworm):
    times, gaps = silkworm.jumps_in(0.0, 10.0)
    assert times.tolist() == [4.0, 5.0, 9.0] and gaps.tolist() == [1.0] * 3
    assert silkworm.jumps_in(4.0, 5.0)[0].tolist() == [4.0]
    assert silkworm.jumps_in(4.0, 4.0)[0].size == 0


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, 11.0), (2.0, 1.0),
                                  (math.nan, 1.0), (0.0, math.nan)])
def test_jumps_in_rejects_ends_outside_the_domain(silkworm, a, b):
    with pytest.raises(ValueError, match="0 <= a <= b <= 10.0"):
        silkworm.jumps_in(a, b)


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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            make_phi(alpha)

    @pytest.mark.parametrize("alpha", [1e307, 1e308, np.finfo(float).max])
    def test_a_huge_alpha_steps_without_a_warning(self, alpha):
        # -2*alpha*tan overflows to -inf or inf, whose ramp values are the
        # exact limits 1 and 0, and at the midpoint -0 * alpha stays -0
        # (a product with -2*alpha, infinite from 1e308 on, gave NaN there);
        # RuntimeWarnings are errors here
        xs = np.linspace(0.0, 1.0, 11)
        assert list(make_phi(alpha)(xs)) == [0.0] * 5 + [0.5] + [1.0] * 5

    @pytest.mark.parametrize("alpha", [1.0, 3.3, 4.0, 6.0])
    def test_bit_equal_to_the_masked_expression(self, alpha):
        edges = [0.0, 1.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0),
                 np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), math.inf,
                 -math.inf, math.nan, -0.0]
        rng = np.random.default_rng(11)
        xs = np.concatenate((edges, rng.uniform(-0.5, 1.5, 5000),
                             rng.uniform(0.0, 1.0, 5000)))
        phi = make_phi(alpha)
        expected = masked_phi(alpha, xs).view(np.uint64)
        assert np.array_equal(phi(xs).view(np.uint64), expected)
        scalars = np.array([phi(float(x)) for x in edges])
        assert np.array_equal(scalars.view(np.uint64), expected[:len(edges)])


def masked_phi(alpha, x):
    """The ramp written with boolean masks: the reference for ``make_phi``'s
    one path and for the test ramp's sorted path."""
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    inner = (x > 0.0) & (x < 1.0)
    z = -2.0 * alpha * np.tan(0.5 * np.pi * (2.0 * x[inner] - 1.0))
    with np.errstate(over="ignore"):
        out[inner] = 1.0 / (1.0 + np.exp(z))
    return out


def masked_ramps(alpha, t):
    """The test driver's continuous part by boolean masks."""
    k = np.clip(np.floor(t * 0.25), 0.0, 2.0)
    return k + masked_phi(alpha, (t - 4.0 * k) * 0.5)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestSortedRuns:
    """The test ramp cuts a sorted 1-d array once, at the ramps' starts and
    ends; the values are the bits of the masked expression."""

    ALPHAS = [1.0, 3.3, 4.0, 6.0]

    @staticmethod
    def edges(ends):
        ends = np.asarray(ends, dtype=float)
        return np.concatenate((ends, np.nextafter(ends, -np.inf),
                               np.nextafter(ends, np.inf),
                               [math.inf, -math.inf, 0.0, -0.0]))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_phi_sorted_path(self, alpha):
        rng = np.random.default_rng(3)
        xs = np.sort(np.concatenate((self.edges([0.0, 1.0]),
                                     rng.uniform(-0.5, 1.5, 10000),
                                     rng.uniform(0.0, 1.0, 10000))))
        assert derivator._is_sorted(xs)
        phi = make_phi(alpha)
        assert np.array_equal(bits(phi(xs)), bits(masked_phi(alpha, xs)))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ramps_sorted_path(self, alpha):
        rng = np.random.default_rng(4)
        ts = np.sort(np.concatenate((
            self.edges([0.0, 2.0, 4.0, 6.0, 8.0, 10.0]),
            rng.uniform(-1.0, 11.0, 20000))))
        cont = make_test_derivator(0, alpha=alpha).continuous_part
        expected = bits(masked_ramps(alpha, ts))
        assert np.array_equal(bits(cont(ts)), expected)
        # single runs, and runs that start or end on a cut
        for lo, hi in ((0.5, 3.9), (4.0, 8.0), (8.0, 10.0), (-1.0, 4.0)):
            part = ts[(ts >= lo) & (ts <= hi)]
            assert np.array_equal(bits(cont(part)),
                                  bits(masked_ramps(alpha, part)))
        # runs wholly inside a flat stretch or inside one ramp, and past the
        # last ramp on a driver that reaches beyond it
        late = np.sort(np.concatenate((ts, rng.uniform(11.0, 13.0, 2000),
                                       [13.0])))
        cont13 = make_test_derivator(0, alpha=alpha, T=13.0).continuous_part
        for lo, hi, points, part_of in ((2.5, 3.5, ts, cont),
                                        (6.5, 7.5, ts, cont),
                                        (4.1, 5.9, ts, cont),
                                        (10.0, 13.0, late, cont13)):
            part = points[(points >= lo) & (points <= hi)]
            assert derivator._is_sorted(part)
            assert np.array_equal(bits(part_of(part)),
                                  bits(masked_ramps(alpha, part)))

    def test_repeated_values(self):
        # measure_constants grids repeat their nodes
        ts = np.repeat(np.linspace(-0.5, 10.5, 301), 3)
        cont = make_test_derivator(0, alpha=3.3).continuous_part
        assert np.array_equal(bits(cont(ts)), bits(masked_ramps(3.3, ts)))
        xs = ts * 0.1
        assert np.array_equal(bits(make_phi(3.3)(xs)),
                              bits(masked_phi(3.3, xs)))

    def test_nan_takes_the_mask_path(self):
        ts = np.linspace(0.0, 10.0, 101)
        ts[37] = math.nan
        assert not derivator._is_sorted(ts)
        assert not derivator._is_sorted(np.array([0.0, math.nan]))
        out = make_test_derivator(0, alpha=4.0).continuous_part(ts)
        assert math.isnan(out[37])
        keep = np.arange(ts.size) != 37
        assert np.array_equal(bits(out[keep]),
                              bits(masked_ramps(4.0, ts)[keep]))
        assert np.array_equal(bits(make_phi(4.0)(ts * 0.1)),
                              bits(masked_phi(4.0, ts * 0.1)))

    def test_two_d_and_scalars(self):
        ts = np.sort(np.random.default_rng(5).uniform(-1.0, 11.0, 600))
        grid = ts.reshape(20, 30)
        assert not derivator._is_sorted(grid)
        cont = make_test_derivator(0, alpha=4.0).continuous_part
        phi = make_phi(4.0)
        assert np.array_equal(bits(cont(grid)), bits(masked_ramps(4.0, grid)))
        assert np.array_equal(bits(phi(grid * 0.1)),
                              bits(masked_phi(4.0, grid * 0.1)))
        for t in self.edges([0.0, 2.0, 4.0, 8.0, 10.0]).tolist() + [3.3]:
            assert bits(cont(t)) == bits(masked_ramps(4.0, np.array(t)))
            assert bits(phi(t / 10)) == bits(masked_phi(4.0, np.array(t / 10)))


def grid_block(lo, hi, m, start, stop):
    """Points ``start`` to ``stop`` of the ``m``-step grid on ``[lo, hi]``."""
    return quadrature._grid_points(lo, hi, m,
                                   np.arange(start, stop + 1, dtype=float))


class TestGridBlock:
    """``_grid_points`` builds ``linspace`` points without the whole grid."""

    @staticmethod
    def check(lo, hi, m, start, stop):
        block = grid_block(lo, hi, m, start, stop)
        expected = np.linspace(lo, hi, m + 1)[start:stop + 1]
        assert np.array_equal(bits(block), bits(expected))

    def test_every_block_of_a_long_grid(self):
        lo, hi, m = 0.0, 10.0, 10 ** 6
        full = np.linspace(lo, hi, m + 1)
        size = quadrature._ORACLE_BLOCK
        for start in range(0, m, size):
            stop = min(start + size, m)
            block = grid_block(lo, hi, m, start, stop)
            assert np.array_equal(bits(block), bits(full[start:stop + 1]))

    def test_block_ends_are_the_blocks_first_and_last_points(self):
        # the oracle reads g^C on these indices before it builds a block
        size = quadrature._ORACLE_BLOCK
        for lo, hi, m in ((0.0, 10.0, 10 ** 6), (0.3, 9.7, 3 * size),
                          (1e-310, 1e-310 + 3e-323, 16), (2.5, 7.25, 1)):
            starts = list(range(0, m, size))
            for idx in (np.array(starts + [m], dtype=float),
                        np.array(starts + [m])):
                ends = quadrature._grid_points(lo, hi, m, idx)
                expected = np.linspace(lo, hi, m + 1)[starts + [m]]
                assert np.array_equal(bits(ends), bits(expected))
                for j, start in enumerate(starts):
                    block = grid_block(lo, hi, m, start,
                                       min(start + size, m))
                    assert bits(block[0]) == bits(ends[j])
                    assert bits(block[-1]) == bits(ends[j + 1])

    def test_random_pieces(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lo = float(rng.uniform(0.0, 9.0))
            hi = lo + 10.0 ** float(rng.uniform(-12.0, 1.0))
            m = int(rng.integers(1, 5000))
            start = int(rng.integers(0, m))
            stop = int(rng.integers(start + 1, m + 1))
            self.check(lo, hi, m, start, stop)
            self.check(np.float64(lo), np.float64(hi), m, 0, m)

    def test_one_subinterval(self):
        self.check(2.5, 7.25, 1, 0, 1)
        self.check(0.0, 5e-324, 1, 0, 1)

    def test_subnormal_width_takes_numpy_zero_step_branch(self):
        lo, hi, m = 0.0, 3 * 5e-324, 7
        assert (hi - lo) / m == 0.0
        # the inner points are not all ``lo``: numpy scales before it rounds
        assert len(set(np.linspace(lo, hi, m + 1).tolist())) > 2
        for start, stop in ((0, 7), (0, 3), (3, 7), (2, 5)):
            self.check(lo, hi, m, start, stop)
        self.check(1e-310, 1e-310 + 3e-323, 16, 0, 16)


class CountingPart:
    """Continuous part that counts the points it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        self.points += arr.size
        return self.fn(arr)


class TestContinuousMemo:
    @staticmethod
    def counted(fn=lambda t: t + 0.25 * np.sin(t), T=3.0):
        part = CountingPart(fn)
        g = Derivator(T, part, [1.0], [0.5])
        part.points = 0
        return g, part

    def test_one_evaluation_serves_all_three_methods(self):
        g, part = self.counted()
        ts = np.linspace(0.0, 2.5, 101)
        v = g.value(ts)
        r = g.right_value(ts)
        c = g.continuous_value(ts)
        assert part.points == ts.size
        fresh = ts + 0.25 * np.sin(ts)
        assert np.array_equal(c, fresh)
        assert np.array_equal(v, fresh + np.where(ts > 1.0, 0.5, 0.0))
        assert np.array_equal(r, fresh + np.where(ts >= 1.0, 0.5, 0.0))

    def test_argument_changed_in_place_gets_fresh_values(self):
        g, part = self.counted()
        ts = np.linspace(0.0, 2.5, 101)
        g.continuous_value(ts)
        ts[50] = 0.3
        out = g.continuous_value(ts)
        assert part.points == 2 * ts.size
        assert np.array_equal(out, ts + 0.25 * np.sin(ts))

    def test_array_differing_only_in_its_last_point_is_a_miss(self):
        # the first point agrees, so only the full compare tells them apart
        g, part = self.counted()
        ts = np.linspace(0.0, 2.5, 101)
        g.continuous_value(ts)
        moved = ts.copy()
        moved[-1] = np.nextafter(2.5, 0.0)
        out = g.continuous_value(moved)
        assert part.points == 2 * ts.size
        assert np.array_equal(out, moved + 0.25 * np.sin(moved))

    def test_signed_zeros_do_not_share_an_entry(self):
        g, _ = self.counted(lambda t: np.copysign(1.0, t) + t)
        assert g.continuous_value(np.zeros(3)).tolist() == [0.0] * 3
        assert g.continuous_value(-np.zeros(3)).tolist() == [-2.0] * 3

    def test_returned_arrays_are_fresh(self):
        g, _ = self.counted()
        ts = np.linspace(0.0, 2.5, 11)
        first = g.continuous_value(ts)
        first[:] = 99.0
        assert np.array_equal(g.continuous_value(ts), ts + 0.25 * np.sin(ts))
        assert g.continuous_value(ts) is not g.continuous_value(ts)

    def test_identity_part_is_not_aliased(self):
        g = identity_derivator(2.0)
        ts = np.linspace(0.0, 1.5, 11)
        outs = [g.value(ts), g.right_value(ts), g.continuous_value(ts)]
        assert not any(np.shares_memory(out, ts) for out in outs)
        # a remembered view of ``ts`` would follow it when it changes
        same = ts.copy()
        ts *= 0.5
        assert np.array_equal(g.continuous_value(same), same)

    def test_arrays_over_one_oracle_block_are_not_remembered(self):
        g, part = self.counted()
        capped = np.linspace(0.0, 2.5, derivator._ORACLE_BLOCK + 1)
        g.value(capped)
        g.continuous_value(capped)
        assert part.points == capped.size
        part.points = 0
        big = np.linspace(0.0, 2.5, derivator._ORACLE_BLOCK + 2)
        g.value(big)
        g.continuous_value(big)
        assert part.points == 2 * big.size

    def test_scalars_are_not_remembered(self):
        g, part = self.counted()
        g.value(0.5)
        g.continuous_value(0.5)
        assert part.points == 2

    def test_threads_sharing_a_driver_get_their_own_values(self):
        g, _ = self.counted()
        grids = [np.linspace(0.0, 2.5, 50 + k) for k in range(4)]

        def check(ts):
            fresh = ts + 0.25 * np.sin(ts)
            left = fresh + np.where(ts > 1.0, 0.5, 0.0)
            for _ in range(200):
                v = g.value(ts)
                c = g.continuous_value(ts)
                if not (np.array_equal(c, fresh) and np.array_equal(v, left)):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert all(pool.map(check, grids, timeout=60))
        finally:
            sys.setswitchinterval(interval)


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
        {"kind": "test", "snap": "x"},
        {"kind": "custom", "T": 2.0, "jumps": [{"t": 1.0}]},
    ])
    def test_bad_descriptors(self, desc):
        with pytest.raises(ValueError):
            from_descriptor(desc)

    @pytest.mark.parametrize("desc, field", [
        ({"kind": "test", "snap": "x"}, "'snap'"),
        ({"kind": "test", "num_jumps": "two"}, "'num_jumps'"),
        ({"kind": "test", "num_jumps": math.inf}, "'num_jumps'"),
        ({"kind": "test", "alpha": [4]}, "'alpha'"),
        ({"kind": "identity", "T": "ten"}, "'T'"),
        ({"kind": "custom", "T": 2.0, "jumps": [{"t": "x", "gap": 1.0}]},
         "'t'"),
        ({"kind": "custom", "T": 2.0, "jumps": [{"t": 1.0}]}, "'gap'"),
        ({"kind": "custom", "T": 2.0, "jumps": {"t": 1.0}}, "'jumps'"),
        ({"kind": "test", "num_jumps": 2.7}, "'num_jumps'"),
        ({"kind": "test", "num_jumps": True}, "'num_jumps'"),
        ({"kind": "test", "num_jumps": False}, "'num_jumps'"),
        ({"kind": "test", "alpha": True}, "'alpha'"),
        ({"kind": "test", "snap": True}, "'snap'"),
        ({"kind": "identity", "T": True}, "'T'"),
        ({"kind": "custom", "T": 2.0, "jumps": [{"t": True, "gap": 1.0}]},
         "'t'"),
        ({"kind": "custom", "T": 2.0, "jumps": [{"t": 1.0, "gap": True}]},
         "'gap'"),
    ])
    def test_bad_field_is_named(self, desc, field):
        with pytest.raises(ValueError, match=field):
            from_descriptor(desc)

    def test_integral_float_count_passes(self):
        g = from_descriptor({"kind": "test", "num_jumps": 2.0})
        assert g.n_jumps == 2

    def test_null_snap_means_no_snap(self):
        g = from_descriptor({"kind": "test", "num_jumps": 2, "snap": None})
        expected = make_test_derivator(2).jump_times
        assert g.jump_times.tolist() == expected.tolist()
