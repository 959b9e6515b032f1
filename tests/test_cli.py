import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpu_target import per_target
import stieltjes_ode
from stieltjes_ode import cli, solver
from stieltjes_ode.cli import main

PACKAGE_ROOT = Path(stieltjes_ode.__file__).resolve().parents[1]


def run(args):
    return main(args)


def run_traced(args):
    """Exit code and peak traced allocation (bytes) of one CLI call."""
    tracemalloc.start()
    try:
        code = main(args)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLinearConvergence:
    def test_small_grid_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run(["linear-convergence", "--jumps", "2", "--h", "1e-1,1e-2",
                    "--d", "-0.5", "--x0", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "num_jumps,h,max_e_star,max_e,max_e_plus"
        assert len(lines) == 3
        # one CSV row per (jumps, h) cell
        assert lines[1].startswith("2,1.0000e-01,")

    def test_json_output(self, tmp_path):
        out = tmp_path / "table.json"
        code = run(["linear-convergence", "--jumps", "2", "--h", "1e-1",
                    "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["num_jumps"] == 2
        assert not payload[0]["failed"]

    def test_incompatible_step_exits_3(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run(["linear-convergence", "--jumps", "2", "--h", "0.3",
                    "--out", str(out)])
        assert code == 3

    def test_grid_check_builds_no_partition(self, tmp_path, monkeypatch):
        # the check before the run reads the nodes only; each cell builds
        # its partition once, for its solve
        built = []
        from_nodes = solver.Partition.from_nodes.__func__

        def counted(cls, g, nodes):
            built.append((g.n_jumps, nodes.size))
            return from_nodes(cls, g, nodes)

        monkeypatch.setattr(solver.Partition, "from_nodes",
                            classmethod(counted))
        code = run(["linear-convergence", "--jumps", "2,4", "--h", "1e-1,1e-2",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert built == [(2, 101), (2, 1001), (4, 101), (4, 1001)]

    def test_mismatched_grid_exits_3_before_any_partition(
            self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("the run went past the grid check")

        monkeypatch.setattr(solver.Partition, "from_nodes", classmethod(never))
        monkeypatch.setattr(solver, "solve", never)
        monkeypatch.setattr(cli.analysis, "solve", never)
        out = tmp_path / "t.csv"
        code = run(["linear-convergence", "--jumps", "2,4", "--h", "1e-1,0.3",
                    "--out", str(out)])
        assert code == 3
        assert "not an integer number of steps 0.3" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_list_exits_2(self, tmp_path):
        code = run(["linear-convergence", "--h", "abc",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--jumps", "2,2"], "jump-count 2 "),
        (["--jumps", "2,4,02"], "jump-count 2 "),
        (["--h", "0.1,0.1"], "step 0.1 "),
        (["--h", "1e-1,1e-2,0.1"], "step 0.1 ")])
    def test_repeated_list_value_exits_2_before_any_driver(
            self, flags, named, tmp_path, monkeypatch, capsys):
        # compared as parsed: 02 is 2 and 1e-1 is 0.1
        def never(*args, **kwargs):
            raise AssertionError("a driver was built")

        monkeypatch.setattr(cli.derivator, "make_test_derivator", never)
        out = tmp_path / "t.csv"
        code = run(["linear-convergence", "--jumps", "2,4", "--h", "1e-1,1e-2",
                    *flags, "--out", str(out)])
        assert code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert len(printed.err.splitlines()) == 1
        assert printed.err.startswith(f"error: {named}is repeated")
        assert not out.exists()

    def test_non_finite_derivator_exits_2(self, tmp_path, capsys):
        desc = '{"kind": "custom", "jumps": [{"t": 2.0, "gap": Infinity}]}'
        code = run(["linear-convergence", "--h", "1e-1", "--derivator", desc,
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "finite" in err

    def test_overflowing_cell_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run(["linear-convergence", "--d", "-300", "--jumps", "2",
                    "--h", "1e-1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert "jumps=2" in err and "h=0.1" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--x0", "0"], ["--d", "0"],
                                       ["--h", "1e-1,1e-1"]])
    def test_unfittable_orders_exit_2_without_a_file(self, extra, tmp_path,
                                                     capsys):
        # zero errors or a single distinct step leave no log-log slope
        out = tmp_path / "t.csv"
        code = run(["linear-convergence", "--jumps", "2", "--h", "1e-1,1e-2",
                    *extra, "--out", str(out)])
        assert code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert len(printed.err.splitlines()) == 1
        assert printed.err.startswith("error:")
        assert not out.exists()

    def test_inadmissible_message_has_no_numpy_repr(self, tmp_path, capsys):
        code = run(["linear-convergence", "--d", "5", "--jumps", "2",
                    "--h", "1e-1", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "inadmissible" in err
        assert "np.float64" not in err

    def test_huge_alpha_runs_without_a_warning(self, tmp_path, capsys):
        # -2*alpha overflowed inside the ramp, and 0 * -inf gave NaN: a
        # numpy warning, its source line and then an error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["linear-convergence", "--alpha", "1e308", "--jumps",
                        "2", "--h", "1e-1", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert caught == []
        assert capsys.readouterr().err == ""

    def test_jump_next_to_zero_exits_3(self, tmp_path, capsys):
        desc = '{"kind": "custom", "T": 1, "jumps": [{"t": 1e-12, "gap": 1}]}'
        code = run(["linear-convergence", "--derivator", desc, "--h", "0.1",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "jump at t=1e-12" in capsys.readouterr().err

    def test_custom_derivator_descriptor(self, tmp_path):
        desc = {"kind": "custom", "T": 1.0, "continuous": "identity",
                "jumps": [{"t": 0.5, "gap": 1.0}]}
        out = tmp_path / "table.csv"
        code = run(["linear-convergence", "--derivator", json.dumps(desc),
                    "--h", "1e-1,1e-2", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 3


class TestSilkworm:
    def test_reference_coarse_error(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["silkworm", "--h", "1e-1", "--out", str(out)])
        assert code == 0
        last = out.read_text().strip().split("\n")[-1]
        assert last.startswith("max,,,")
        max_err = float(last.split(",")[-1])
        assert max_err == pytest.approx(2.3724e-01, rel=1e-3)

    def test_zero_population_run(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["silkworm", "--h", "1e-1", "--lambda", "0", "--x0", "0",
                    "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:-1]
        numeric = np.array([float(r.split(",")[1]) for r in rows])
        errors = np.array([float(r.split(",")[3]) for r in rows])
        assert np.all(numeric == 0.0)
        assert np.all(errors == 0.0)

    def test_incompatible_step_exits_3(self, tmp_path):
        code = run(["silkworm", "--h", "0.3", "--out", str(tmp_path / "s.csv")])
        assert code == 3

    def test_diverging_solve_exits_2(self, tmp_path, capsys):
        code = run(["silkworm", "--c", "1e5", "--h", "0.1",
                    "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "non-finite" in err

    def test_unstable_step_exits_2(self, tmp_path, capsys):
        # z = c*dg = 436 on the steepest step: the state grows like
        # (1 - z + z^2/2)^k but stays finite
        code = run(["silkworm", "--c", "1e3", "--h", "0.1",
                    "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "z = c*dg = 435.9" in err
        assert not (tmp_path / "s.csv").exists()

    def test_unstable_step_that_overflows_exits_2_before_the_solve(
            self, tmp_path, capsys):
        # z = 141 at the default step: the state used to overflow at node
        # 562 and the run ended with the solver's message instead
        code = run(["silkworm", "--c", "1000",
                    "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the step is unstable for this decay "
                              "rate: z = c*dg = 141.1 > 2")
        assert not (tmp_path / "s.csv").exists()

    def test_overflowing_hatch_exits_2_from_the_solve(self, tmp_path,
                                                      capsys):
        # a stable step whose hatch overflows the float range still ends in
        # the solver's own message
        code = run(["silkworm", "--lambda", "1e308",
                    "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: state became non-finite stepping to node 501 "
                       "(t=5.01); aborting\n")

    def test_stable_step_near_the_limit_runs(self, tmp_path):
        # z = 4 * 0.436 = 1.74, below the limit 2
        code = run(["silkworm", "--c", "4", "--h", "0.1",
                    "--out", str(tmp_path / "s.csv")])
        assert code == 0

    def test_negative_step_exits_2(self, tmp_path):
        code = run(["silkworm", "--h", "-1", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        # 1e10 nodes; this used to end in a 74.5 GiB allocation error
        code, peak = run_traced(["silkworm", "--h", "1e-9",
                                 "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert peak < 2 ** 20
        assert not (tmp_path / "s.csv").exists()


def _series_reference(t, x):
    return "".join("%.6f,%.10e\n" % pair
                   for pair in zip(t.tolist(), x.tolist())).encode()


_POWERS = np.array([10.0 ** k for k in range(-30, 31)])
_DECIMAL_TIES = np.array([9.99999999995, 1.00000000005, 2.50000000015e-7,
                          4.00000000025e12, 0.0000005, 1.2345675, 9.9999995,
                          99999.9999995])
EDGE_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.inf, -np.inf,
     np.nan, 100000000005.0, 100000000015.0, 0.0078125, -0.0078125,
     6.8e4, np.nextafter(6.8e4, 0.0), np.nextafter(6.8e4, np.inf), 6.9e4,
     1e5, 1e300, -1e-9],
    _POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf),
    _DECIMAL_TIES, np.nextafter(_DECIMAL_TIES, 0.0),
    np.nextafter(_DECIMAL_TIES, np.inf)])


class TestSeriesFormat:
    """The silkworm series is formatted in numpy passes; the bytes must be
    those of '%.6f' for the time column and '%.10e' for the others."""

    def test_edge_values(self):
        for x in (EDGE_VALUES, -EDGE_VALUES):
            assert cli._series_rows(x, x) == _series_reference(x, x)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1))
    def test_matches_percent_formatting(self, values):
        x = np.array(values)
        assert cli._series_rows(x, x) == _series_reference(x, x)

    def test_random_magnitudes_and_bit_patterns(self):
        rng = np.random.default_rng(5)
        magnitudes = 10.0 ** rng.uniform(-20.0, 20.0, 20000)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float)
        times = rng.uniform(0.0, 7e4, 20000)
        for x in (magnitudes, -magnitudes, bits, times):
            assert cli._series_rows(x, x) == _series_reference(x, x)


class TestQuadratureCheck:
    def test_single_case_single_row(self, tmp_path):
        out = tmp_path / "q.csv"
        code = run(["quadrature-check", "--cases", "1", "--n-oracle", "10000",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# seed=")
        assert lines[1] == "case,rule,value,oracle,bound,pass"
        assert len(lines) == 3

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run(["quadrature-check", "--cases", "4", "--n-oracle",
                        "10000", "--seed", "7", "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_reaches_the_header(self, tmp_path):
        out_default = tmp_path / "default.csv"
        out_flag = tmp_path / "flag.csv"
        assert run(["quadrature-check", "--cases", "2", "--n-oracle", "10000",
                    "--out", str(out_default)]) == 0
        assert f"# seed={cli.DEFAULT_SEED}" in out_default.read_text()
        assert run(["quadrature-check", "--cases", "2", "--n-oracle", "10000",
                    "--seed", "5", "--out", str(out_flag)]) == 0
        assert "# seed=5" in out_flag.read_text()

    def test_bad_case_count_exits_2(self, tmp_path):
        assert run(["quadrature-check", "--cases", "0",
                    "--out", str(tmp_path / "q.csv")]) == 2

    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, capsys):
        # numpy's own message named no argument
        code = run(["quadrature-check", "--seed", "-1", "--cases", "1",
                    "--n-oracle", "10", "--out", str(tmp_path / "q.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed must be an integer >= 0, got -1\n")

    def test_oversized_oracle_exits_2(self, tmp_path, capsys):
        code, peak = run_traced(["quadrature-check", "--cases", "1",
                                 "--n-oracle", "10000000000",
                                 "--out", str(tmp_path / "q.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert peak < 2 ** 20


class TestBounds:
    def test_bounds_hold_on_benchmark(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run(["bounds", "--jumps", "2", "--h", "1e-2", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "quantity,max_error,bound,holds"
        assert "corrector" in text
        printed = capsys.readouterr().out
        assert "measured constants" in printed

    def test_non_finite_errors_exit_2_with_one_line(self, capsys):
        # the exact solution overflows; the errors are named, not the bound
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["bounds", "--d", "-300"])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite maximum of the corrector error")

    def test_zero_factor_of_g1_named(self, capsys):
        # d = 0 makes the right-hand side flat in the state: K2 = K3 = 0,
        # while H, the steepest slope of the driver's ramps, stays pi
        code = run(["bounds", "--d", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: bound undefined: G1 = 0 (K2=0, K3=0, "
                       "H=3.142)\n")

    @pytest.mark.xfail(strict=True, reason=(
        "theoretical_bounds scales the corrector bound by exp(G4)*(1+G5) and "
        "has no term for the predictor's own one-point residual (resid_pred "
        "of truncation_errors, 7.137e-10 here, the predictor error itself)"))
    def test_predictor_bound_holds_on_a_short_run(self):
        # prints "predictor: max error 7.1369e-10 vs bound 2.1682e-10
        # (VIOLATED)" and exits 1
        assert run(["bounds", "--h", "1e-2", "--T", "0.5", "--jumps", "0"]) == 0

    def test_bound_overflow_exits_2(self, capsys):
        code = run(["bounds", "--h", "0.01", "--jumps", "5", "--d", "-0.82",
                    "--x0", "0.29"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "exceeds the float range" in err

    def test_samples_the_node_grid_once(self, tmp_path, monkeypatch):
        # the reference serves error_report, truncation_errors and
        # measure_constants; only the refinement reads the callable again
        calls = []
        plain = cli.linear.homogeneous_solution

        def counted(d, x0, g, t, from_right=False):
            calls.append(np.array(t, copy=True))
            return plain(d, x0, g, t, from_right)

        monkeypatch.setattr(cli.linear, "homogeneous_solution", counted)
        assert run(["bounds", "--out", str(tmp_path / "b.csv")]) == 0
        nodes = solver.build_partition(
            cli.derivator.make_test_derivator(2, snap=0.1), 1e-2).nodes
        on_nodes = [t for t in calls if np.array_equal(t, nodes)
                    or np.array_equal(t, nodes[:-1])]
        assert len(on_nodes) == 2
        # one refinement block of 21 points per step
        assert [t.size for t in calls[2:]] == [21 * (nodes.size - 1)]


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_missing_subcommand_exits_2():
    assert run([]) == 2


RUNNERS = {"linear-convergence": "run_linear_convergence",
           "silkworm": "run_silkworm",
           "quadrature-check": "run_quadrature_check",
           "bounds": "run_bounds"}


@pytest.mark.parametrize("command", RUNNERS)
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_unwritable_out_fails_before_the_run(command, where, tmp_path,
                                             monkeypatch, capsys):
    def never(args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, RUNNERS[command], never)
    monkeypatch.setattr(cli.analysis, "convergence_table", never)
    out = str(tmp_path / where)
    assert run([command, "--out", out]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error:")
    assert len(printed.err.splitlines()) == 1
    assert repr(out) in printed.err
    assert sorted(tmp_path.iterdir()) == []


MALFORMED = [
    ["silkworm", "--T", "inf"], ["silkworm", "--T", "nan"],
    ["silkworm", "--T", "0"], ["silkworm", "--T", "1e300", "--h", "1e299"],
    ["linear-convergence", "--T", "inf"],
    ["linear-convergence", "--snap", "0"],
    ["linear-convergence", "--snap", "nan"],
    ["linear-convergence", "--snap", "-0.1"],
    ["bounds", "--T", "inf"], ["bounds", "--snap", "0"],
    ["silkworm", "--h", "inf"], ["linear-convergence", "--h", "nan"],
    ["bounds", "--h", "inf"],
    ["silkworm", "--c", "inf"], ["silkworm", "--c", "nan"],
    ["silkworm", "--x0", "nan"], ["linear-convergence", "--x0", "inf"],
    ["bounds", "--x0", "nan"],
    ["linear-convergence", "--alpha", "inf"], ["bounds", "--alpha", "nan"],
    ["bounds", "--d", "nan"], ["bounds", "--d", "inf"],
    ["linear-convergence", "--d", "inf", "--jumps", "2", "--h", "1e-1"],
    # files that cannot be read or written: exit 2, never the 1 of a
    # bound violation
    ["linear-convergence", "--jumps", "2", "--h", "1e-1",
     "--out", "missing/x.csv"],
    ["silkworm", "--h", "1e-1", "--out", "missing/x.csv"],
    ["quadrature-check", "--cases", "1", "--n-oracle", "10",
     "--out", "missing/x.csv"],
    ["bounds", "--out", "missing/x.csv"],
    ["linear-convergence", "--derivator", "."],
    # the flags of the test driver would be ignored next to --derivator,
    # even at their default values
    ["linear-convergence", "--derivator", '{"kind": "test", "num_jumps": 1}',
     "--T", "7", "--snap", "0.3", "--alpha", "9", "--jumps", "5"],
    ["linear-convergence", "--derivator", '{"kind": "test", "num_jumps": 1}',
     "--T", "10"],
    ["linear-convergence", "--derivator", "bad.json"],
    # rejected by name before any jump time is allocated
    ["bounds", "--jumps", "1000000000"],
    ["bounds", "--jumps", "-1"],
    ["linear-convergence", "--h", ","],
    # one distinct step: no order can be fitted
    ["linear-convergence", "--jumps", "2", "--h", "1e-1,1e-1"],
]


@pytest.mark.parametrize("args", MALFORMED, ids=" ".join)
def test_malformed_input_exits_with_one_line(args, tmp_path):
    # a child process with a timeout, so that a hang fails the case instead
    # of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    (tmp_path / "bad.json").write_text('{"kind": "test",')
    done = subprocess.run([sys.executable, "-m", "stieltjes_ode.cli", *args],
                          capture_output=True, text=True, timeout=60,
                          cwd=tmp_path, env=env)
    assert done.returncode in (2, 3)
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error:")
    assert "RuntimeWarning" not in done.stderr
    if "--d" in args:
        assert "damping d" in done.stderr
    if "missing/x.csv" in args or "." in args:
        assert done.returncode == 2
    if "missing/x.csv" in args:
        assert "missing/x.csv" in done.stderr
        assert done.stdout == ""
    if "bad.json" in args:
        assert "file 'bad.json'" in done.stderr
    if "--derivator" in args:
        given = [a for a in ("--T", "--snap", "--alpha", "--jumps") if a in args]
        assert all(a in done.stderr for a in given)
    if "1000000000" in args:
        assert done.returncode == 2
        assert "num_jumps=1000000000" in done.stderr


CUSTOM_DRIVER = json.dumps({"kind": "custom", "T": 2.0, "continuous": "identity",
                            "jumps": [{"t": 0.5, "gap": 1.0},
                                      {"t": 1.3, "gap": 0.25}]})

# sha256 of the output file and of stdout of runs in an empty directory.
# They depend on the platform's floating point and on numpy the way the hex
# pins of the other suites do; a refactor must leave every one as it is.
# Four files differ between numpy's AVX-512 and AVX2 loops (cpu_target.py).
GOLDEN = [
    (["linear-convergence", "--jumps", "2,4", "--h", "1e-1,1e-2,1e-3"],
     "linear_convergence.csv",
     "27440949ea824cd56c8350035aa8375082e13ea97d6b30816b7a3cc5ae42aedc",
     "086e8384bf622282b6d2018321624b69fc54d91d56785d071fc04a3bd40ef314"),
    (["linear-convergence", "--jumps", "2,4", "--h", "1e-1,1e-2,1e-3",
      "--format", "json"],
     "linear_convergence.csv",
     per_target(
         "64b050710ec05226887c4679be62dcce02ed873e3a8842ab5308fad0b7058770",
         "adcb5dc03f66c1d1a3254d98f23f6026f4c13de0d18525bf05a1bfba0d3a1fd4"),
     "086e8384bf622282b6d2018321624b69fc54d91d56785d071fc04a3bd40ef314"),
    (["linear-convergence", "--derivator", CUSTOM_DRIVER,
      "--h", "1e-1,1e-2,1e-3"],
     "linear_convergence.csv",
     "99155c5f3c78faa40f715bd13b27eab576085ecfb14cf67a16610c107092d9fb",
     "f7aa398eca9e4c208544651ef6194f0a367c19ca696c2d6db62871730382e079"),
    (["silkworm", "--h", "1e-2"],
     "silkworm.csv",
     per_target(
         "c14e6a1e529ea6fdb465ce8aa6d5122b91ad8e0d2da3c8d066ea2fc1d1b50765",
         "93be36b5cf364cd220122eb990b3761f07a91a01ac287533e66ac22284617ad9"),
     "4e486a27e4b61e21d121be34e0c2e2bced4ea882edb2fe68deb60aca03cb4efe"),
    (["silkworm", "--h", "5e-4", "--c", "1.7", "--lambda", "1.3", "--x0", "5"],
     "silkworm.csv",
     per_target(
         "ba2ae9c1e2aab87a7338f65f2a24123e0542919626c0f20b45f3dd3a9440eae6",
         "03418e3a1ca73cef3ce6fdf5b5f458d047041b7abbaba01e25941286ba9f970c"),
     "02692713ce300e18a63318217787b9020468482eeaf40d93f0686192e7c66463"),
    # three-digit exponents
    (["silkworm", "--h", "1e-2", "--x0", "1e300"],
     "silkworm.csv",
     per_target(
         "99cefb5060e65139768a721c199534638e4492321f3bcd1dc02461e29614ed1e",
         "1f32c75d71d51f8e3d220c8107a83b97a9a4d41edd5aacffc78b08c945afce5e"),
     "f75112d8a254eae34a38fc5ba62bf71cd4342ca55b977e9f1443057b12a779a8"),
    # subnormal values, formatted by '%'
    (["silkworm", "--h", "1e-2", "--x0", "1e-320"],
     "silkworm.csv",
     "c2ae55b4e3e17be3c96fc12edad3bc705f962e6827e92da3d61b5133e322f2f5",
     "2e6c34e12204b40298039ebf15f76665a3bc6dce2133f0ecb34480954aa9d3c2"),
    # -0.0000000000e+00 cells
    (["silkworm", "--h", "1e-2", "--x0", "-0.0"],
     "silkworm.csv",
     "966e10457695078f1276d1186de2f175e3f10b4560fd2dddc1818c26b8402e71",
     "86aaf790806e4ccf22c42d4a95c75f19b22be241066636195a3ac3c66144efc2"),
    (["quadrature-check", "--cases", "8", "--n-oracle", "20000"],
     "quadrature_check.csv",
     "cdb9721bae4dd8c974f158747e8fcc7e9564570deee6a0dd401873058ce95f95",
     "858b58c70fecf2d732a7260f7acdda2776dcd222705ad097947f93c91d36cc12"),
    (["bounds", "--h", "1e-2", "--out", "bounds.csv"],
     "bounds.csv",
     "5f77c51e68d17f33495c92b742ac5d5c5bdee4e58491c35b39db9a68f4c44ba6",
     "07811c5316097af1b05c01cf3b1594ce5d048869f6ba8a545f6ce8cd35ee1699"),
]


@pytest.mark.parametrize("args, out, file_sha, stdout_sha", GOLDEN,
                         ids=["linear-csv", "linear-json", "linear-custom",
                              "silkworm", "silkworm-bench-step",
                              "silkworm-huge", "silkworm-subnormal",
                              "silkworm-negative-zero", "quadrature-check",
                              "bounds"])
def test_output_bytes_are_pinned(args, out, file_sha, stdout_sha, tmp_path,
                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert [p.name for p in tmp_path.iterdir()] == [out]
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == file_sha
    assert hashlib.sha256(printed.out.encode()).hexdigest() == stdout_sha
