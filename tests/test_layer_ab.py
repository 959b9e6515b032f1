"""``tools/layer_ab.py`` on small grids: the repository against itself, and
against a copy whose ``solve`` writes other output."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "layer_ab.py")
TINY = ["--rounds", "3", "--linear-h", "1e-3", "--silkworm-h", "1e-2"]


def run_tool(parent, change, *extra):
    return subprocess.run([sys.executable, TOOL, parent, change, *TINY,
                           *extra], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_the_repository_against_itself():
    proc = run_tool(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["rounds"] == 3 and summary["digests_identical"]
    assert sorted(summary["cases"]) == ["linear", "silkworm"]
    steps = {"linear": 10_000, "silkworm": 1_000}
    for case, row in summary["cases"].items():
        assert row["steps"] == steps[case] and row["digests_identical"]
        assert row["digests"]["parent"] == row["digests"]["change"]
        assert sorted(row["digests"]["parent"]) == [
            "predictor_values", "right_values", "values"]
        for side in ("parent", "change"):
            assert len(row["times"][side]) == 3
            assert 0.0 <= row[f"{side}_q1"] <= row[f"{side}_median"] \
                <= row[f"{side}_q3"]
        assert row["change_better_rounds"] + row["parent_better_rounds"] <= 3
        assert f"{case}: {steps[case]} steps, digests equal" in proc.stdout


def test_a_side_with_other_output_exits_1(tmp_path):
    src = os.path.join(tmp_path, "src", "stieltjes_ode")
    shutil.copytree(os.path.join(ROOT, "src", "stieltjes_ode"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(src, "solver.py"), "a", encoding="utf-8") as fh:
        fh.write("\n\n_solve = solve\n\n\n"
                 "def solve(spec, part):\n"
                 "    traj = _solve(spec, part)\n"
                 "    traj.values[-1] += 1.0\n"
                 "    return traj\n")
    proc = run_tool(ROOT, str(tmp_path))
    assert proc.returncode == 1
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not summary["digests_identical"]
    for row in summary["cases"].values():
        assert not row["digests_identical"] and "times" not in row
        assert row["digests"]["parent"]["values"] != (
            row["digests"]["change"]["values"])
        assert row["digests"]["parent"]["right_values"] == (
            row["digests"]["change"]["right_values"])
    assert "the sides wrote different values" in proc.stdout


def test_a_checkout_without_the_package_exits_2(tmp_path):
    proc = run_tool(ROOT, str(tmp_path))
    assert proc.returncode == 2
    assert "no src/stieltjes_ode" in proc.stderr
