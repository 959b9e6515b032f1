"""The summary of ``tools/bench_pairs.py`` on canned ``bench/run.py`` lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run_lines(wall, setup=0.13, rss=50.0, err=0.0871, failed=0):
    """The standard output of one untraced ``bench/run.py`` run."""
    metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"),
               "peak_rss_mb": (rss, "MB"), "max_err": (err, "1")}
    last = {"correct": failed == 0, "attempted": 21, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    return "\n".join([
        "workload=quadrature seed=1 trace=0 children=20 size=full",
        f"  wall_s                             {wall:.6g} s  (quartiles "
        f"{wall:.6g} .. {wall:.6g}, n=20)",
        "  record: .bench_out/results/quadrature-seed1-trace0-0123abcd.json",
        json.dumps(last),
    ]) + "\n"


def pair(parent, change, digests=("a", "a")):
    sides = {}
    for side, lines, digest in zip(("parent", "change"), (parent, change),
                                   digests):
        run = bench_pairs.parse_run(lines)
        assert run.pop("record") == (
            ".bench_out/results/quadrature-seed1-trace0-0123abcd.json")
        sides[side] = run | {"digest": digest}
    return sides


def test_parse_run_reads_the_last_line_and_the_record_path():
    run = bench_pairs.parse_run(run_lines(0.8, rss=49.5, failed=1))
    assert run == {"correct": False, "attempted": 21, "failed": 1,
                   "record": ".bench_out/results/quadrature-seed1-trace0-"
                             "0123abcd.json",
                   "wall_s": 0.8, "setup_s": 0.13, "peak_rss_mb": 49.5,
                   "max_err": 0.0871}


def test_parse_run_rejects_output_without_a_result_line():
    with pytest.raises(ValueError, match="not JSON"):
        bench_pairs.parse_run("workload=quadrature seed=1\n  FAILED x\n")
    with pytest.raises(ValueError, match="printed nothing"):
        bench_pairs.parse_run("")


def test_parse_run_rejects_output_without_a_record_line():
    # the digest is read from the record, so a run without one used to end
    # in a TypeError from the path join that main does not catch
    lines = [ln for ln in run_lines(0.8).splitlines()
             if "record:" not in ln]
    with pytest.raises(ValueError, match="no 'record:' line"):
        bench_pairs.parse_run("\n".join(lines) + "\n")


def test_main_reports_a_run_without_a_record_line(tmp_path, monkeypatch,
                                                    capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    no_record = "\n".join(ln for ln in run_lines(0.8).splitlines()
                          if "record:" not in ln)

    class Done:
        returncode = 0
        stdout = no_record
        stderr = ""

    monkeypatch.setattr(bench_pairs, "describe_checkout",
                        lambda checkout: {"commit": None, "src_lines": 1,
                                          "src_sha256": "0"})
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: Done())
    code = bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload",
                             "quadrature", "--pairs", "1", "--held-out", "0",
                             "--seconds", "1",
                             "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the run printed no 'record:' line\n")
    assert not (tmp_path / "out.json").exists()


def test_summary_medians_quartiles_and_wins():
    walls = [(0.90, 0.80), (0.86, 0.79), (0.88, 0.81), (0.95, 0.97),
             (0.84, 0.84)]
    pairs = [pair(run_lines(p), run_lines(c, setup=0.12)) for p, c in walls]
    summary = bench_pairs.summarize(pairs)
    assert summary["pairs"] == 5
    assert summary["digests_identical"]
    assert summary["failed_runs"] == {"parent": 0, "change": 0}
    wall = summary["wall_s"]
    # inclusive quartiles of 0.84, 0.86, 0.88, 0.90, 0.95
    assert wall["parent_median"] == 0.88
    assert (wall["parent_q1"], wall["parent_q3"]) == (0.86, 0.90)
    assert wall["parent_iqr"] == pytest.approx(0.04)
    assert wall["change_median"] == 0.81
    # the last pair is a tie and counts for neither side
    assert (wall["change_better_pairs"], wall["parent_better_pairs"]) == (3, 1)
    setup = summary["setup_s"]
    assert (setup["change_better_pairs"], setup["parent_better_pairs"]) == (
        5, 0)
    assert summary["max_err"]["change_better_pairs"] == 0
    assert summary["max_err"]["parent_iqr"] == 0.0


def test_summary_flags_other_bytes_and_failed_runs():
    pairs = [pair(run_lines(0.9), run_lines(0.8)),
             pair(run_lines(0.9), run_lines(0.8, failed=2), ("a", "b"))]
    summary = bench_pairs.summarize(pairs)
    assert not summary["digests_identical"]
    assert summary["failed_runs"] == {"parent": 0, "change": 1}


def test_seeds_end_with_the_held_out_ones():
    assert bench_pairs._seeds(5, 2, 301) == [301, 302, 303, 1001, 1002]
    assert bench_pairs._seeds(2, 0, 7) == [7, 8]


def test_main_prints_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    pairs = [pair(run_lines(0.9), run_lines(0.8, rss=49.0)),
             pair(run_lines(0.7), run_lines(0.75, setup=0.2))]
    lines = {"parent": 2338, "change": 2357}
    monkeypatch.setattr(bench_pairs, "describe_checkout",
                        lambda checkout: {
                            "commit": None,
                            "src_lines": lines[os.path.basename(checkout)],
                            "src_sha256": "0"})
    monkeypatch.setattr(bench_pairs, "measure", lambda args, log: {
        "pairs": pairs, "summary": bench_pairs.summarize(pairs),
        "environment": {}})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload",
                             "quadrature", "--pairs", "2", "--seconds", "1",
                             "--out", str(out)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    summary = json.loads(out.read_text())["workloads"]["quadrature"][
        "summary"]
    assert last["workload"] == "quadrature" and last["pairs"] == 2
    for name in ("wall_s", "setup_s", "peak_rss_mb", "max_err"):
        assert last[name] == summary[name]
    assert last["peak_rss_mb"]["change_better_pairs"] == 1
    assert last["setup_s"]["parent_better_pairs"] == 1
    # each side's src/ line count, as the record's sides hold it
    assert last["src_lines"] == lines
    sides = json.loads(out.read_text())["sides"]
    assert {side: sides[side]["src_lines"] for side in lines} == lines


def test_checkouts_differ_by_their_sources_not_their_line_counts(tmp_path):
    sides = []
    for body in ("x = 1\n", "x = 2\n"):
        src = tmp_path / body[4] / "src" / "pkg"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(body)
        (src / "notes.txt").write_text("not a source\n")
        sides.append(bench_pairs.describe_checkout(str(tmp_path / body[4])))
    assert [s["src_lines"] for s in sides] == [1, 1]
    assert sides[0]["src_sha256"] != sides[1]["src_sha256"]


def test_main_appends_a_swapped_roles_run(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change", "other"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    pairs = [pair(run_lines(0.8), run_lines(0.9))]
    monkeypatch.setattr(bench_pairs, "describe_checkout",
                        lambda checkout: {
                            "commit": None, "src_lines": 1,
                            "src_sha256": os.path.basename(checkout)})
    monkeypatch.setattr(bench_pairs, "measure", lambda args, log: {
        "pairs": pairs, "summary": bench_pairs.summarize(pairs),
        "environment": {}})
    out = tmp_path / "BENCH.json"

    def main(first, second, workload):
        return bench_pairs.main([str(tmp_path / first), str(tmp_path / second),
                                 "--workload", workload, "--pairs", "1",
                                 "--held-out", "0", "--seconds", "1",
                                 "--out", str(out)])

    assert main("parent", "change", "linear") == 0
    sides = json.loads(out.read_text())["sides"]
    assert main("change", "parent", "linear") == 0
    assert main("change", "parent", "bounds") == 0
    record = json.loads(out.read_text())
    assert record["sides"] == sides and list(record["workloads"]) == ["linear"]
    swapped = record["swapped_roles"]
    assert swapped["sides"] == {"parent": sides["change"],
                                "change": sides["parent"]}
    assert swapped["note"] == bench_pairs.SWAPPED_NOTE
    assert list(swapped["workloads"]) == ["linear", "bounds"]
    assert swapped["workloads"]["linear"]["pairs"] == pairs
    # a record of other trees is still refused, and left as it was
    capsys.readouterr()
    assert main("parent", "other", "linear") == 2
    assert capsys.readouterr().err == (
        f"error: {out} holds a record of other source trees\n")
    assert json.loads(out.read_text()) == record
