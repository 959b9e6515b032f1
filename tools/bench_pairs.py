"""Before/after benchmark record from alternating runs in two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N
        --seconds S --out BENCH_<n>.json [--first-seed K] [--held-out H]
        [--description TEXT]

PARENT and CHANGE are two checkouts of the repository.  For each of ``N``
pairs it runs ``bench/run.py --workload W --seed s --seconds S --trace 0``
once in each checkout, alternating which side runs first.  The first
``N - H`` pairs take the seeds ``K, K+1, ..``; the last ``H`` take the
held-out seeds ``1001, 1002, ..`` (``bench/README.md``).  Then it runs one
``--trace 1`` run per side at seed 1 for the per-layer numbers.

The record goes to ``--out``, in one schema for every workload: per-pair
end-to-end metrics and output digests, per-side medians and quartiles, the
number of pairs each side won, and the environment.  Each side is named by
its git commit (when it is a work tree) and a sha256 over its ``src/``
sources.  When ``--out`` already holds a record of the same two source
trees, the workload is added to it, so one file can hold several workloads;
when it holds one of the same two trees in swapped roles, the workload goes
under the record's ``swapped_roles``, so both role orders share one file.
The last line of standard output is the workload's summary as one JSON
object: the pair count, the digest and failure checks, one row per
end-to-end metric and each side's ``src/`` line count.  Exits 1 when a run
fails or the two sides wrote different outputs for the same seed, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the end-to-end metrics of bench/run.py; lower is better for each
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "max_err")
SIDES = ("parent", "change")
HELD_OUT_SEED = 1001
SWAPPED_NOTE = ("the same two checkouts passed to tools/bench_pairs.py in "
                "swapped roles: 'parent' here is the change, 'change' the "
                "parent")
TRACE_SEED = 1

# medians and quartiles as bench/run.py computes them, from its own code
_spec = importlib.util.spec_from_file_location(
    "bench_run", os.path.join(ROOT, "bench", "run.py"))
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
quartiles = _bench_run._quartiles


def parse_run(stdout):
    """Metrics, correctness and record path of one ``bench/run.py`` run,
    from its standard output: the ``record:`` line and the last line, one
    JSON object.  Output without either raises ``ValueError``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"the run's last line is not JSON: {lines[-1]!r}")
    record = next((ln.split("record:", 1)[1].strip() for ln in lines
                   if ln.strip().startswith("record:")), None)
    if record is None:
        raise ValueError("the run printed no 'record:' line")
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "record": record}
    run.update({name: m["value"] for name, m in result["metrics"].items()})
    return run


def summarize(pairs, metrics=METRICS):
    """Medians, quartiles and wins over ``pairs``, each a dict with one run
    per side (``parent``, ``change``) holding the metrics and a
    ``digest``.  A pair is won by the side with the lower value; ties count
    for neither."""
    summary = {
        "pairs": len(pairs),
        "failed_runs": {side: sum(not p[side]["correct"] for p in pairs)
                        for side in SIDES},
        "digests_identical": all(p["parent"]["digest"] == p["change"]["digest"]
                                 for p in pairs),
    }
    for name in metrics:
        row = {}
        for side in SIDES:
            q1, med, q3 = quartiles([p[side][name] for p in pairs])
            row[f"{side}_median"] = med
            row[f"{side}_q1"] = q1
            row[f"{side}_q3"] = q3
        row["parent_iqr"] = row["parent_q3"] - row["parent_q1"]
        row["change_better_pairs"] = sum(
            p["change"][name] < p["parent"][name] for p in pairs)
        row["parent_better_pairs"] = sum(
            p["parent"][name] < p["change"][name] for p in pairs)
        summary[name] = row
    return summary


def _digest(checkout, record_path):
    """One sha256 over the output digests of the run's first child (every
    child of a correct run wrote the same bytes)."""
    with open(os.path.join(checkout, record_path), "r",
              encoding="utf-8") as fh:
        record = json.load(fh)
    children = [c for c in record["children"] if "sha256" in c]
    if not children:
        return None, record["environment"]
    blob = json.dumps(children[0]["sha256"]).encode()
    return hashlib.sha256(blob).hexdigest(), record["environment"]


def run_bench(checkout, workload, seed, seconds, trace):
    """One ``bench/run.py`` run in ``checkout``; its parsed result, output
    digest and environment."""
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py exited {proc.returncode} in a "
                           f"checkout: {proc.stderr.strip()[-500:]}")
    run = parse_run(proc.stdout)
    run["digest"], environment = _digest(checkout, run.pop("record"))
    return run, environment


def _seeds(pairs, held_out, first_seed):
    dev = [first_seed + i for i in range(pairs - held_out)]
    return dev + [HELD_OUT_SEED + i for i in range(held_out)]


def describe_checkout(checkout):
    """Git commit of ``checkout`` (``None`` outside a git work tree), the
    line count of its ``src/`` and a sha256 over the paths and bytes of the
    ``.py`` files there, in sorted order."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    src = os.path.join(checkout, "src")
    paths = sorted(os.path.relpath(os.path.join(dirpath, name), src)
                   for dirpath, _, files in os.walk(src)
                   for name in files if name.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for path in paths:
        with open(os.path.join(src, path), "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(path.encode() + b"\0" + data + b"\0")
    return {"commit": commit, "src_lines": lines,
            "src_sha256": digest.hexdigest()}


def measure(args, log=print):
    """Run the pairs and the traced runs; returns the workload's record."""
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    pairs = []
    environment = {}
    for i, seed in enumerate(_seeds(args.pairs, args.held_out,
                                    args.first_seed)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "held_out": seed >= HELD_OUT_SEED,
                "first": order[0]}
        for side in order:
            pair[side], environment[side] = run_bench(
                checkouts[side], args.workload, seed, args.seconds, 0)
        pairs.append(pair)
        log(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s parent "
            f"{pair['parent']['wall_s']:.4f} change "
            f"{pair['change']['wall_s']:.4f}")
    traced = {"seed": TRACE_SEED}
    for side in SIDES:
        run, _ = run_bench(checkouts[side], args.workload, TRACE_SEED,
                           args.seconds, 1)
        traced[side] = run
    return {
        "seconds": args.seconds,
        "command": (f"python3 bench/run.py --workload {args.workload} "
                    f"--seed SEED --seconds {args.seconds:g} --trace 0"),
        "pairs": pairs,
        "summary": summarize(pairs),
        "traced": traced,
        "environment": {k: environment["parent"].get(k)
                        for k in ("python", "numpy", "scipy", "cpu",
                                  "nproc")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--held-out", type=int, default=2,
                        help="pairs on the held-out seeds 1001, 1002, ..")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    if not 0 <= args.held_out <= args.pairs or args.pairs < 1:
        parser.error("need --pairs >= 1 and 0 <= --held-out <= --pairs")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "run.py")):
            parser.error(f"no bench/run.py in {checkout!r}")
    sides = {"parent": describe_checkout(args.parent),
             "change": describe_checkout(args.change)}
    record = {"description": args.description, "sides": sides,
              "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if args.description:
            record["description"] = args.description
    target = record  # the record, or its part of the swapped-roles runs
    if record.get("sides") != sides:
        if record.get("sides") != {"parent": sides["change"],
                                   "change": sides["parent"]}:
            print(f"error: {args.out} holds a record of other source trees",
                  file=sys.stderr)
            return 2
        target = record.setdefault("swapped_roles", {
            "note": SWAPPED_NOTE, "sides": sides, "workloads": {}})
    try:
        entry = measure(args, log=lambda text: print(text, file=sys.stderr))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["environment"] = entry.pop("environment") | {
        "platform": platform.platform(terse=True),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    target["workloads"][args.workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    summary = entry["summary"]
    src_lines = {side: sides[side]["src_lines"] for side in SIDES}
    print(json.dumps({"workload": args.workload} | summary
                     | {"src_lines": src_lines}))
    ok = summary["digests_identical"] and not any(
        summary["failed_runs"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
