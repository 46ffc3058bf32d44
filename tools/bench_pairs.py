"""Compare two checkouts on benchmark workloads, run in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W|all \\
        [--pairs 10] [--seconds S] [--seed N]

PARENT and CHANGE are directories holding a checkout each (``bench/run.py``,
``src/`` and ``BENCHMARK.json``).  Each pair runs ``bench/run.py --trace 0``
once in each copy; the side that runs first alternates from pair to pair.
Before every run the ``__pycache__`` directories under both copies' ``src/``
and ``bench/`` are deleted and the run gets ``PYTHONDONTWRITEBYTECODE=1``,
so neither side runs from a bytecode cache the other lacks.  A run's result
is the last line of its standard output.  ``--workload all`` compares every
workload of the parent's ``BENCHMARK.json`` in turn, each in its own pairs
and with its own summary.

For every ``end_to_end`` metric of the parent's ``BENCHMARK.json`` it prints
both medians, the distance between the quartiles of the parent's runs and
the pairs the change won (by the metric's ``better``; a tie counts for
neither side), then every run that was not ``correct`` or had
``failed > 0``.  Neither copy is changed, apart from its bytecode caches.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def _clear_caches(root: str) -> None:
    for top in ("src", "bench"):
        for path, dirs, _ in os.walk(os.path.join(root, top)):
            if "__pycache__" in dirs:
                dirs.remove("__pycache__")
                shutil.rmtree(os.path.join(path, "__pycache__"))


def run_once(root: str, roots, workload: str, seconds: float,
             seed: int) -> dict:
    """The result line of one ``bench/run.py`` run in ``root``, after the
    bytecode caches of every copy in ``roots`` are deleted; a run that
    printed no result gives ``{"correct": False, "error": ...}``."""
    for r in roots:
        _clear_caches(r)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"}


def _value(result: dict, name: str):
    return result.get("metrics", {}).get(name, {}).get("value")


def summarize(parent: list, change: list, metrics: list) -> dict:
    """Per end-to-end metric (dicts with ``name`` and ``better``) of the
    paired result lines: ``parent`` and ``change`` medians, the parent's
    quartile distance ``parent_iqr`` (``statistics.quantiles``, n=4), and
    ``won``, the pairs whose change value is strictly better, out of
    ``pairs`` with both values.  ``problems`` lists (side, pair, result) of
    every run not ``correct`` or with ``failed`` > 0."""
    out = {"metrics": [], "problems": []}
    for m in metrics:
        pairs = [(_value(p, m["name"]), _value(c, m["name"]))
                 for p, c in zip(parent, change)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            out["metrics"].append({"name": m["name"], "pairs": 0})
            continue
        base = [p for p, _ in pairs]
        q = statistics.quantiles(base, n=4) if len(base) > 1 else [base[0]] * 3
        sign = 1 if m["better"] == "lower" else -1
        out["metrics"].append({
            "name": m["name"], "pairs": len(pairs),
            "parent": statistics.median(base),
            "change": statistics.median(c for _, c in pairs),
            "parent_iqr": q[2] - q[0],
            "won": sum(sign * (p - c) > 0 for p, c in pairs),
        })
    for side, results in (("parent", parent), ("change", change)):
        for i, r in enumerate(results):
            if not r.get("correct") or (r.get("failed") or 0) > 0:
                out["problems"].append((side, i, r))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    with open(os.path.join(roots[0], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    for workload in workloads:
        results = {root: [] for root in roots}
        for i in range(args.pairs):
            for root in (roots if i % 2 == 0 else roots[::-1]):
                results[root].append(run_once(root, roots, workload,
                                              args.seconds, args.seed))
        summary = summarize(results[roots[0]], results[roots[1]],
                            bench["end_to_end"])
        print(f"workload {workload}: {args.pairs} pairs")
        for m in summary["metrics"]:
            if not m["pairs"]:
                print(f"  {m['name']}: no pair has both values")
                continue
            print(f"  {m['name']}: parent {m['parent']:.6g}, change "
                  f"{m['change']:.6g}, parent IQR {m['parent_iqr']:.3g}, "
                  f"change won {m['won']}/{m['pairs']}")
        for side, i, r in summary["problems"]:
            print(f"  problem: {side} run of pair {i}: {json.dumps(r)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
