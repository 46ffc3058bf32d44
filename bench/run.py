"""Run workloads of the scan benchmark and print their metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in bench/workloads.py;
``--workload all`` runs each of them in turn.

With ``--trace 0``, fresh worker processes (bench/worker.py) run one after
another, single-threaded, until S seconds have passed and at least three
have run.  Each times its set-up (imports and the representation), a cold
scan and a warm scan, at a reference CPU speed (see bench/worker.py).  The
end-to-end metrics are medians over them; peak memory is the largest
worker's.  With ``--trace 1``, one worker alternates
untraced and traced scans for S seconds and the per-layer metrics are
printed instead.

The last line of standard output is the result; the line before it holds
every sample, the answer and the provenance.  Exit status: 0 when every
answer check passed, 1 when one failed (the result says so), 2 when no
result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 120
END_TO_END = {
    "setup_s": "s",
    "cold_scan_s": "s",
    "scan_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run could not produce a result."""


def _worker(workload: str, args, mode: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds)]
    cmd += ["--launched", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S + args.seconds)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunError("worker printed no result") from exc


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def _scan_metrics(runs: list) -> tuple:
    def samples(key):
        return [r[key] for r in runs if r.get(key) is not None]

    values = {key: samples(key) for key in (
        "setup_s", "cold_scan_s", "scan_s", "peak_rss_mb",
        "raw_setup_s", "raw_cold_scan_s", "raw_scan_s", "calibration_s")}
    metrics = {}
    for key, vals in values.items():
        if vals and key in END_TO_END:
            metrics[key] = (max(vals) if key == "peak_rss_mb"
                            else statistics.median(vals))
    items = samples("items")
    if items and "scan_s" in metrics:
        metrics["items_per_s"] = items[0] / metrics["scan_s"]
    return metrics, values


def _run(workload: str, args) -> tuple:
    runs = []
    start = time.perf_counter()
    if args.trace:
        runs.append(_worker(workload, args, "trace"))
        metrics = runs[0]["layers"] or {}
        samples = {"calls": runs[0].get("calls"),
                   "errors": runs[0].get("errors"),
                   "traced_scans": runs[0].get("traced_scans")}
        from tracing import LAYER_METRICS
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        while (len(runs) < MIN_WORKERS
               or time.perf_counter() - start < args.seconds):
            runs.append(_worker(workload, args, "scan"))
        metrics, samples = _scan_metrics(runs)
        units = END_TO_END
    detail = {
        "workload": workload, "seed": args.seed, "x": runs[0]["x"],
        "trace": args.trace, "workers": len(runs),
        "samples": samples,
        "answer": runs[0].get("answer"),
        "problems": [p for r in runs for p in r["problems"]],
        "provenance": {
            "numpy": runs[0]["numpy"], "scipy": runs[0]["scipy"],
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _git_commit(), "seed": args.seed,
        },
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "anosovlab",
                                       "__init__.py")):
        print(f"no anosovlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        try:
            detail, result = _run(name, args)
        except RunError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(detail))
        print(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
