"""One measuring process of the benchmark.

    python3 bench/worker.py --workload NAME --seed N --mode scan|trace \\
        --launched UNIX_TIME [--seconds S]

Builds the workload's representation in a fresh process and prints one
JSON line.  ``scan`` mode times the set-up, a cold scan (the first in the
process, what one CLI invocation pays) and one warm scan.  ``trace`` mode
alternates untraced and traced scans for ``--seconds`` and reports the
per-layer metrics.  Every scan's answer is checked; a scan that raises or
fails its check counts as failed.  ``bench/run.py`` starts these processes.

Set-up and scan times are reported at a reference CPU speed, next to the
raw wall times.  On a shared host the CPU speed drifts by up to 2x over
minutes, which no number of repeats averages out.  A fixed mix of
interpreted Python and small LAPACK calls, the two kinds of work the scans
do, is timed right after the set-up and after each scan; each time is
scaled by REFERENCE_LOOP_S over the mix's time next to it.  On a 2-vCPU
shared VM this cut the spread of median scan times over 25-second windows
from 21% to 8% (C_k scan) and from 13% to 3% (collar scan).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time

# BLAS threads are fixed before numpy is first imported (in main).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

CALIBRATION_LOOP = 150_000
REFERENCE_LOOP_S = 0.018    # the mix's time at the reference speed, about
                            # the median on the 2-vCPU VM the bounds were set on


def _calibration_s() -> float:
    """Median time of three runs of the fixed calibration mix."""
    import numpy as np
    import scipy.linalg

    mats = np.random.default_rng(0).standard_normal((60, 6, 6))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        for m in mats:
            np.linalg.qr(m)
            np.linalg.svd(m, compute_uv=False)
            np.linalg.det(m)
            scipy.linalg.schur(m, output="real")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _at_reference(seconds: float, *loop_s: float) -> float:
    return seconds * REFERENCE_LOOP_S / statistics.mean(loop_s)


class _Scans:
    """Runs, times and checks scans of one workload; counts failures."""

    def __init__(self, workload, rep, check):
        self.workload = workload
        self.rep = rep
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, problems: list):
        self.failed += 1
        self.problems.extend(problems)

    def run(self, tracer=None):
        """(seconds, answer) of one scan, or None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = self.workload.scan(self.rep)
            else:
                from tracing import SCAN

                with tracer, tracer.span(SCAN):
                    report = self.workload.scan(self.rep)
        except Exception as exc:  # a scan that raises is a failed attempt
            self.fail([f"scan raised {type(exc).__name__}: {exc}"])
            return None
        seconds = time.perf_counter() - t0
        answer = self.workload.answer(self.rep, report)
        problems = self.check(answer)
        if problems:
            self.fail(problems)
            return None
        return seconds, answer


def _scan_mode(scans: _Scans, setup_s: float) -> dict:
    loops = [_calibration_s()]
    cold = scans.run()
    loops.append(_calibration_s())
    warm = scans.run()
    loops.append(_calibration_s())
    answer = next((run[1] for run in (cold, warm) if run), None)
    return {
        "setup_s": _at_reference(setup_s, loops[0]),
        "cold_scan_s": _at_reference(cold[0], *loops[:2]) if cold else None,
        "scan_s": _at_reference(warm[0], *loops[1:]) if warm else None,
        "raw_setup_s": setup_s,
        "raw_cold_scan_s": cold[0] if cold else None,
        "raw_scan_s": warm[0] if warm else None,
        "calibration_s": loops,
        "items": answer.items if answer else None,
        "answer": dataclasses.asdict(answer) if answer else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _trace_mode(scans: _Scans, seconds: float) -> dict:
    from tracing import Tracer

    scans.run()  # the cold scan, which the per-layer figures leave out
    untraced, traced, layers, calls, answers = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain = scans.run()
        tracer = Tracer()
        with_trace = scans.run(tracer)
        if plain is None or with_trace is None:
            break
        if with_trace[1] != plain[1]:
            scans.fail(["traced answer differs from untraced"])
        answers.append(plain[1])
        untraced.append(plain[0])
        traced.append(with_trace[0])
        layers.append(tracer.layer_metrics(with_trace[1]))
        calls.append(dict(tracer.calls()))
        if time.perf_counter() >= deadline:
            break
    if any(c != calls[0] for c in calls[1:]):
        scans.fail(["call counts differ between traced scans"])
    if not layers:
        return {"layers": None}
    scan_s = statistics.median(untraced)
    # median_low keeps counts integral; they are equal across scans anyway
    metrics = {name: statistics.median_low(run[name] for run in layers)
               for name in layers[0]}
    metrics["trace.overhead_share"] = (
        statistics.median(traced) - scan_s) / scan_s
    return {"layers": metrics, "calls": calls[0],
            "answer": dataclasses.asdict(answers[0]),
            "errors": {k: dict(v) for k, v in tracer.error_classes().items()},
            "traced_scans": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("scan", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    import anosovlab
    import numpy
    import scipy
    import workloads

    if not os.path.abspath(anosovlab.__file__).startswith(SRC + os.sep):
        print(f"anosovlab imported from {anosovlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    x = workloads.fg_parameter(args.seed) if workload.uses_x else None
    rep = workload.build(x)
    setup_s = time.time() - args.launched

    scans = _Scans(workload, rep, lambda answer: workloads.check_answer(
        workload, x, answer))
    if args.mode == "scan":
        out = _scan_mode(scans, setup_s)
    else:
        out = _trace_mode(scans, args.seconds)
    out.update(x=x, attempted=scans.attempted,
               failed=scans.failed, problems=scans.problems,
               numpy=numpy.__version__, scipy=scipy.__version__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
