"""Tests of the benchmark itself.

    python3 -m pytest -q bench

Runs every workload once untraced and twice traced (about half a minute).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def scans():
    """Per workload: the untraced answer and two (tracer, answer) pairs."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        rep = wl.build(workloads.fg_parameter(0) if wl.uses_x else None)
        plain = wl.answer(rep, wl.scan(rep))
        traced = []
        for _ in range(2):
            tracer = tracing.Tracer()
            with tracer, tracer.span(tracing.SCAN):
                report = wl.scan(rep)
            traced.append((tracer, wl.answer(rep, report)))
        out[name] = (plain, traced)
    return out


def test_seed_zero_answers_pass_the_check(scans):
    for name, (plain, _) in scans.items():
        assert workloads.check_answer(
            workloads.WORKLOADS[name], 1.0, plain) == [], name


def test_traced_call_counts_repeat(scans):
    for name, (_, traced) in scans.items():
        first, second = (t.calls() for t, _ in traced)
        assert first == second, name


def test_traced_answers_equal_untraced(scans):
    for name, (plain, traced) in scans.items():
        for _, answer in traced:
            assert answer == plain, name


def test_every_traced_name_is_called_on_some_workload(scans):
    total = sum((traced[0][0].calls() for _, traced in scans.values()),
                start=tracing.Counter())
    silent = [name for name in tracing.TRACED if total[name] == 0]
    assert silent == []


def test_known_call_counts(scans):
    collar = scans["collar-fg-L3"][1][0]
    m = collar[0].layer_metrics(collar[1])
    assert m["core_linalg.eig_by_modulus.calls"] == 1944
    assert round(m["core_linalg.eig_by_modulus.distinct_share"] * 1944) == 52
    assert m["spectral.attracting_space.calls"] == 0
    ck = scans["ck-fuchsian71-L2"][1][0]
    assert ck[0].calls()["spectral.attracting_space"] == 36


def test_layer_metrics_match_the_table_and_benchmark_json(scans):
    for name, (_, traced) in scans.items():
        tracer, answer = traced[0]
        produced = set(tracer.layer_metrics(answer)) | {"trace.overhead_share"}
        assert produced == set(tracing.LAYER_METRICS), name
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in _spec()["per_layer"]}
    assert per_layer == {name: (unit, better) for name, (unit, better, _)
                         in tracing.LAYER_METRICS.items()}
    assert all(moves for _, _, moves in tracing.LAYER_METRICS.values())


def test_benchmark_json_matches_the_workloads_and_metrics():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_answer_check_rejects_perturbed_checksums(scans):
    for name, (plain, _) in scans.items():
        wl = workloads.WORKLOADS[name]
        nudge = 1.0 + 10 * workloads.REL_TOL
        bad_value = dataclasses.replace(
            plain, value=plain.value * nudge,
            recomputed=plain.recomputed * nudge)
        bad_worst = dataclasses.replace(
            plain, recomputed=plain.recomputed * nudge)
        bad_count = dataclasses.replace(
            plain, counts={**plain.counts, "items": plain.items + 1})
        bad_verdict = dataclasses.replace(plain, verdict=False)
        for bad in (bad_value, bad_worst, bad_count, bad_verdict):
            assert workloads.check_answer(wl, 1.0, bad), name


def test_tracer_restores_originals_when_the_scan_raises():
    from anosovlab import spectral, verification

    original = spectral.attracting_space
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert verification.attracting_space is not original
            raise ZeroDivisionError
    assert verification.attracting_space is original
    assert spectral.attracting_space is original


def test_fg_parameter_is_seeded_and_log_uniform():
    assert workloads.fg_parameter(0) == 1.0
    draws = [workloads.fg_parameter(s) for s in range(1, 50)]
    assert draws == [workloads.fg_parameter(s) for s in range(1, 50)]
    assert all(0.5 <= x <= 2.0 for x in draws)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "collar-fg-L3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
