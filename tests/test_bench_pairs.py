import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "scan_s", "better": "lower"},
           {"name": "items_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def result(scan_s, items_per_s, peak_rss_mb=100.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"scan_s": {"value": scan_s, "unit": "s"},
                        "items_per_s": {"value": items_per_s, "unit": "1/s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def test_summary_of_synthetic_pairs():
    parent = [result(s, 1 / s) for s in (1.0, 1.2, 1.1, 1.4, 1.3)]
    change = [result(s, 1 / s) for s in (0.9, 1.2, 1.2, 1.0, 1.0)]
    change[3] = result(1.0, 1 / 1.0, correct=False)
    change[4] = result(1.0, 1 / 1.0, failed=1)
    summary = bench_pairs.summarize(parent, change, METRICS)
    by_name = {m["name"]: m for m in summary["metrics"]}
    scan = by_name["scan_s"]
    assert (scan["pairs"], scan["parent"], scan["change"]) == (5, 1.2, 1.0)
    # quartiles of 1.0 1.1 1.2 1.3 1.4 (exclusive method): 1.05 and 1.35
    assert scan["parent_iqr"] == pytest.approx(0.3)
    # pair 1 ties and counts for neither side; pair 2 the parent wins
    assert scan["won"] == 3
    assert by_name["items_per_s"]["won"] == 3
    # equal everywhere: no pair is won
    assert by_name["peak_rss_mb"]["won"] == 0
    assert [(side, i) for side, i, _ in summary["problems"]] == [
        ("change", 3), ("change", 4)]


def test_a_run_without_result_is_a_problem_and_no_pair():
    parent = [result(1.0, 1.0), {"correct": False, "error": "exit 2: no"}]
    change = [result(0.9, 1.1), result(0.9, 1.1)]
    summary = bench_pairs.summarize(parent, change, METRICS[:1])
    assert summary["metrics"][0]["pairs"] == 1
    assert summary["metrics"][0]["won"] == 1
    assert [(side, i) for side, i, _ in summary["problems"]] == [("parent", 1)]


def test_workload_all_summarizes_each_workload(tmp_path, monkeypatch,
                                               capsys):
    # "all" runs every workload of the parent's BENCHMARK.json in its own
    # alternating pairs and prints one summary each
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        root.mkdir()
    (roots[0] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": METRICS[:1]}))
    runs = []

    def stub(root, both, workload, seconds, seed):
        runs.append((Path(root).name, workload))
        scan_s = {"w1": 1.0, "w2": 2.0}[workload]
        return result(scan_s if Path(root).name == "parent" else scan_s / 2,
                      1.0)

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    assert bench_pairs.main([str(roots[0]), str(roots[1]),
                             "--workload", "all", "--pairs", "2"]) == 0
    assert runs == [("parent", "w1"), ("change", "w1"),
                    ("change", "w1"), ("parent", "w1"),
                    ("parent", "w2"), ("change", "w2"),
                    ("change", "w2"), ("parent", "w2")]
    assert capsys.readouterr().out.splitlines() == [
        "workload w1: 2 pairs",
        "  scan_s: parent 1, change 0.5, parent IQR 0, change won 2/2",
        "workload w2: 2 pairs",
        "  scan_s: parent 2, change 1, parent IQR 0, change won 2/2",
    ]
