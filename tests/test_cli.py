import json
import math

import numpy as np
import pytest

from anosovlab import verification as ver
from anosovlab.cli import main
from anosovlab.representations import rep_from_json


def run(args):
    return main(list(args))


def no_scan(*args):
    raise AssertionError("scan ran before the usage error")


class TestConstruct:
    def test_fg_to_file_round_trips(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["construct", "--family", "fg", "--x", "1.0",
                    "--out", str(out)]) == 0
        rep = rep_from_json(out.read_text())
        assert rep.dim == 3
        assert np.allclose(rep.generator_images[0],
                           [[4, 4, 1], [2, 3, 1], [1, 2, 1]])

    def test_fuchsian_partition(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["construct", "--family", "fuchsian", "--partition", "3,1",
                    "--out", str(out)]) == 0
        rep = rep_from_json(out.read_text())
        assert rep.dim == 4

    def test_rep_file_input(self, tmp_path):
        first = tmp_path / "a.json"
        run(["construct", "--family", "fg", "--x", "2.0", "--out", str(first)])
        second = tmp_path / "b.json"
        assert run(["gap-scan", "--rep", str(first), "--k", "1", "--L", "3",
                    "--out", str(second)]) == 0

    def test_usage_error_exit_64(self):
        assert run(["construct"]) == 64
        assert run(["construct", "--family", "fg"]) == 64
        for partition in ("5,a", ","):
            assert run(["construct", "--family", "fuchsian",
                        "--partition", partition]) == 64

    def test_domain_error_exit_3(self, capsys):
        assert run(["construct", "--family", "fg", "--x", "-1.0"]) == 3
        err = capsys.readouterr().err
        doc = json.loads(err)
        assert doc["error"] == "InputError"

    @pytest.mark.parametrize("text", [
        "not json",
        '{"dim": 2, "label": "no generators"}',
        '{"dim": 2, "generators": [[[1.0, 0.0], [0.0]]]}',
    ], ids=["not-json", "no-generators", "ragged"])
    def test_malformed_rep_file_exit_3(self, tmp_path, capsys, text):
        path = tmp_path / "rep.json"
        path.write_text(text)
        assert run(["gap-scan", "--rep", str(path), "--k", "1",
                    "--L", "3"]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InputError"
        assert "malformed representation JSON" in doc["message"]

    def test_overflowing_rep_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(
            '{"dim": 2, "generators": [[[1e200, 0.0], [0.0, 1e-200]]]}')
        assert run(["construct", "--rep", str(path)]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ConstructionError"


class TestGapScan:
    def test_fg_json_report(self, tmp_path):
        out = tmp_path / "scan.json"
        status = run(["gap-scan", "--family", "fg", "--x", "1", "--k", "1",
                      "--L", "4", "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["verdict"] == "anosov-like"

    def test_flat_scan_exit_1(self, tmp_path):
        out = tmp_path / "scan.json"
        status = run(["gap-scan", "--family", "fuchsian", "--partition", "5,1",
                      "--k", "3", "--L", "4", "--out", str(out)])
        assert status == 1
        assert json.loads(out.read_text())["report"]["verdict"] == "flat"

    def test_csv_with_schema(self, tmp_path):
        out = tmp_path / "scan.csv"
        run(["gap-scan", "--family", "fg", "--x", "1", "--k", "1", "--L", "3",
             "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "length,min_log_gap"
        assert len(lines) == 4
        schema = json.loads((tmp_path / "scan.csv.schema.json").read_text())
        assert [(c["name"], c["type"]) for c in schema["columns"]] == [
            ("length", "integer"), ("min_log_gap", "number")]

    def test_csv_without_out_rejected_before_scanning(self, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(ver, "anosov_gap_scan", no_scan)
        assert run(["gap-scan", "--family", "fg", "--x", "1", "--k", "1",
                    "--L", "5", "--format", "csv"]) == 64
        assert "--format csv needs --out" in capsys.readouterr().err

    def test_L_cap(self):
        assert run(["gap-scan", "--family", "fg", "--x", "1", "--k", "1",
                    "--L", "9"]) == 64
        assert run(["check", "eigen-identities", "--family", "fg", "--x",
                    "1", "--k", "1", "--L", "0"]) == 64


class TestCheck:
    def test_hk_fuchsian_4_2_fails(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["check", "Hk", "--family", "fuchsian", "--partition",
                      "4,2", "--k", "1", "--L", "2", "--out", str(out)])
        assert status == 1
        doc = json.loads(out.read_text())
        assert doc["report"]["verdict"] == "fail"
        assert doc["report"]["min_defect"] < 1e-10

    def test_ck_non_certifiable_exit_2(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["check", "Ck", "--family", "fuchsian", "--partition",
                      "5,1", "--k", "1", "--L", "2", "--out", str(out)])
        assert status == 2
        assert json.loads(out.read_text())["report"]["verdict"] == "non-certifiable"

    def test_pos_ratioed_fg(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["check", "pos-ratioed", "--family", "fg", "--x", "1",
                      "--k", "1", "--L", "2", "--out", str(out)])
        assert status == 0
        assert json.loads(out.read_text())["report"]["min_gcr"] > 1

    def test_pos_ratioed_fg_L4(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["check", "pos-ratioed", "--family", "fg", "--x", "1",
                      "--k", "1", "--L", "4", "--out", str(out)])
        assert status == 0
        report = json.loads(out.read_text())["report"]
        assert report["n_points"] == 124
        assert report["n_quadruples"] == 37_525_004 == 4 * math.comb(124, 4)

    @pytest.mark.parametrize("k", ["0", "3"])
    def test_pos_ratioed_bad_k_exit_3(self, capsys, k):
        assert run(["check", "pos-ratioed", "--family", "fg", "--x", "1",
                    "--k", k, "--L", "2"]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InputError"
        assert f"k={k} outside 1..2" in doc["message"]

    def test_pos_ratioed_missing_flag_exit_3_names_word_and_dim(self, capsys):
        # the eigenvalue 1 of (5,1) is double: no 3-flag at any point
        assert run(["check", "pos-ratioed", "--family", "fuchsian",
                    "--partition", "5,1", "--k", "3", "--L", "2"]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "GapError", "message":
                       "no eigenvalue gap at dimension 3 for word BA: "
                       "|lambda_3|/|lambda_4| = 1"}

    @pytest.mark.parametrize("command", [
        ["gap-scan"], ["collar"], ["check", "eigen-identities"]],
        ids=["gap-scan", "collar", "eigen-identities"])
    def test_k_above_d_minus_1_exit_3(self, capsys, command):
        assert run([*command, "--family", "fg", "--x", "1", "--k", "3",
                    "--L", "3"]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InputError"
        assert "k=3 outside 1..2" in doc["message"]

    def test_eigen_identities_fg(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["check", "eigen-identities", "--family", "fg", "--x",
                      "1", "--k", "1", "--L", "2", "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] and doc["max_pcr_rel_error"] < 1e-7

    def test_hyperconvex_fg(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["check", "hyperconvex", "--family", "fg", "--x", "1",
                      "--k", "1", "--L", "3", "--base-word", "a",
                      "--out", str(out)])
        assert status == 0

    @pytest.mark.parametrize("rep,L,n_points,min_defect", [
        (["--family", "fg", "--x", "1"], 4, 8, 0.11171667272364436),
        (["--family", "fuchsian", "--partition", "7,1"], 6, 8,
         0.02291159024887727),
    ], ids=["fg-L4", "7,1-L6"])
    def test_hyperconvex_skips_parabolic_samples(self, tmp_path, rep, L,
                                                 n_points, min_defect):
        # from L = 4 on the samples hold the commutator abAB, which has no
        # boundary point: reading it exited 3
        out = tmp_path / "r.json"
        assert run(["check", "hyperconvex", *rep, "--k", "1", "--L", str(L),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["n_points"] == n_points
        assert report["min_defect"] == min_defect

    def test_hyperconvex_fg_L4_unseparated_pinned(self, tmp_path):
        # 310,124 triples, one direct_sum_defect call each, took 5.4 s
        # before the scan ran on the H_k/C_k triple kernel
        out = tmp_path / "r.json"
        assert run(["check", "hyperconvex", "--family", "fg", "--x", "1",
                    "--k", "1", "--L", "4", "--min-separation", "0",
                    "--out", str(out)]) == 1
        report = json.loads(out.read_text())["report"]
        assert report["n_points"] == 124
        assert report["n_triples"] == 310124
        assert report["min_defect"] == 5.597394136777987e-09
        assert report["worst_triple"] == ["AAb", "AAba", "AAbA"]
        assert report["max_defect"] is None

    def test_hyperconvex_reports_the_sample_length(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["check", "hyperconvex", "--family", "fg", "--x", "1",
                    "--k", "1", "--L", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["L"] == 2

    def test_hyperconvex_k_out_of_range_exit_3(self, capsys):
        assert run(["check", "hyperconvex", "--family", "fg", "--x", "1",
                    "--k", "2", "--L", "2"]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InputError"
        assert "k=2 outside 1..1" in doc["message"]

    @pytest.mark.parametrize("word", ["a-b", "1", "c", ""])
    def test_hyperconvex_base_word_not_a_generator_exit_64(self, word):
        # "c" names a third generator; fg has rank 2
        assert run(["check", "hyperconvex", "--family", "fg", "--x", "1",
                    "--k", "1", "--L", "2", "--base-word", word]) == 64

    @pytest.mark.parametrize("args, message", [
        (["Hk", "--family", "fuchsian", "--partition", "5,1", "--base-word",
          "zz"], "--base-word does not apply to check Hk"),
        (["pos-ratioed", "--family", "fg", "--x", "1", "--min-separation",
          "5", "--base-word", "b"],
         "--base-word does not apply to check pos-ratioed"),
        (["eigen-identities", "--family", "fg", "--x", "1",
          "--min-separation", "0.3"],
         "--min-separation does not apply to check eigen-identities"),
    ])
    def test_flag_that_does_not_apply_exit_64(self, capsys, args, message):
        assert run(["check", *args, "--k", "1", "--L", "2"]) == 64
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("what,rep", [
        ("Hk", ["--family", "fuchsian", "--partition", "5,1"]),
        ("Ck", ["--family", "fuchsian", "--partition", "7,1"]),
        ("hyperconvex", ["--family", "fg", "--x", "1"]),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_min_separation_exit_3(self, capsys, what, rep, value):
        # nan turned the coincidence filter off: check hyperconvex kept
        # coincident points and failed, check Hk counted no triple
        assert run(["check", what, *rep, "--k", "1", "--L", "2",
                    "--min-separation", value]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InputError"
        assert f"min_separation={float(value)}" in doc["message"]

    def test_min_separation_applies_to_transversality(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["check", "Hk", "--family", "fuchsian", "--partition",
                    "4,2", "--k", "1", "--L", "2", "--min-separation", "0.5",
                    "--out", str(out)]) == 1
        assert json.loads(out.read_text())["report"]["min_separation"] == 0.5


class TestCollar:
    def test_fg_x1_contains_generator_pair(self, tmp_path):
        out = tmp_path / "collar.json"
        status = run(["collar", "--family", "fg", "--x", "1", "--k", "1",
                      "--L", "3", "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["all_hold"] and doc["weight_chain_ok"]
        gen_pair = [p for p in doc["pairs"] if p["g"] == "a" and p["h"] == "b"]
        assert len(gen_pair) == 1
        assert gen_pair[0]["lhs"] == pytest.approx(46.978713763747794, rel=1e-9)
        assert gen_pair[0]["rhs"] == pytest.approx(1.1708203932499369, rel=1e-9)

    @pytest.mark.parametrize("partition, k", [("2,2", 1), ("3,1", 2)])
    def test_no_eigenvalue_gap_exit_3(self, capsys, partition, k):
        assert run(["collar", "--family", "fuchsian", "--partition",
                    partition, "--k", str(k), "--L", "2"]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "GapError"
        assert f"no eigenvalue gap at index {k}" in doc["message"]

    def test_L_above_cap_exit_64(self, capsys):
        assert run(["collar", "--family", "fg", "--x", "1", "--k", "1",
                    "--L", "8"]) == 64
        assert "--L 8 exceeds the cap 7" in capsys.readouterr().err

    def test_csv_without_out_rejected_before_scanning(self, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(ver, "collar_scan", no_scan)
        assert run(["collar", "--family", "fg", "--x", "1", "--k", "1",
                    "--L", "5", "--format", "csv"]) == 64
        assert "--format csv needs --out" in capsys.readouterr().err

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["collar", "--family", "fg", "--x", "1", "--k", "1",
                 "--L", "2", "--format", "csv", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_schema_types_and_describes_every_column(self, tmp_path):
        # bools and ints were all typed "string", and k, holds, margin and
        # sign_indeterminate had empty descriptions
        out = tmp_path / "collar.csv"
        run(["collar", "--family", "fg", "--x", "1", "--k", "1", "--L", "2",
             "--format", "csv", "--out", str(out)])
        schema = json.loads((tmp_path / "collar.csv.schema.json").read_text())
        assert {c["name"]: c["type"] for c in schema["columns"]} == {
            "g": "string", "h": "string", "k": "integer", "lhs": "number",
            "rhs": "number", "weight_rhs": "number", "holds": "boolean",
            "margin": "number", "sign_indeterminate": "boolean"}
        assert all(c["description"] for c in schema["columns"])


class TestFgScan:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        status = run(["fg-scan", "--x-min", "1e-6", "--x-max", "1",
                      "--points", "25", "--log-grid", "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,ratio_gamma,ratio_delta,root_length"
        ratios = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] < 1.05
        assert (tmp_path / "grid.csv.schema.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["fg-scan", "--x-min", "0.1", "--x-max", "1", "--points", "5",
                 "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self):
        assert run(["fg-scan", "--x-min", "0", "--x-max", "1"]) == 64
        assert run(["fg-scan", "--x-min", "1", "--x-max", "inf"]) == 64
        assert run(["fg-scan", "--x-min", "1", "--x-max", "nan"]) == 64
        assert run(["fg-scan", "--x-min", "0.5", "--x-max", "1",
                    "--points", "0"]) == 64


class TestSopq:
    def test_p4_q5(self, tmp_path):
        out = tmp_path / "sopq.json"
        status = run(["sopq", "--p", "4", "--q", "5", "--count", "5",
                      "--seed", "7", "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["all_positive"]
        assert doc["max_q_residual"] < 1e-9

    def test_p_below_4_exit_3(self, capsys):
        assert run(["sopq", "--p", "3", "--q", "3", "--count", "1",
                    "--seed", "0"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    def test_seed_required(self):
        assert run(["sopq", "--p", "4", "--q", "5", "--count", "2"]) == 64
        assert run(["sopq", "--p", "4", "--q", "5", "--count", "0",
                    "--seed", "7"]) == 64

    def test_empty_draw_range_exit_3(self, capsys):
        assert run(["sopq", "--p", "4", "--q", "5", "--count", "2",
                    "--seed", "7", "--entry-max", "0"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("entry_max,error", [
        ("inf", "InputError"), ("1e300", "NumericError")])
    def test_unusable_draw_range_exit_3(self, capsys, entry_max, error):
        assert run(["sopq", "--p", "4", "--q", "5", "--count", "1",
                    "--seed", "3", "--entry-max", entry_max]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(["sopq", "--p", "4", "--q", "5", "--count", "3",
                 "--seed", "11", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()
