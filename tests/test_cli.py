import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from anosovlab import verification as ver
from anosovlab.cli import main
from anosovlab.representations import (
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
    rep_from_json,
    rep_to_json,
)


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

    @pytest.mark.parametrize("args, message", [
        (["construct", "--family", "fg", "--x", "1", "--out", "DIR"],
         "is a directory"),
        (["construct", "--family", "fg", "--x", "1", "--out",
          "DIR/missing/rep.json"], "Could not open file"),
        (["fg-scan", "--x-min", "1", "--x-max", "2", "--out",
          "DIR/missing/x.csv"], "Could not open file"),
        (["collar", "--family", "fg", "--x", "1", "--k", "1", "--L", "2",
          "--format", "csv", "--out", "DIR/missing/c.csv"],
         "Could not open file"),
        (["construct", "--rep", "DIR"], "is a directory"),
    ], ids=["out-directory", "out-missing-parent", "fg-scan-csv",
            "collar-csv", "rep-directory"])
    def test_unusable_path_exit_64(self, tmp_path, capsys, args, message):
        # a usage error, not a traceback and the failed-check status 1
        assert run([a.replace("DIR", str(tmp_path)) for a in args]) == 64
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1, 3])
    def test_reference_of_another_rank_exit_3(self, tmp_path, capsys, count):
        doc = json.loads(rep_to_json(fg_rep(1.0)))
        gens = doc["reference"]["generators"]
        doc["reference"]["generators"] = (gens + [[[2, 1], [1, 1]]])[:count]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        assert run(["collar", "--rep", str(path), "--k", "1",
                    "--L", "2"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError",
            "message": f"boundary reference has {count} generators, "
                       "representation has 2"}

    @pytest.mark.parametrize("args, message", [
        (["construct", "--family", "fuchsian", "--partition", "3,1",
          "--x", "5"], "--x applies only to --family fg"),
        (["gap-scan", "--family", "fg", "--x", "1", "--partition", "zz",
          "--k", "1", "--L", "3"],
         "--partition applies only to --family fuchsian"),
        (["check", "Hk", "--family", "fuchsian", "--partition", "5,1",
          "--x", "1", "--k", "1", "--L", "2"],
         "--x applies only to --family fg"),
        (["collar", "--rep", "REP", "--x", "1", "--k", "1", "--L", "2"],
         "--x applies only to --family fg"),
        (["construct", "--rep", "REP", "--partition", "3,1"],
         "--partition applies only to --family fuchsian"),
    ])
    def test_family_option_that_does_not_apply_exit_64(
            self, tmp_path, monkeypatch, capsys, args, message):
        # the option was read by no family and the run went on without it
        path = tmp_path / "rep.json"
        path.write_text(rep_to_json(fg_rep(1.0)))
        for scan in ("anosov_gap_scan", "hk_scan", "collar_scan"):
            monkeypatch.setattr(ver, scan, no_scan)
        assert run([str(path) if a == "REP" else a for a in args]) == 64
        assert message in capsys.readouterr().err


FG_L4 = ["--family", "fg", "--x", "1", "--k", "1", "--L", "4"]
# the 1,456 words of this ball are 12 row blocks of singular_gaps' SVD
FUCHSIAN71_L6 = ["--family", "fuchsian", "--partition", "7,1", "--k", "2",
                 "--L", "6"]


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

    @pytest.mark.parametrize("args,digests", [
        (FG_L4, {"scan.json": "3ddf0d1b66064c7ce0b16d7e70961bfb"
                              "71d8a648a25fb77140c8ca8c91146ba9"}),
        ([*FG_L4, "--format", "csv"], {
            "scan.csv": "f65bf582e48051e6f9a26dc7dfb6b28b"
                        "310dc6668b2db42815c0de6479ce9402",
            "scan.csv.schema.json": "4206acb8d44279170ffc5e13f08a08fa"
                                    "1d843ff0af5cffbd36ad7bce6c673fc7"}),
        (FUCHSIAN71_L6, {"scan.json": "effa689fe2f8164e2c966686400249f1"
                                      "e5b71a00660653b8de326731bc580709"}),
        ([*FUCHSIAN71_L6, "--format", "csv"], {
            "scan.csv": "9bf23243d7c41203a5ce528485713dc7"
                        "361125389da2a8f9ca19266235d7f4fb",
            "scan.csv.schema.json": "4206acb8d44279170ffc5e13f08a08fa"
                                    "1d843ff0af5cffbd36ad7bce6c673fc7"}),
    ], ids=["json", "csv", "7,1-k2-L6-json", "7,1-k2-L6-csv"])
    def test_output_bytes_pinned(self, tmp_path, args, digests):
        out = tmp_path / next(iter(digests))
        assert run(["gap-scan", *args, "--out", str(out)]) == 0
        assert {name: hashlib.sha256(
                    (tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

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

    def test_near_parabolic_reference_exit_3(self, tmp_path, capsys):
        # |trace| = 2 + 9e-10 passed a |trace| > 2 test, but the ball reads
        # no fixed point below LOXODROMIC_TRACE: eigen-identities then
        # crashed on an empty set of words
        rep = fg_rep(1.0)
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({
            "dim": 3, "generators": [g.tolist() for g in rep.generator_images],
            "reference": {"dim": 2, "generators": [
                [[1.00003, 0.0], [0.0, 1 / 1.00003]],
                [[1.0, 1.0], [9e-10, 1 + 9e-10]]]}}))
        assert run(["check", "eigen-identities", "--rep", str(path),
                    "--k", "1", "--L", "1"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError",
            "message": "reference generators must be loxodromic (|trace| > 2)"}

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

    @pytest.mark.parametrize("args,digest", [
        (["Hk", "--family", "fuchsian", "--partition", "5,1", "--k", "1",
          "--L", "3"], "54c6f7c32df100d15c2f5afc71b235cd"
                       "7f2d8c8402bd974a818737317c03d47d"),
        (["Hk", "--family", "fuchsian", "--partition", "7,1", "--k", "2",
          "--L", "2"], "358498678ee7dd5c6726231a2c6cf8bb"
                       "ab132578e17f797b0ce010003e2e3e3c"),
        (["Ck", "--family", "fuchsian", "--partition", "7,1", "--k", "1",
          "--L", "2"], "603bd481549f0f72e68600a5c1d7dcae"
                       "0949ce9c028868d24daf6076d3baee83"),
        (["hyperconvex", "--family", "fg", "--x", "1", "--k", "1",
          "--L", "3"], "f43df793731087ba8a05097eea9446df"
                       "09156b0be0e7ce2faaa5ec0189813e77"),
        (["pos-ratioed", "--family", "fg", "--x", "1", "--k", "1",
          "--L", "3"], "48f81b17fee68f1c9a584e241accfd8a"
                       "784d1be6091b7382d2d3f355100835d4"),
        (["eigen-identities", "--family", "fg", "--x", "1", "--k", "1",
          "--L", "2"], "22afe5a362ae65d9365ed99b5c1af2c3"
                       "ab0382b3bcb77a62f859f3cb8b786b52"),
    ], ids=["Hk-5,1-k1-L3", "Hk-7,1-k2-L2", "Ck-7,1-k1-L2",
            "hyperconvex-fg-L3", "pos-ratioed-fg-L3",
            "eigen-identities-fg-L2"])
    def test_output_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "r.json"
        assert run(["check", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    @pytest.mark.parametrize("args, rep, k", [
        (["--family", "fg", "--x", "1"], lambda: fg_rep(1.0), 1),
        (["--family", "fuchsian", "--partition", "5,1"],
         lambda: fuchsian_locus((5, 1), punctured_torus_reference()), 2),
    ], ids=["fg-x1-k1", "fuchsian51-k2"])
    def test_json_and_csv_write_the_report_rows(self, tmp_path, args, rep,
                                                k):
        # both writers read CollarTable.columns, whose keys are
        # CollarReport's fields in order; their rows are the reports'
        table = ver.collar_scan(rep(), k, 3)
        names = [f.name for f in dataclasses.fields(ver.CollarReport)]
        assert list(table.columns(table.words)) == names
        reports = list(table)
        rows = [r.to_dict() for r in reports]
        status = int(not all(r.holds and r.weight_chain_ok for r in reports))
        json_out, csv_out = tmp_path / "c.json", tmp_path / "c.csv"
        command = ["collar", *args, "--k", str(k), "--L", "3"]
        assert run([*command, "--out", str(json_out)]) == status
        assert json.loads(json_out.read_text())["pairs"] == rows
        assert run([*command, "--format", "csv",
                    "--out", str(csv_out)]) == status
        schema = json.loads((tmp_path / "c.csv.schema.json").read_text())
        parse = {"string": str, "integer": int, "number": float,
                 "boolean": {"True": True, "False": False}.__getitem__}
        types = {c["name"]: parse[c["type"]] for c in schema["columns"]}
        with open(csv_out, newline="") as fh:
            parsed = [{name: types[name](value) for name, value in row.items()}
                      for row in csv.DictReader(fh)]
        assert list(types) == names
        assert parsed == rows

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

    @pytest.mark.parametrize("args,digests", [
        (["--x", "1", "--L", "4"], {
            "collar.json": "e737ada76f357b4fa039cacb0093dc2a"
                           "450ba4ebfc1e0bdc0d074c906e0ab0d5"}),
        (["--x", "0.6", "--L", "4"], {
            "collar.json": "033cecda5949c6e846cebe565394d518"
                           "1d2ed648fe2e870b6469165d736dafd4"}),
        (["--x", "1", "--L", "3", "--format", "csv"], {
            "collar.csv": "0895b8d470ec4d822b8e2d7bfb062daa"
                          "73fb91437ea038fbdfe2d1097479bf39",
            "collar.csv.schema.json": "7ff3819d1998ad4ac4cf21de14d04ece"
                                      "e7eef5d1d04cfde2d7fcd89b8188c1a2"}),
    ], ids=["json-x1-L4", "json-x0.6-L4", "csv-x1-L3"])
    def test_output_bytes_pinned(self, tmp_path, capsys, args, digests):
        # the bytes the per-report writer produced before the scan became a
        # column table; the csv summary on stdout is pinned too
        out = tmp_path / next(iter(digests))
        assert run(["collar", "--family", "fg", "--k", "1", *args,
                    "--out", str(out)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests
        if "csv" in args:
            assert json.loads(capsys.readouterr().out) == {
                "command": "collar", "n_pairs": 1944, "all_hold": True,
                "min_margin": 45.80789337049672, "weight_chain_ok": True}


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

    @pytest.mark.parametrize("args,digest", [
        (["--x-min", "1e-6", "--x-max", "1", "--points", "25", "--log-grid"],
         "f117b9c1bfbba485f0cf6d607598bbee5511f32f29684578e433109ada29aa09"),
        (["--x-min", "1e-12", "--x-max", "1e6", "--points", "400",
          "--log-grid"],
         "d46f26e258946a99c34c0a21105ea43d5295343e30aa0f6f83cc25b0504fe52a"),
        (["--x-min", "0.1", "--x-max", "1", "--points", "5"],
         "3d4b25968b8c3792fdb3f851c834cfbfee1868498b863500a3d6cbe65466bffc"),
    ], ids=["log-25", "log-400", "linear-5"])
    def test_output_bytes_pinned(self, tmp_path, capsys, args, digest):
        # the bytes of the one-generator-at-a-time scan, to file and stdout
        out = tmp_path / "grid.csv"
        assert run(["fg-scan", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert hashlib.sha256(
            (tmp_path / "grid.csv.schema.json").read_bytes()).hexdigest() == (
            "b65cd0f270917c4e35a89d81f033295c0c9689e7d601c289e48a3c397fde5c5d")
        capsys.readouterr()
        assert run(["fg-scan", *args]) == 0
        assert hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest() == digest

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

    def test_negative_seed_exit_3(self, capsys):
        # the generator would raise a bare ValueError and exit 1
        assert run(["sopq", "--p", "4", "--q", "5", "--count", "1",
                    "--seed", "-1"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "message": "seed=-1 is negative"}

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
