"""The command-line surface: formats, determinism, exit codes."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from marking_oracle import self_conjugate_by_markings

from qranks import cli, combinat, genfun


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestSeriesCommand:
    def test_uk_records(self, capsys):
        code, out, _ = run(capsys, "series", "--function", "uk", "--k", "2",
                           "--n-max", "4", "--format", "json")
        assert code == 0
        records = json_lines(out)
        triples = [(r["n"], tuple(r["exponents"]), r["value"]) for r in records]
        assert triples == [(3, (0, 0), 1), (4, (-1, 0), 1), (4, (0, 0), 1)]
        assert all(r["schema"] == "qranks.series/1" for r in records)

    def test_partition_values(self, capsys):
        code, out, _ = run(capsys, "series", "--function", "partition",
                           "--n-max", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exponents,value"
        assert [line.split(",")[-1] for line in lines[1:]] == ["1", "1", "2", "3", "5"]

    def test_psi_single_record(self, capsys):
        code, out, _ = run(capsys, "series", "--function", "psi", "--n-max", "1")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 1
        assert (records[0]["n"], records[0]["value"]) == (1, 1)

    def test_records_sorted_by_order_then_exponents(self, capsys):
        _, out, _ = run(capsys, "series", "--function", "uk", "--k", "2",
                        "--n-max", "7")
        records = json_lines(out)
        keys = [(r["n"], tuple(r["exponents"])) for r in records]
        assert keys == sorted(keys)

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "series", "--function", "rk", "--k", "2",
                          "--n-max", "8")
        _, second, _ = run(capsys, "series", "--function", "rk", "--k", "2",
                           "--n-max", "8")
        assert first == second

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--function", "uk", "--n-max", "3")
        assert code == 2
        assert "requires --k" in err

    def test_unwanted_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--function", "psi", "--n-max", "3",
                           "--k", "2")
        assert code == 2
        assert "does not take --k" in err

    def test_form_validation(self, capsys):
        code, _, err = run(capsys, "series", "--function", "psi", "--n-max", "3",
                           "--form", "raw")
        assert code == 2
        assert "--form" in err

    def test_omega_eps_requires_k_at_least_two(self, capsys):
        code, _, err = run(capsys, "series", "--function", "omega-eps",
                           "--n-max", "5", "--k", "1")
        assert code == 2

    def test_scuk_forms_agree(self, capsys):
        _, raw, _ = run(capsys, "series", "--function", "scuk", "--k", "2",
                        "--n-max", "12", "--form", "raw")
        _, simplified, _ = run(capsys, "series", "--function", "scuk", "--k", "2",
                               "--n-max", "12", "--form", "simplified")
        assert raw == simplified


# SHA-256 of `qranks series --format json` for every function and form,
# recorded before the series kernel and the genfun index enumerator were
# consolidated: the refactor must not move a single byte.
GOLDEN_SERIES = [
    ("partition", None, 30, None, "d7bcd838465946235825fe7385b139bd3ff376ee2b38dc21c1ffcbf5bb0b3dce"),
    ("r1", None, 30, None, "0134c034912cdbe9d2d639fc706a044dea569731a6b9edaf03b38f78d4cd0dbd"),
    ("u1", None, 30, None, "1f8e7d34510768a8d68993834a34e67140212c800f33dcc6362526086533a81a"),
    ("psi", None, 30, 'theta', "4a3ed5f48db88436930f3541155e37c5a625e354f652298e1f4c5f8dbc85fd66"),
    ("psi", None, 30, 'pochhammer', "4a3ed5f48db88436930f3541155e37c5a625e354f652298e1f4c5f8dbc85fd66"),
    ("psi", None, 30, 'enumerative', "4a3ed5f48db88436930f3541155e37c5a625e354f652298e1f4c5f8dbc85fd66"),
    ("rk", 2, 14, None, "221c16e3b2d626b5562301fd6667e793c43a903502fcee18e95a3017a2352e5f"),
    ("rk", 3, 14, None, "f248a466227da8c4bd7b3ca077a1c3cce2df0b54956c3f1b13a3f3b4407501a5"),
    ("uk", 2, 14, None, "93d19cf9511f6461f2d1607fdf62aabee4f1a99394693b4365a9d034bb342b03"),
    ("uk", 3, 14, None, "977c8916ff8c4ad50b04f64cddf319e6638349831ad6bd2e07a4d01637eb61dd"),
    ("scuk", 2, 20, 'raw', "2b7b3a115a5f1090b8219c0de62ac8113ce19a14693a54493c2ee9add3d6f825"),
    ("scuk", 2, 20, 'simplified', "2b7b3a115a5f1090b8219c0de62ac8113ce19a14693a54493c2ee9add3d6f825"),
    ("scuk", 3, 20, 'raw', "95e69cb15fe7278e4011f88d5e12c26888de4bb2c4967fae3f89ccbcba343168"),
    ("scuk", 3, 20, 'simplified', "95e69cb15fe7278e4011f88d5e12c26888de4bb2c4967fae3f89ccbcba343168"),
    ("omega-eps", 2, 20, None, "ec9c2070d8bbc6e9cc19ac22ae5ae218101880490a988d9c015d09b8e04ec2c5"),
    ("omega-eps", 3, 20, None, "ce3c842e18c6535eeb7708568831e43650924c3ad6ac2bafdeb61554fb1c1f91"),
]


@pytest.mark.parametrize("function,k,n_max,form,digest", GOLDEN_SERIES)
def test_series_output_golden(capsys, function, k, n_max, form, digest):
    argv = ["series", "--function", function, "--n-max", str(n_max), "--format", "json"]
    if k is not None:
        argv += ["--k", str(k)]
    if form is not None:
        argv += ["--form", form]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `qranks enumerate --format csv`, recorded before the combinat
# parts enumerator and marking loop were consolidated: same rows, same order.
GOLDEN_ENUMERATE = [
    ("kdurfee", 1, 4, "33300a0c8e0fb2d1c69e13a88bb65c0e73fefc5ca99457982103d41bfa182c81"),
    ("kdurfee", 1, 7, "ce95b5b2966fb8cdd0f26e191a58c7e2ffa43a011e98faa88c609fd8361ef409"),
    ("kdurfee", 1, 10, "f20763fee560a3336c29cf665259d9f2e44a4051c714d0618e8f69a65a51f2b5"),
    ("kdurfee", 2, 4, "e97c8241f465c6d1623cc5d8b56213a18bcc7cee6fdda54d916b92eefe9c0d01"),
    ("kdurfee", 2, 7, "b2757e7b32146302f16be7b9f2682f231a568b42613b814d724ab1e677ece72a"),
    ("kdurfee", 2, 10, "f6b83ebb2e03f36ae53d24b143a6a1232d726ff6a23359e0693f009b501575b7"),
    ("kdurfee", 3, 4, "381949d893c087f9b1fcc5d106263941c94dfb54389aa8a82bc8ed382d9b2036"),
    ("kdurfee", 3, 7, "1e76a3f36d63025226d34a4b1c7cad3653636564a7b8c21a7ea0d3ce842ea9b4"),
    ("kdurfee", 3, 10, "482770c0c0638ab0b3ea96c0f3e33b9d32b9349f6037fbed4ac342f51fc77084"),
    ("ksu", 1, 4, "5aff41fefdba7d9293ec778a861a11deaeceea4b2d1fe8edc246df7c861f265d"),
    ("ksu", 1, 7, "7a2e3a2abeb2ca3f4b98918311e6dcc636d8e2c6a246135089c6842c3b17ff68"),
    ("ksu", 1, 10, "765330dca8455b6d05ce87724b2a3fe3de083322a7811125094c3c1b71b73548"),
    ("ksu", 2, 4, "129ec674ec5f070cf2ba03852ecf7017c0745645f69d87851380feb1d7d6dcf3"),
    ("ksu", 2, 7, "a71863f3d1b98d3c6f5b5eaf3ca1da137be8db822e8db7704c9810124fd08e31"),
    ("ksu", 2, 10, "b4d41bb099592ef935e814337ce88f98ba82662f93889d8c983087325ca3072c"),
    ("ksu", 3, 4, "2f0d8b10b09abc46bd45873dbfe5819fdd9a12fe34bf14bc3769b81f5593d1d7"),
    ("ksu", 3, 7, "6873efc86bff1708a2028e515f6c79c7102bb8d11f0e5a124324377340fb7412"),
    ("ksu", 3, 10, "07bf40dd7d2bb7a59a35bb7e17a6d41e4a58c969274435553c4698f8580ef354"),
    ("partition", None, 9, "aa50d60b6f5cbf1f02af43b0f2361fbe8d86ace409f778ce6875dce83520dd80"),
    ("su-seq", None, 9, "48f6d3137b5a12bd7a09bcf299937dda5a9fb03f49c9a8203f97c67a555f0efa"),
]


@pytest.mark.parametrize("obj,k,n,digest", GOLDEN_ENUMERATE)
def test_enumerate_output_golden(capsys, obj, k, n, digest):
    argv = ["enumerate", "--object", obj, "--n", str(n), "--format", "csv"]
    if k is not None:
        argv += ["--k", str(k)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSpecializeOption:
    def test_exact_at_minus_one(self, capsys):
        code, out, _ = run(capsys, "series", "--function", "u1", "--n-max", "6",
                           "--specialize", "1/2")
        assert code == 0
        records = json_lines(out)
        assert all(r["exact"] for r in records)
        by_n = {r["n"]: (r["re"], r["im"]) for r in records}
        assert by_n[4] == (0, 0)

    def test_numeric_csv_columns(self, capsys):
        code, out, _ = run(capsys, "series", "--function", "u1", "--n-max", "4",
                           "--specialize", "1/3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,re,im,error_bound"

    def test_angle_count_checked(self, capsys):
        code, _, err = run(capsys, "series", "--function", "uk", "--k", "2",
                           "--n-max", "4", "--specialize", "1/2")
        assert code == 2
        assert "2 angles" in err

    def test_variable_free_function_rejected(self, capsys):
        code, _, err = run(capsys, "series", "--function", "partition",
                           "--n-max", "4", "--specialize", "1/2")
        assert code == 2


class TestEnumerateCommand:
    def test_four_sequences(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--object", "su-seq", "--n", "4")
        assert code == 0
        records = json_lines(out)
        assert [r["render"] for r in records] == ["4", "1,3", "3,1", "1,2,1"]
        assert [r["ranks"] for r in records] == [[0], [-1], [1], [0]]

    def test_single_marked_symbol(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--object", "ksu", "--n", "3",
                           "--k", "2")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 1
        assert records[0]["ranks"] == [0, 0]
        assert records[0]["render"] == "(1_1 ; -)_2"

    def test_empty_partition_listed(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--object", "partition", "--n", "0")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 1
        assert records[0]["ranks"] is None

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--object", "kdurfee", "--n", "4",
                           "--k", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "index,n,k,ranks,render"

    def test_planted_y_census_defect_is_reported_in_x(self, capsys, monkeypatch):
        # thm-1-1 compares y_j = x_j + 1/x_j coefficients; one extra y_1 at
        # k = 2, n = 9 is x_1 + 1/x_1, and the first rank vector it moves is named
        walk = combinat.marked_durfee_censuses

        def planted(n_max, k, y_basis=False):
            censuses = walk(n_max, k, y_basis=y_basis)
            if k == 2:
                censuses[n_max][(1, 0)] = censuses[n_max].get((1, 0), 0) + 1
            return censuses

        monkeypatch.setattr(combinat, "marked_durfee_censuses", planted)
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-1", "--k-max", "2",
                           "--n-max", "9")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL suite=thm-1-1 k=2 n=9: ranks=(-1, 0): series 7 != census 8"]
        assert out.splitlines()[-1] == "summary: 18 cells, 17 passed, 1 failed"

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "enumerate", "--object", "ksu", "--n", "200",
                           "--k", "3")
        assert code == 2
        assert "budget" in err

    def test_missing_k_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "--object", "ksu", "--n", "4")
        assert code == 2


def _first_two_ranks_swapped(walk):
    """``walk`` with r_1 and r_2 exchanged in every key from k = 2 on."""
    def swapped(n_max, k, **basis):
        censuses = walk(n_max, k, **basis)
        if k < 2:
            return censuses
        return [{(r[1], r[0], *r[2:]): count for r, count in census.items()}
                for census in censuses]
    return swapped


class TestRuntimePerturbations:
    """Defects applied in process by wrapping a public walk or builder, so
    they survive any rewrite of the code they wrap."""

    def test_swapped_unimodal_ranks_are_reported(self, capsys, monkeypatch):
        # U_k is not symmetric in x_1, x_2: the first cell a swap moves is named
        monkeypatch.setattr(combinat, "marked_unimodal_censuses",
                            _first_two_ranks_swapped(combinat.marked_unimodal_censuses))
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-2", "--k-max", "3",
                           "--n-max", "12")
        assert code == 1
        assert next(line for line in out.splitlines() if line.startswith("FAIL")) == (
            "FAIL suite=thm-1-2 k=2 n=4: ranks=(-1, 0): series 1 != census 0")
        assert out.splitlines()[-1] == "summary: 36 cells, 22 passed, 14 failed"

    def test_swapped_durfee_ranks_pass_as_r_k_is_symmetric(self, capsys, monkeypatch):
        # the same swap on the y keys changes no coefficient of R_k
        monkeypatch.setattr(combinat, "marked_durfee_censuses",
                            _first_two_ranks_swapped(combinat.marked_durfee_censuses))
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-1")
        assert code == 0
        assert out.splitlines()[-1] == "summary: 36 cells, 36 passed, 0 failed"

    def test_dropped_series_term_is_named_by_its_cell(self, capsys, monkeypatch):
        build = genfun.marked_unimodal_rank_series

        def dropped(k, n_max):
            series = build(k, n_max)
            if k == 2:
                del series.coeffs[9].terms[(0, 0)]
            return series

        monkeypatch.setattr(genfun, "marked_unimodal_rank_series", dropped)
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-2", "--k-max", "3",
                           "--n-max", "12")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL suite=thm-1-2 k=2 n=9: ranks=(0, 0): series 0 != census 8"]
        assert out.splitlines()[-1] == "summary: 36 cells, 35 passed, 1 failed"


class TestVerifyCommand:
    def test_thm15_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-5", "--k-max", "2",
                           "--n-max", "12")
        assert code == 0
        assert out.splitlines()[-1].startswith("summary:")
        assert "0 failed" in out.splitlines()[-1]

    def test_psi_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "psi", "--n-max", "25")
        assert code == 0

    def test_vacuous_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-2", "--k-max", "1",
                           "--n-max", "0")
        assert code == 0
        assert "0 cells" in out

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n-max", "6",
                           "--format", "json")
        assert code == 0
        records = json_lines(out)
        assert records[-1]["summary"]["failed"] == 0
        assert all(r.get("status") == "pass" for r in records[:-1])

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(combinat, "count_complete_odd_partitions", lambda n: 999)
        code, out, _ = run(capsys, "verify", "--suite", "psi", "--n-max", "5")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("patches,argv,fails", [
        ({"durfee_recompose": lambda d: None}, "bijections --n-max 2",
         ["bijection=durfee n=1: partition 1", "bijection=durfee n=2: partition 2"]),
        ({"odd_parts_to_self_conjugate": lambda p: p}, "bijections --n-max 2",
         ["bijection=self-conjugate n=1: symbol ((empty) ; (empty))_1",
          "bijection=self-conjugate n=2: symbol ((empty) ; (empty))_2"]),
        # the odd-part direction, checked once the symbol direction holds
        ({"enumerate_self_conjugate_symbols": lambda n: [],
          "self_conjugate_to_odd_parts": lambda p: p}, "bijections --n-max 2",
         ["bijection=self-conjugate n=1: partition 1",
          "bijection=self-conjugate n=2: partition 1+1"]),
        ({"marked_unimodal_counts": lambda n_max, k_max, symmetric=False:
          [[7] * (n_max + 1)] * k_max}, "thm-1-5 --n-max 2 --k-max 2",
         ["k=2 n=1: self-conjugate count=7; raw series=0; simplified series=0; "
          "signed parity difference=0",
          "k=2 n=2: self-conjugate count=7; raw series=0; simplified series=0; "
          "signed parity difference=0"]),
        # the series has {(0,): 1} at n = 1 and at n = 2; the first differing
        # rank vector is reported, one the series lacks counting as 0
        ({"marked_unimodal_censuses": lambda n_max, k: [{}, {(0,): 1, (1,): 2}, {(0,): 2}]},
         "thm-1-2 --n-max 2 --k-max 1",
         ["k=1 n=1: ranks=(1,): series 0 != census 2",
          "k=1 n=2: ranks=(0,): series 1 != census 2"]),
        # a census that stores a 0 differs from the series in its keys alone
        ({"marked_unimodal_censuses": lambda n_max, k: [{}, {(0,): 1, (5,): 0}, {(0,): 1}]},
         "thm-1-2 --n-max 2 --k-max 1",
         ["k=1 n=1: coefficient sets differ"]),
    ])
    def test_mismatch_details(self, capsys, monkeypatch, patches, argv, fails):
        for name, replacement in patches.items():
            monkeypatch.setattr(combinat, name, replacement)
        code, out, _ = run(capsys, "verify", "--suite", *argv.split())
        assert code == 1
        suite = argv.split()[0]
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL suite={suite} {fail}" for fail in fails]

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "thm-1-2", "--n-max", "80",
                           "--k-max", "3")
        assert code == 2
        assert "budget" in err

    def test_thm15_marks_past_every_symbol(self, capsys):
        # no symbol of size <= 6 has 4 or 5 marks: k = 5 reads the count
        # table's last row, which stops at k = 4 and is all 0
        code, out, _ = run(capsys, "verify", "--suite", "thm-1-5", "--n-max", "6",
                           "--k-max", "5")
        assert code == 0
        assert "0 failed" in out.splitlines()[-1]

    def test_all_suites_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "8",
                           "--k-max", "2")
        assert code == 0
        assert "0 failed" in out.splitlines()[-1]


# (argv, stderr) of usage errors and budget refusals, recorded before the
# subcommands were rebuilt around one table each.  The order of the checks is
# part of the contract: the budget check runs before --n and --k are checked,
# --n before --k, --k before --form, and --form before --n-max.
USAGE_ERRORS = [
    ('series --function uk --n-max 3',
     'error: --function uk requires --k'),
    ('series --function psi --n-max 3 --k 2 --form raw',
     'error: --function psi does not take --k'),
    ('series --function partition --n-max 3 --form raw',
     'error: --function partition does not take --form'),
    ('series --function scuk --k 2 --n-max 3 --form bogus',
     "error: --form for scuk must be one of ('raw', 'simplified')"),
    ('series --function psi --n-max 3 --form raw',
     "error: --form for psi must be one of ('theta', 'pochhammer', 'enumerative')"),
    ('series --function scuk --k 2 --n-max -1 --form bogus',
     "error: --form for scuk must be one of ('raw', 'simplified')"),
    ('series --function omega-eps --k 1 --n-max 5',
     'error: defined for k >= 2 only'),
    ('series --function rk --k 0 --n-max 3',
     'error: k must be >= 1'),
    ('series --function r1 --n-max -1',
     'error: --n-max must be >= 0'),
    ('series --function partition --n-max 4 --specialize 1/2',
     'error: --function partition has no x variables'),
    ('series --function uk --k 2 --n-max 4 --specialize 1/2',
     'error: --specialize needs 2 angles, got 1'),
    ('series --function u1 --n-max 4 --specialize x',
     "error: bad angle list: Invalid literal for Fraction: 'x'"),
    ('series --function u1 --n-max 4 --specialize 1/0',
     'error: bad angle list: Fraction(1, 0)'),
    ('enumerate --object partition --n 600 --k 2',
     'error: estimated inf objects exceeds budget 100000000; '
     'sizes above 500 are refused whatever the budget'),
    ('enumerate --object su-seq --n 0 --k 2',
     'error: --n must be >= 1 for this object'),
    ('enumerate --object kdurfee --n 0 --k 2 --budget 0',
     'error: --n must be >= 1 for this object'),
    ('enumerate --object partition --n -1',
     'error: --n must be >= 0 for partitions'),
    ('enumerate --object partition --n 3 --k 1',
     'error: --object partition does not take --k'),
    ('enumerate --object su-seq --n 3 --k 1',
     'error: --object su-seq does not take --k'),
    ('enumerate --object ksu --n 4',
     'error: --object ksu requires --k >= 1'),
    ('enumerate --object kdurfee --n 4 --k 0',
     'error: --object kdurfee requires --k >= 1'),
    ('enumerate --object ksu --n 200 --k 3',
     'error: estimated 1.9e+14 objects exceeds budget 100000000; raise --budget to force'),
    ('enumerate --object kdurfee --n 30 --k 4',
     'error: estimated 1.67e+11 objects exceeds budget 100000000; raise --budget to force'),
    ('enumerate --object partition --n 5 --budget 6',
     'error: estimated 7 objects exceeds budget 6; raise --budget to force'),
    ('enumerate --object su-seq --n 20 --k -1 --budget 10',
     'error: estimated 751 objects exceeds budget 10; raise --budget to force'),
    ('verify --suite psi --n-max -1',
     'error: --n-max must be >= 0'),
    ('verify --suite thm-1-2 --k-max 0',
     'error: --suite thm-1-2 requires --k-max >= 1'),
    ('verify --suite all --n-max -1 --k-max 0',
     'error: --n-max must be >= 0'),
    ('verify --suite thm-1-5 --n-max 3 --k-max 0',
     'error: --suite thm-1-5 requires --k-max >= 1'),
    ('verify --suite thm-1-2 --n-max 80 --k-max 3',
     'error: estimated 2.42e+09 objects exceeds budget 100000000; raise --budget to force'),
    ('verify --suite thm-1-2 --n-max 500 --k-max 3',
     'error: estimated 7.94e+24 objects exceeds budget 100000000; raise --budget to force'),
    ('verify --suite thm-1-1 --n-max 40',
     'error: estimated 2.92e+08 objects exceeds budget 100000000; raise --budget to force'),
    ('verify --suite all --n-max 400',
     'error: estimated 1.65e+25 objects exceeds budget 100000000; raise --budget to force'),
    ('verify --suite psi --n-max 501',
     'error: estimated inf objects exceeds budget 100000000; '
     'sizes above 500 are refused whatever the budget'),
    ('verify --suite psi --n-max 501 --budget ' + str(10 ** 30),
     f'error: estimated inf objects exceeds budget {10 ** 30}; '
     'sizes above 500 are refused whatever the budget'),
    ('verify --suite psi --n-max 0 --budget 0',
     'error: estimated 1 objects exceeds budget 0; raise --budget to force'),
    ('verify --suite bijections --n-max 5 --budget 0',
     'error: estimated 34 objects exceeds budget 0; raise --budget to force'),
    ('verify --suite thm-1-5 --n-max 30 --k-max 3 --budget 10',
     'error: estimated 5.86e+04 objects exceeds budget 10; raise --budget to force'),
    ('verify --suite thm-1-5 --n-max 80',
     'error: estimated 2.47e+08 objects exceeds budget 100000000; raise --budget to force'),
    ('verify --suite all --budget 1000',
     'error: estimated 1.81e+06 objects exceeds budget 1000; raise --budget to force'),
    # estimates past float range print as inf, like sizes past the cap
    ('enumerate --object kdurfee --n 500 --k 500',
     'error: estimated inf objects exceeds budget 100000000; raise --budget to force'),
    ('verify --suite thm-1-1 --n-max 300 --k-max 300',
     'error: estimated inf objects exceeds budget 100000000; raise --budget to force'),
    # the kdurfee bounds are 0 below size k, so k past n_max adds nothing
    ('verify --suite thm-1-1 --n-max 20 --k-max 100000 --budget 1',
     'error: estimated 4.1e+24 objects exceeds budget 1; raise --budget to force'),
]


# A budget refusal is named by its argv alone, so a changed estimate renames
# no test; the other refusals keep pytest's own "<argv>-<stderr>" ids.
@pytest.mark.parametrize("argv,err", USAGE_ERRORS, ids=[
    argv if err.startswith("error: estimated ") else None
    for argv, err in USAGE_ERRORS])
def test_usage_errors_and_refusals(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", err + "\n")


def test_specialize_refuses_bad_angles_before_the_full_build(capsys, monkeypatch):
    # the angles are checked against the series at q^0, so a refusal costs
    # no build at --n-max
    asked = []
    original = genfun.partition_series

    def recording(n_max):
        asked.append(n_max)
        return original(n_max)

    monkeypatch.setattr(genfun, "partition_series", recording)
    assert run(capsys, *"series --function partition --n-max 3000 --specialize 1/2".split()) == (
        2, "", "error: --function partition has no x variables\n")
    assert asked == [0]


def test_parser_choices_and_help():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def option(command, flag):
        return next(a for a in sub.choices[command]._actions if flag in a.option_strings)

    assert option("series", "--function").choices == [
        "partition", "r1", "rk", "u1", "uk", "scuk", "psi", "omega-eps"]
    assert option("enumerate", "--object").choices == [
        "partition", "su-seq", "kdurfee", "ksu"]
    assert option("verify", "--suite").choices == [
        "thm-1-2", "thm-1-1", "thm-1-5", "psi", "bijections", "all"]
    assert option("series", "--k").help == "mark count (rk/uk/scuk/omega-eps)"
    assert option("series", "--form").help == (
        "scuk: raw|simplified; psi: theta|pochhammer|enumerative")


# SHA-256 of `qranks verify` and `qranks series --specialize` output (1/4,1/2
# takes the exact path, 1/3,1/5 the numeric one), recorded before the
# subcommands were rebuilt around one table each.
GOLDEN_OUTPUT = [
    ('verify --suite all --n-max 8 --k-max 2',
     'f888377e8b205ee0dbb5c7f8fe7bed663c732a12d23dc8b62d458a703182a6ea'),
    ('verify --suite all --n-max 8 --k-max 2 --format json',
     '144b47bdc39ada1512f03804c527a99a2e2be6e2488dff4959d78e94166bf0f0'),
    ('series --function uk --k 2 --n-max 10 --specialize 1/4,1/2',
     '413f2a4f14199363cda73b54cbf8c747a3cfb9978a1b1aeaf85a47367f0c877f'),
    ('series --function uk --k 2 --n-max 10 --specialize 1/4,1/2 --format csv',
     '3f6e906e348f5ba314beaa4f41280532919b08669abf8efc83b84a958fb246df'),
    ('series --function uk --k 2 --n-max 10 --specialize 1/3,1/5',
     '03e0de044cd8869dd8c0705953202b6fb38eeb8b6968bab14eeb487c9dcff0ad'),
    ('series --function uk --k 2 --n-max 10 --specialize 1/3,1/5 --format csv',
     'add6b23dcce822e21bb53a261851983d1d6e338fb60ad815358188f45d04ae72'),
    # recorded later than the entries above; omega-eps is read from
    # combinat.even_part_parity_counts
    ('series --function omega-eps --k 3 --n-max 60',
     '5a4d0ea9debfe96d7013599b3ed32911318386666c982c858339029a2c12ad9b'),
    ('verify --suite thm-1-5 --n-max 60 --k-max 4',
     '1a74046502196ddb6333faa7f5a979c6a39090076a871f04384166cec0139a0a'),
    # the benchmark's size: the numeric specializer on 1890 monomials
    ('series --function rk --k 2 --n-max 16 --specialize 1/5,2/5 --format csv',
     '79f639616a2645fc4ae4ac99debca18dadd7782f3b6b971ba9505ffe1703e2c1'),
    # k = 3 marked listings: rows and order
    ('enumerate --object ksu --n 12 --k 3 --format csv',
     'b6970f49f77ed2fd193aff9c74d52e93e2b30ded6d6763445237765f0a647616'),
    ('enumerate --object kdurfee --n 9 --k 3 --format csv',
     'fb8e8b1e2c6b31d240ba00ff36c19ad19527b07b779097ebf73c5bdd5720418b'),
    # large k: the inner nested sums of R_k keep only the q-powers their
    # outer indices leave room for
    ('verify --suite thm-1-1 --n-max 14 --k-max 10 --budget 100000000000000000',
     '08c1a60454b348f82d3e19c039e31da80a8d4de799f3de570afa6c73645e888a'),
    # nested sums: the simplified self-conjugate form applies (-q^2; q^2)_(b-1)
    # one binomial at a time, and R_3 divides by two binomials per step
    ('series --function scuk --k 3 --n-max 60 --form simplified',
     '1e35084510f4f78d97ad6b93be21bf9912d44da33e14d5f75015540738acad3a'),
    ('series --function rk --k 3 --n-max 20',
     '3b787954ed18e0d25ccb7d61053d515af05fde479658a54a67235d9da31d4533'),
    # recorded from the x-basis comparison before thm-1-1 moved to
    # y_j = x_j + 1/x_j: a passing run prints the same bytes in either basis
    ('verify --suite thm-1-1 --k-max 3 --n-max 40 --budget 100000000000000000000',
     '09ee54a7f553eacae2486db99e8a9309c054161f15ff66faeb03f40a22f51105'),
    # recorded before the records writer was rebuilt column by column: JSON
    # listings (null k and ranks at n = 0), CSV series with empty exponent
    # lists, and the benchmark's build-uk output
    ('enumerate --object partition --n 0 --format json',
     'e057d06f3e4253bf6cf139cc9bf404a795ef00638330928c93cc8de6c0112a5f'),
    ('enumerate --object su-seq --n 9 --format json',
     '44e5c4362cba0ef0c5a1cdec921b21210f763331cee8365344531801871b971b'),
    ('enumerate --object ksu --n 12 --k 3 --format json',
     '25bb7737b419c450c2a9d2987eea750b28f70e3417a56eaf8191520c59ac11fa'),
    ('enumerate --object kdurfee --n 9 --k 2 --format json',
     '29dfc3d6d02a7e3b7e26624df12cfddf7f2ea6126691798918c3399658990fb5'),
    ('series --function partition --n-max 30 --format csv',
     '24907340b41ecf2a0f0fccf31675f77ae9c660452829686e735d4007d0488d53'),
    ('series --function rk --k 3 --n-max 14 --format csv',
     '73b3ebd1421704a04ee8528b7b1ec08523cafe15a37f096c9f42f0102668f5aa'),
    ('series --function uk --k 3 --n-max 22 --format json',
     '435cc744f8254d2974408e5e6509c34de15b7b4b2cbe71130a615dacd3eb74ad'),
    # recorded before the parts enumerator, the Durfee conjugates and the
    # unimodal listing were rewritten: the bijections suite at its defaults
    # and the plain listings' order at n = 20
    ('verify --suite bijections --format json',
     'a53140dd96114492c5e45ceb5118176f68e298dc4f828b6c57319e71a83ae0e2'),
    ('enumerate --object partition --n 20 --format csv',
     '1cf527c524adc4473fa440b0122de7fd294b6c624f70eeb41aa237d4861b1e59'),
    ('enumerate --object su-seq --n 20 --format csv',
     'fc899bec416db71787619856306d8b4df231defaa3fc88c21b1bc5ba05254a8d'),
    # the benchmark's census-durfee and verify-all commands, as in
    # bench/reference.json, recorded before the x censuses became the y walk
    # rewritten in x
    ('verify --suite thm-1-1 --k-max 2 --n-max 17 --format json',
     '45343250e05f6e022aee0aff3c0b2338d4cf02c2177a46efa82498bc00787dfe'),
    ('verify --suite all --n-max 14 --format json',
     '32c4583111f6557e49fef302dbcd4654c8c20643b0076dc08dab9134b03d9924'),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_OUTPUT)
def test_verify_and_specialize_golden(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ci_reads_its_digests_from_golden_outputs():
    # the workflow runs the installed script on every GOLDEN_OUTPUT row and
    # holds no digest of its own that could fall out of step with them
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
                / "tests.yml").read_text()
    assert "GOLDEN_OUTPUT" in workflow
    assert re.findall(r"[0-9a-f]{64}", workflow) == []


def _csv_field_per_record(value) -> str:
    # each CSV field as it was written one record at a time, before the
    # column-wise writer: the reference for its CSV rows
    if value is None:
        return ""
    if isinstance(value, list):
        return "[" + " ".join(str(v) for v in value) + "]"
    return str(value)


_TEXT = st.one_of(st.text(max_size=6),
                  st.text('"\\{},:\n\u00e9\u2028\U0001d400', max_size=6))
_INTS = st.one_of(st.integers(-5, 5), st.integers(min_value=2 ** 64),
                  st.integers(max_value=-(2 ** 64)), st.integers())
_SCALARS = st.one_of(_INTS, st.booleans(), st.none(), _TEXT,
                     st.floats(), st.sampled_from([-0.0, 1e300, math.nan, math.inf]))
# a column holds exact ints, lists of exact ints (perhaps empty), lists that
# mix ints with other values, or anything
_COLUMNS = [_INTS, st.lists(_INTS, max_size=3), st.lists(_SCALARS, max_size=3),
            st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))]


@st.composite
def _tables(draw):
    """(schema, fixed fields, column names, rows) with distinct field names."""
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True)
                 .filter(lambda ns: "schema" not in ns))
    fixed = draw(st.dictionaries(_TEXT.filter(lambda k: k not in names and k != "schema"),
                                 _SCALARS, max_size=2))
    values = [draw(st.sampled_from(_COLUMNS)) for _ in names]
    return draw(_TEXT), fixed, tuple(names), draw(st.lists(st.tuples(*values), max_size=9))


@settings(max_examples=300, deadline=None)
@given(_tables())
@example(("s", {"exact": False}, ("n", "flag", "v"),
          [(0, True, -0.0), (2 ** 70, False, math.nan)]))
@example(("s", {"k": None}, ("ranks", "render"), [([], "(empty)"), ([-1, 2], '"\\\u00e9')]))
@example(("s", {}, ("ranks",), [([1, True],), ([None, 2.5],)]))
def test_writer_matches_json_dumps_and_csv_fields(table):
    # every JSON line is json.dumps of the whole record and every CSV row the
    # per-record fields, whichever chunk a row falls in
    schema, fixed, columns, rows = table
    written = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK_ROWS", 4)
        for fmt in ("json", "csv"):
            out = io.StringIO()
            cli._write_records(out, fmt, schema, fixed, columns, iter(rows))
            written[fmt] = out.getvalue()
    assert written["json"] == "".join(
        json.dumps({"schema": schema, **fixed, **dict(zip(columns, row))}) + "\n"
        for row in rows)
    assert written["csv"] == "".join(
        ",".join(map(_csv_field_per_record, line)) + "\n" for line in [columns, *rows])


def test_writer_spells_bools_as_json_and_writes_in_chunks(monkeypatch):
    writes = []
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    cli._write_records(SimpleNamespace(write=writes.append), "json", "s", {}, ("b", "n"),
                       [(True, 1), (False, 0), (True, 1)])
    assert writes == ['{"schema": "s", "b": true, "n": 1}\n'
                      '{"schema": "s", "b": false, "n": 0}\n',
                      '{"schema": "s", "b": true, "n": 1}\n']


def _module_run(argv):
    """`python -m qranks.cli ARGV...` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "qranks.cli", *argv.split()], env=env,
                          capture_output=True, timeout=120)


def test_module_entry_point():
    # `python -m qranks.cli` exits with main()'s code: 0 with the golden
    # stdout, and 2 with the error on stderr for a refused call
    argv, digest = GOLDEN_OUTPUT[0]
    ok = _module_run(argv)
    assert ok.returncode == 0, ok.stderr.decode()
    assert hashlib.sha256(ok.stdout).hexdigest() == digest
    refused = _module_run("series --function rk --n-max 3")
    assert refused.returncode == 2
    assert refused.stderr.decode().startswith("error:")


@pytest.mark.parametrize("argv", [
    "series --function rk --k 2 --n-max 16 --specialize 1/5,2/5 --format csv",
    "enumerate --object ksu --n 12 --k 3 --format csv",
])
def test_modules_loaded_on_first_use_in_a_fresh_process(argv):
    # `specialize` and `marked` load inside the command; in this process
    # earlier tests have loaded them already, so only a fresh one shows a
    # missing import
    result = _module_run(argv)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == dict(GOLDEN_OUTPUT)[argv]


@pytest.mark.parametrize("module,name,argv", [
    (genfun, "marked_unimodal_rank_series", "series --function uk --k 2 --n-max 4"),
    (genfun, "mock_theta_psi", "verify --suite psi --n-max 3"),
    (genfun, "marked_durfee_rank_series", "verify --suite thm-1-1 --n-max 3 --k-max 1"),
    (combinat, "marked_durfee_censuses", "verify --suite thm-1-1 --n-max 3 --k-max 1"),
    (combinat, "even_part_parity_counts", "verify --suite thm-1-5 --n-max 4 --k-max 2"),
    (combinat, "enumerate_marked_unimodal", "enumerate --object ksu --n 4 --k 2"),
    (combinat, "enumerate_marked_durfee", "enumerate --object kdurfee --n 4 --k 2"),
])
def test_tables_look_functions_up_at_call_time(capsys, monkeypatch, module, name, argv):
    # wrappers installed on module attributes after import (the benchmark's
    # spans do this) must see the calls the CLI makes
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    code, _, _ = run(capsys, *argv.split())
    assert code == 0
    assert calls


def test_budget_counts_match_enumerations():
    n_max = 14
    assert cli._partition_count_list(n_max) == [
        sum(1 for _ in combinat.enumerate_partitions(n)) for n in range(n_max + 1)]
    assert combinat.marked_unimodal_counts(n_max, 1) == [[0] + [
        sum(1 for _ in combinat.enumerate_su_sequences(n)) for n in range(1, n_max + 1)]]
    # the ksu column is exact, also past the least k whose counts are all 0
    # (a 6-marked symbol has size at least 21)
    for k in range(1, 8):
        assert cli._OBJECTS["ksu"][1](18, k) == [0] + [
            sum(combinat.rank_census_marked_unimodal(n, k).values()) for n in range(1, 19)]
    # the symmetric rows against the listed plain symmetric symbols, each
    # weighted by its markings
    assert combinat.marked_unimodal_counts(40, 5, symmetric=True) == [
        [0] + [self_conjugate_by_markings(n, k) for n in range(1, 41)]
        for k in range(1, 6)]
    # the kdurfee column is p(n) C(n+k-1, k-1)^2 from size k on, and 0
    # below it, also past the first k whose bounds are all 0
    partitions = cli._partition_count_list(n_max)
    for k in range(1, n_max + 4):
        assert cli._OBJECTS["kdurfee"][1](n_max, k) == [
            partitions[n] * math.comb(n + k - 1, k - 1) ** 2 if n >= k else 0
            for n in range(n_max + 1)]
    # and still an upper bound
    for k in range(1, 4):
        column = cli._OBJECTS["kdurfee"][1](n_max, k)
        assert all(column[n] >= sum(combinat.rank_census_marked_durfee(n, k).values())
                   for n in range(1, n_max + 1))


def test_thm_1_1_estimate_stops_at_the_first_zero_row():
    estimate = cli._SUITES["thm-1-1"][3]
    assert estimate(20, 10 ** 5) == estimate(20, 21) == estimate(20, 20)
