"""The command-line surface: formats, determinism, exit codes."""

import hashlib
import json

import pytest

from qranks import cli, combinat


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

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "enumerate", "--object", "ksu", "--n", "200",
                           "--k", "3")
        assert code == 2
        assert "budget" in err

    def test_missing_k_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "--object", "ksu", "--n", "4")
        assert code == 2


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

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "thm-1-2", "--n-max", "80",
                           "--k-max", "3")
        assert code == 2
        assert "budget" in err

    def test_all_suites_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "8",
                           "--k-max", "2")
        assert code == 0
        assert "0 failed" in out.splitlines()[-1]
