import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grosslat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyOrder:
    def test_builtin_fixtures_pass(self, capsys):
        for case in ("p11", "p31", "p19"):
            code, out, _ = run_cli(capsys, "verify-order", "--case", case)
            assert code == 0
            report = json.loads(out)
            assert report["ok"] is True
            assert all(c["pass"] for c in report["checks"])

    def test_p11_report_values(self, capsys):
        code, out, _ = run_cli(capsys, "verify-order", "--case", "p11")
        report = json.loads(out)
        assert report["reduced_discriminant"] == 11
        assert report["gross_det"] == "484"
        assert [row[0] for row in report["gross_gram"]] == ["3", "1", "1"]

    def test_tampered_fixture_fails(self, capsys, tmp_path, fixture_p11):
        # doubling the non-unit basis vectors keeps a ring but index-8 deep,
        # so the discriminant grows and maximality fails
        data = fixture_p11.to_dict()
        doubled = [fixture_p11.order_basis[0]] + [2 * b for b in fixture_p11.order_basis[1:]]
        data["order_basis"] = [b.to_coord_strings() for b in doubled]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data), "utf-8")
        code, out, err = run_cli(capsys, "verify-order", "--config", str(path))
        assert code == 1
        report = json.loads(out)
        failed = {c["check"] for c in report["checks"] if not c["pass"]}
        assert "is_maximal" in failed

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", "utf-8")
        code, out, err = run_cli(capsys, "verify-order", "--config", str(path))
        assert code == 1
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify-order", "--config", "/no/such/file.json")
        assert code == 1

    def test_directory_refused(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify-order", "--config", str(tmp_path))
        assert code == 1
        assert out == ""
        assert str(tmp_path) in json.loads(err)["error"]


class TestReproduce:
    @pytest.mark.parametrize("case", ["p11", "p31", "p19"])
    def test_cases_pass(self, capsys, case):
        code, out, _ = run_cli(capsys, "reproduce", case)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        names = [c["check"] for c in report["checks"]]
        assert names == ["alpha_in_order", "alpha_trace", "alpha_norm",
                         "content", "form_represents_ell"]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "p11", "--format", "text")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out


class TestCorrespond:
    def test_to_endo(self, capsys):
        code, out, _ = run_cli(
            capsys, "correspond", "to-endo", "--case", "p11",
            "--pair", '[["0","1","0","0"], ["0","1/3","1","-1/3"]]')
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == ["0", "0", "-1/2", "-1/2"]
        assert report["pair_det"] == "44"

    def test_to_sublattice_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "correspond", "to-sublattice", "--case", "p11",
            "--element", '["0","0","-1/2","-1/2"]')
        assert code == 0
        report = json.loads(out)
        assert report["round_trip"] is True
        assert report["det_is_4nrd"] is True
        assert report["pair_det"] == "44"

    def test_trace_error_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "correspond", "to-sublattice", "--case", "p11",
            "--element", '["11/2","11/2","0","0"]')
        assert code == 1

    def test_missing_payload(self, capsys):
        code, _, err = run_cli(capsys, "correspond", "to-endo", "--case", "p11")
        assert code == 1

    def test_zero_element_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "correspond", "to-sublattice", "--case", "p11",
            "--element", '["0","0","0","0"]')
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "the zero element has no rank-2 sublattice"


class TestMalformedInput:
    """Bad payloads are refused with a JSON error and exit status 1."""

    def assert_refused(self, capsys, *argv, mentions):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert mentions in json.loads(err)["error"]

    def test_form_missing_coefficient(self, capsys):
        self.assert_refused(capsys, "represents", "--form", '{"A":1,"B":1}', "--ell", "3",
                            mentions="C")

    def test_pair_with_one_vector(self, capsys):
        self.assert_refused(capsys, "correspond", "to-endo", "--case", "p11",
                            "--pair", '[["0","1","0","0"]]', mentions="two coordinate lists")

    def test_fixture_without_order_basis(self, capsys, tmp_path, fixture_p11):
        data = fixture_p11.to_dict()
        del data["order_basis"]
        path = tmp_path / "no-basis.json"
        path.write_text(json.dumps(data), "utf-8")
        self.assert_refused(capsys, "verify-order", "--config", str(path),
                            mentions="order_basis")

    def assert_form_refused(self, capsys, value):
        form = {"A": 1, "B": 1, "C": 4, "D": -1, "E": -1, "F": 1}
        form["A"] = value
        self.assert_refused(capsys, "represents", "--form", json.dumps(form), "--ell", "3",
                            mentions="form field A")

    def test_form_null_coefficient(self, capsys):
        self.assert_form_refused(capsys, None)

    def test_form_list_coefficient(self, capsys):
        self.assert_form_refused(capsys, [1])

    def test_form_float_coefficient(self, capsys):
        self.assert_form_refused(capsys, 1.5)

    def assert_fixture_refused(self, capsys, tmp_path, fixture_p11, edit, mentions,
                               verb=("verify-order",)):
        # a deep copy, so that edits never reach the session fixture
        data = json.loads(json.dumps(fixture_p11.to_dict()))
        edit(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data), "utf-8")
        self.assert_refused(capsys, verb[0], "--config", str(path), *verb[1:], mentions=mentions)

    @pytest.mark.parametrize("edit, mentions", [
        (lambda d: d.update(expected=[1, 2]), "fixture field expected"),
        (lambda d: d.update(expected=5), "fixture field expected"),
        (lambda d: d["expected"].update(gross_gram_diagonal=5), "expected gross_gram_diagonal"),
        (lambda d: d["expected"].update(gross_gram_diagonal=[3, 15.0, 15]),
         "expected gross_gram_diagonal entry"),
        (lambda d: d["expected"].update(reduced_discriminant="11"),
         "expected reduced_discriminant"),
        (lambda d: d["expected"].update(gross_det=[484]), "expected gross_det"),
        (lambda d: d.update(label=[1]), "fixture field label"),
    ], ids=["expected-list", "expected-int", "diagonal-int", "diagonal-float",
            "discriminant-string", "det-list", "label-list"])
    def test_fixture_malformed_expected(self, capsys, tmp_path, fixture_p11, edit, mentions):
        self.assert_fixture_refused(capsys, tmp_path, fixture_p11, edit, mentions)

    @pytest.mark.parametrize("expected", [[1, 2], 5], ids=["list", "int"])
    def test_equivalence_malformed_expected(self, capsys, tmp_path, fixture_p11, expected):
        self.assert_fixture_refused(capsys, tmp_path, fixture_p11,
                                    lambda d: d.update(expected=expected),
                                    mentions="fixture field expected",
                                    verb=("equivalence", "--ell-max", "3"))

    def test_fixture_float_prime(self, capsys, tmp_path, fixture_p11):
        self.assert_fixture_refused(capsys, tmp_path, fixture_p11,
                                    lambda d: d["algebra"].update(p=11.0),
                                    mentions="algebra field p")

    def test_fixture_float_ell(self, capsys, tmp_path, fixture_p11):
        self.assert_fixture_refused(capsys, tmp_path, fixture_p11,
                                    lambda d: d.update(ell=2.7), mentions="fixture field ell")

    def test_element_null_coordinate(self, capsys):
        self.assert_refused(capsys, "correspond", "to-sublattice", "--case", "p11",
                            "--element", '[null, 0, 0, 0]', mentions="quaternion coordinate")

    def test_element_float_coordinate(self, capsys):
        # -0.5 is exact in binary, so only the refusal keeps floats out
        self.assert_refused(capsys, "correspond", "to-sublattice", "--case", "p11",
                            "--element", '["0", "0", -0.5, -0.5]',
                            mentions="quaternion coordinate")


    def test_element_zero_denominator(self, capsys):
        self.assert_refused(capsys, "correspond", "to-sublattice", "--case", "p11",
                            "--element", '["1/0", "0", "0", "0"]',
                            mentions="quaternion coordinate")

    @pytest.mark.parametrize("algebra, mentions", [
        ({"a": 1, "p": 3317044064679887385961981}, "primality is only decided below"),
        ({"a": 10**12 + 1, "p": 11}, "a must be at most 1000000000000"),
    ])
    def test_fixture_algebra_too_large(self, capsys, tmp_path, fixture_p11, algebra, mentions):
        self.assert_fixture_refused(capsys, tmp_path, fixture_p11,
                                    lambda d: d.update(algebra=algebra), mentions=mentions)

    def test_fixture_algebra_not_ramified_at_p(self, capsys, tmp_path, fixture_p11):
        self.assert_fixture_refused(capsys, tmp_path, fixture_p11,
                                    lambda d: d["algebra"].update(a=1, p=5),
                                    mentions="not exactly at {5, infinity}")


class TestLimits:
    """Size arguments above their caps are refused before any work starts."""

    def test_huge_prime_returns(self, tmp_path, fixture_p11):
        # p = 10^18 + 3 is prime and (-1, -p | Q) ramifies at {p, infinity};
        # the order Z<i, j> passes, so the run goes past the algebra checks
        data = fixture_p11.to_dict()
        data["algebra"] = {"a": 1, "p": 10**18 + 3}
        data["order_basis"] = [[str(int(i == j)) for j in range(4)] for i in range(4)]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), "utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path_dirs = [src] + [d for d in [os.environ.get("PYTHONPATH")] if d]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
        done = subprocess.run([sys.executable, "-m", "grosslat.cli", "verify-order",
                               "--config", str(path)],
                              capture_output=True, text=True, timeout=30, env=env)
        assert "Traceback" not in done.stderr
        assert done.returncode == 1
        report = json.loads(done.stdout)
        assert report["reduced_discriminant"] == 4 * (10**18 + 3)
        assert not report["ok"]

    @pytest.mark.parametrize("argv, mentions", [
        (["represents", "--form", '{"A":1,"B":1,"C":1,"D":0,"E":0,"F":0}',
          "--ell", "100000000000000000000"], "--ell must be at most 1000000"),
        (["search-endo", "--case", "p11", "--trace", "0", "--norm", "1000001"],
         "--norm must be at most 1000000"),
        (["equivalence", "--case", "p11", "--ell-max", "501"],
         "--ell-max must be at most 500"),
    ])
    def test_refused(self, capsys, argv, mentions):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert mentions in json.loads(err)["error"]


class TestEquivalence:
    def test_small_table(self, capsys):
        code, out, _ = run_cli(capsys, "equivalence", "--case", "p11", "--ell-max", "12")
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 12
        assert all(r["agree"] for r in report["rows"])
        by_ell = {r["ell"]: r for r in report["rows"]}
        assert by_ell[11]["endo_exists"] is False
        assert by_ell[11]["form_represents"] is False
        assert by_ell[1]["endo_exists"] is True

    def test_rejects_nonpositive_ell_max(self, capsys):
        code, _, err = run_cli(capsys, "equivalence", "--case", "p11", "--ell-max", "0")
        assert code == 1


class TestRepresentsVerb:
    def test_counterexample_form(self, capsys):
        form = '{"A":1,"B":1,"C":4,"D":-1,"E":-1,"F":1}'
        code, out, _ = run_cli(capsys, "represents", "--form", form, "--ell", "11")
        assert code == 0
        report = json.loads(out)
        assert report["represented"] is False
        code, out, _ = run_cli(capsys, "represents", "--form", form, "--ell", "1")
        report = json.loads(out)
        assert report["witness"] == [1, 0, 0]


class TestSearchEndoVerb:
    def test_trace_zero_norm_p(self, capsys):
        code, out, _ = run_cli(capsys, "search-endo", "--case", "p11",
                               "--trace", "0", "--norm", "11")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 6
        assert ["0", "0", "-1/2", "-1/2"] in report["elements"]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "reproduce", "p11")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
