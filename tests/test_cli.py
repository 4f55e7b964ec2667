import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grosslat import (
    FixtureConfig,
    TernaryForm,
    search_elements,
)
from grosslat.cli import LIMITS, build_parser, cmd_equivalence, main
from grosslat.forms import column_bound

from conftest import skewed_p193


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment for a `python -m grosslat.cli` subprocess on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_dirs = [src] + [d for d in [os.environ.get("PYTHONPATH")] if d]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))


def write_tampered(tmp_path, fixture):
    """The fixture with its non-unit basis vectors doubled: still a ring, but
    index-8 deep, so the discriminant grows and maximality fails."""
    data = fixture.to_dict()
    doubled = [fixture.order_basis[0]] + [2 * b for b in fixture.order_basis[1:]]
    data["order_basis"] = [b.to_coord_strings() for b in doubled]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data), "utf-8")
    return path


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
        path = write_tampered(tmp_path, fixture_p11)
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
        done = subprocess.run([sys.executable, "-m", "grosslat.cli", "verify-order",
                               "--config", str(path)],
                              capture_output=True, text=True, timeout=30, env=cli_env())
        assert "Traceback" not in done.stderr
        assert done.returncode == 1
        report = json.loads(done.stdout)
        assert report["reduced_discriminant"] == 4 * (10**18 + 3)
        assert not report["ok"]

    def test_skewed_form_refused(self):
        # x^2 + y^2 + z^2 under a unimodular map with entries near 10^6: the
        # box over (P, R, Delta) holds about 4 * 10^9 (y, z) columns
        form = '{"A":1000003000002,"B":1000001,"C":1,"D":2000004000,"E":2000002,"F":2000}'
        done = subprocess.run([sys.executable, "-m", "grosslat.cli", "represents",
                               "--form", form, "--ell", "999"],
                              capture_output=True, text=True, timeout=30, env=cli_env())
        assert done.returncode == 1 and done.stdout == ""
        assert "at most 5700000" in json.loads(done.stderr)["error"]

    @pytest.mark.parametrize("coeffs", [
        (1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 1), (1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 1)])
    def test_column_cap_admits_reduced_forms(self, coeffs):
        # x^2 + y^2 + z^2 + xy + xz + yz has the largest box of any reduced form
        assert column_bound(TernaryForm(*coeffs), LIMITS["ell"]) <= LIMITS["columns"]

    def test_column_cap_refuses_the_k100_form(self):
        # x^2 + y^2 + z^2 under a unimodular map with entries near 10^4
        form = TernaryForm(100030002, 10001, 1, 2000400, 20002, 200)
        assert column_bound(form, 999) > LIMITS["columns"]

    def test_negative_ell_on_an_indefinite_form(self, capsys):
        # (0, 0, 1) represents -1, so "not represented" would be wrong: the
        # form is refused for every ell, as it is for --ell 1
        code, out, err = run_cli(capsys, "represents", "--form",
                                 '{"A":1,"B":1,"C":-1,"D":0,"E":0,"F":0}', "--ell", "-1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "form is not positive definite"

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


class TestSkewedOrder:
    """A maximal order O at p = 193 and its conjugate uOu^-1, whose HNF basis is
    far from reduced (entries up to about 10^4): the Gross form of that basis
    skews the enumeration box, the reduced one does not."""

    @pytest.fixture(scope="class")
    def orders(self):
        order, u, u_inv = skewed_p193()
        algebra = order.algebra
        conjugate = FixtureConfig("p193-skew", algebra,
                                  [u * b * u_inv for b in order.lattice.basis], algebra.one, 1)
        return order, conjugate, u, u_inv

    def test_search_commutes_with_conjugation(self, orders):
        order, conjugate, u, u_inv = orders
        skewed = conjugate.order()
        for trace, norm in ((0, 193), (0, 3860), (1, 3), (2, 1), (193, 193 * 54), (193, 193 * 69)):
            found = search_elements(order, trace, norm)
            assert found, (trace, norm)
            moved = sorted((u * x * u_inv for x in found), key=lambda q: q.coords)
            assert search_elements(skewed, trace, norm) == moved, (trace, norm)

    def test_equivalence_rows_agree(self, orders):
        order, conjugate, _, _ = orders
        config = FixtureConfig("p193", conjugate.algebra, list(order.lattice.basis),
                               conjugate.alpha, 1)
        report = cmd_equivalence(conjugate, 100)
        assert report["ok"] and report["rows"] == cmd_equivalence(config, 100)["rows"]

    def test_full_table_in_seconds(self, orders, tmp_path):
        _, conjugate, _, _ = orders
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(conjugate.to_dict()), "utf-8")
        done = subprocess.run([sys.executable, "-m", "grosslat.cli", "equivalence",
                               "--config", str(path), "--ell-max", str(LIMITS["ell_max"])],
                              capture_output=True, text=True, timeout=60, env=cli_env())
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["rows"]) == LIMITS["ell_max"]


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


VERBS = ("verify-order", "reproduce", "correspond", "equivalence", "represents", "search-endo")
PAIR = '[["0","1","0","0"], ["0","1/3","1","-1/3"]]'
ELEMENT = '["0","0","-1/2","-1/2"]'
FORM = '{"A":1,"B":1,"C":4,"D":-1,"E":-1,"F":1}'
NO_SOURCE = "either a case name or --config PATH is required"
# one successful run of each verb (both directions of correspond)
RUNS = [
    ["verify-order", "--case", "p11"],
    ["reproduce", "p31"],
    ["correspond", "to-sublattice", "--case", "p11", "--element", ELEMENT],
    ["correspond", "to-endo", "--case", "p11", "--pair", PAIR],
    ["equivalence", "--case", "p19", "--ell-max", "5"],
    ["represents", "--form", FORM, "--ell", "11"],
    ["search-endo", "--case", "p11", "--trace", "0", "--norm", "11"],
]


class TestDispatch:
    """What `main` refuses before any work, and in which order: the size caps,
    then `correspond`'s payload, then the fixture source."""

    @pytest.mark.parametrize("argv, message", [
        (["correspond", "to-endo", "--case", "p11"], "to-endo needs --pair"),
        (["correspond", "to-sublattice", "--case", "p11"], "to-sublattice needs --element"),
        (["correspond", "to-endo"], "to-endo needs --pair"),
        (["correspond", "to-sublattice"], "to-sublattice needs --element"),
        (["correspond", "to-endo", "--element", ELEMENT], "to-endo needs --pair"),
        (["correspond", "to-sublattice", "--pair", PAIR], "to-sublattice needs --element"),
        (["verify-order"], NO_SOURCE),
        (["correspond", "to-endo", "--pair", PAIR], NO_SOURCE),
        (["correspond", "to-sublattice", "--element", ELEMENT], NO_SOURCE),
        (["equivalence", "--ell-max", "3"], NO_SOURCE),
        (["search-endo", "--trace", "0", "--norm", "11"], NO_SOURCE),
        (["equivalence", "--ell-max", "501"], "--ell-max must be at most 500, got 501"),
        (["search-endo", "--trace", "0", "--norm", "1000001"],
         "--norm must be at most 1000000, got 1000001"),
    ])
    def test_refused_with(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message}

    def test_reproduce_needs_its_case(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce"])
        assert exc.value.code == 2
        assert "the following arguments are required: case" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", VERBS)
    def test_help_exits_zero(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: grosslat {verb} ")


class TestTextFormat:
    """`--format text` on every verb: the same exit status as JSON, one line per
    field, PASS/FAIL lines for checks and table rows, `error: ...` on stderr."""

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: "-".join(argv[:2]))
    def test_status_matches_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        report = json.loads(out)
        text_code, text, err = run_cli(capsys, *argv, "--format", "text")
        assert text_code == code == 0 and err == ""
        assert text.splitlines()[0] == f"command: {report['command']}"
        # a nested field prints as compact JSON, equal to the JSON report's
        fields = dict(line.split(": ", 1) for line in text.splitlines()
                      if not line.startswith(("PASS ", "FAIL ")))
        for key, value in report.items():
            if isinstance(value, (list, dict)) and key not in ("checks", "rows"):
                assert json.loads(fields[key]) == value, key

    def test_equivalence_rows(self, capsys):
        code, out, _ = run_cli(capsys, "equivalence", "--case", "p11", "--ell-max", "12",
                               "--format", "text")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("PASS ell=")]
        assert len(rows) == 12
        assert "PASS ell=11: endo=False form=False" in rows
        assert "FAIL" not in out

    def test_tampered_fixture(self, capsys, tmp_path, fixture_p11):
        path = write_tampered(tmp_path, fixture_p11)
        code, out, _ = run_cli(capsys, "verify-order", "--config", str(path), "--format", "text")
        assert code == 1
        assert "FAIL is_maximal: expected True, got False" in out.splitlines()
        assert "ok: False" in out.splitlines()

    @pytest.mark.parametrize("argv, message", [
        (["correspond", "to-endo", "--case", "p11"], "to-endo needs --pair"),
        (["search-endo", "--trace", "0", "--norm", "11"], NO_SOURCE),
        (["represents", "--form", '{"A":1,"B":1}', "--ell", "3"], "form is missing C, D, E, F"),
    ])
    def test_refusal_on_stderr(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err


class TestParserParity:
    """`main` builds only the parser of the verb it runs; that parser helps,
    refuses and parses each verb's argv exactly as the full one does."""

    # a valid argv, and one that the verb's own parser refuses
    CASES = {
        "verify-order": (["--case", "p11"], ["--case"]),
        "reproduce": (["p31"], []),
        "correspond": (["to-endo", "--case", "p11", "--pair", PAIR], ["--case", "p11"]),
        "equivalence": (["--case", "p19", "--ell-max", "5"], ["--case", "p19"]),
        "represents": (["--form", FORM, "--ell", "11"], ["--form", FORM]),
        "search-endo": (["--case", "p11", "--trace", "0", "--norm", "11"], ["--trace", "0"]),
    }

    def test_cases_cover_every_verb(self):
        assert tuple(self.CASES) == VERBS

    @staticmethod
    def exit_of(capsys, parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("verb", VERBS)
    def test_same_help_and_usage_errors(self, capsys, verb):
        valid, refused = self.CASES[verb]
        for argv in ([verb, "--help"], [verb, *valid, "--bogus"], [verb, *refused]):
            full = self.exit_of(capsys, build_parser(), argv)
            assert self.exit_of(capsys, build_parser(verb), argv) == full, argv
            assert full[0] == (0 if argv[-1] == "--help" else 2)

    @pytest.mark.parametrize("verb", VERBS)
    def test_same_namespace(self, verb):
        argv = [verb, *self.CASES[verb][0]]
        full, one = (vars(build_parser(v).parse_args(argv)) for v in (None, verb))
        del full["run"], one["run"]
        assert one == full

    def test_main_builds_one_verb(self, capsys, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        code, _, _ = run_cli(capsys, "represents", "--form", FORM, "--ell", "11")
        assert code == 0 and built == ["represents"]

    def test_top_level_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(VERBS) + "}" in out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and not line.startswith("     ")]
        assert listed == list(VERBS)


class TestClosedStdout:
    """A reader that is already gone: the report cannot be written, and the
    run ends with status 1 and nothing on stderr, buffered or not."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exit_1_without_traceback(self, fmt, unbuffered):
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "grosslat.cli", "equivalence",
                                   "--case", "p19", "--ell-max", "50", "--format", fmt],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=30, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")
