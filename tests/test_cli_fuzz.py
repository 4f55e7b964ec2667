"""Malformed JSON payloads through `cli.main`: a refusal is exit status 1, never a traceback.

The argv is always one argparse accepts; only the JSON payloads are
malformed: the element and pair of `correspond`, the form of `represents`,
and the fixture file of `search-endo` and `equivalence`.  The payloads mix
nulls, floats, bools, rational strings such as "1/0", lists of the wrong
length and huge integers.  Derandomized, so every run draws the same cases.
"""

import json

import pytest

from grosslat.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-3, 3),
    st.integers(min_value=-10**40, max_value=10**40),
    st.sampled_from(["1/0", "0/0", "1/2", "-7/3", "", "x", "1e3", " 5", "0x10", "∞"]),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=5)
                      | st.dictionaries(st.sampled_from("ABCDEFap"), inner, max_size=4),
                      max_leaves=10)
# four coordinates that are often well-formed, or a list of any other length
COORDS = st.one_of(st.lists(SCALARS, min_size=4, max_size=4),
                   st.lists(SCALARS, max_size=6), VALUES)


def assert_refused_or_answered(capsys, *argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code in (0, 1), argv


@FUZZ
@given(COORDS)
def test_correspond_to_sublattice(capsys, element):
    assert_refused_or_answered(capsys, "correspond", "to-sublattice", "--case", "p11",
                               "--element", json.dumps(element))


@FUZZ
@given(st.one_of(st.lists(COORDS, min_size=2, max_size=2), st.lists(COORDS, max_size=3), VALUES))
def test_correspond_to_endo(capsys, pair):
    assert_refused_or_answered(capsys, "correspond", "to-endo", "--case", "p11",
                               "--pair", json.dumps(pair))


@FUZZ
@given(st.one_of(st.fixed_dictionaries({k: SCALARS for k in "ABCDEF"}), VALUES),
       st.integers(-2, 30))
def test_represents(capsys, form, ell):
    assert_refused_or_answered(capsys, "represents", "--form", json.dumps(form),
                               "--ell", str(ell))


def fixture_paths():
    """(path, key) into the p11 fixture: every field, row and coordinate."""
    yield from (("label",), ("algebra",), ("algebra", "a"), ("algebra", "p"),
                ("order_basis",), ("alpha",), ("ell",), ("expected",))
    for i in range(4):
        yield ("order_basis", i)
        yield from (("order_basis", i, j) for j in range(4))
    yield from (("alpha", j) for j in range(4))


def malformed_fixture(fixture, path, value) -> str:
    data = fixture.to_dict()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(data)


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fixture.json"


@FUZZ
@given(st.sampled_from(list(fixture_paths())), VALUES)
def test_search_endo(capsys, fixture_file, fixture_p11, path, value):
    fixture_file.write_text(malformed_fixture(fixture_p11, path, value), "utf-8")
    assert_refused_or_answered(capsys, "search-endo", "--config", str(fixture_file),
                               "--trace", "0", "--norm", "11")


@FUZZ
@given(st.sampled_from(list(fixture_paths())), VALUES)
def test_equivalence(capsys, fixture_file, fixture_p11, path, value):
    fixture_file.write_text(malformed_fixture(fixture_p11, path, value), "utf-8")
    assert_refused_or_answered(capsys, "equivalence", "--config", str(fixture_file),
                               "--ell-max", "3")
