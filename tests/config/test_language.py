"""Tests for the troupe configuration language (§7.5.2)."""

import pytest

from repro.config import ConfigParseError, parse_specification
from repro.host import Machine
from repro.net import Network
from repro.sim import Simulator


def make_machines(specs):
    sim = Simulator()
    net = Network(sim)
    return [Machine(sim, net, name, attributes=attrs)
            for name, attrs in specs]


def test_paper_example_formula():
    """The §7.5.2 example: name, memory, and floating point."""
    spec = parse_specification(
        'troupe(x) where x.name = "UCB-Monet" and x.memory = 10 '
        'and x.has-floating-point')
    monet, other = make_machines([
        ("UCB-Monet", {"memory": 10, "has-floating-point": True}),
        ("UCB-Ernie", {"memory": 4, "has-floating-point": False}),
    ])
    assert spec.satisfied_by([monet])
    assert not spec.satisfied_by([other])


def test_degree_from_variables():
    spec = parse_specification("troupe(x, y, z) where x.memory > 0 "
                               "and y.memory > 0 and z.memory > 0")
    assert spec.degree == 3
    assert spec.variables == ["x", "y", "z"]


def test_members_must_be_distinct():
    spec = parse_specification("troupe(x, y) where x.memory > 0 "
                               "and y.memory > 0")
    (m,) = make_machines([("m", {"memory": 8})])
    assert not spec.satisfied_by([m, m])


def test_comparison_operators():
    (m,) = make_machines([("m", {"memory": 8})])
    for formula, expected in [
        ("x.memory = 8", True),
        ("x.memory # 8", False),
        ("x.memory < 9", True),
        ("x.memory <= 8", True),
        ("x.memory > 8", False),
        ("x.memory >= 8", True),
    ]:
        spec = parse_specification("troupe(x) where " + formula)
        assert spec.satisfied_by([m]) is expected, formula


def test_boolean_connectives_and_precedence():
    (m,) = make_machines([("m", {"memory": 8, "fast-disk": True})])
    spec = parse_specification(
        "troupe(x) where x.memory > 100 or x.fast-disk and x.memory > 4")
    # 'and' binds tighter than 'or': false or (true and true) = true.
    assert spec.satisfied_by([m])
    spec2 = parse_specification(
        "troupe(x) where (x.memory > 100 or x.fast-disk) and x.memory > 10")
    assert not spec2.satisfied_by([m])


def test_negation():
    monet, ernie = make_machines([
        ("UCB-Monet", {}), ("UCB-Ernie", {})])
    spec = parse_specification('troupe(x) where not x.name = "UCB-Monet"')
    assert not spec.satisfied_by([monet])
    assert spec.satisfied_by([ernie])


def test_missing_attribute_is_false():
    (m,) = make_machines([("m", {})])
    spec = parse_specification("troupe(x) where x.memory > 0")
    assert not spec.satisfied_by([m])
    prop = parse_specification("troupe(x) where x.has-floating-point")
    assert not prop.satisfied_by([m])


def test_type_mismatch_comparison_is_false():
    (m,) = make_machines([("m", {"memory": "lots"})])
    spec = parse_specification("troupe(x) where x.memory > 4")
    assert not spec.satisfied_by([m])


def test_string_and_float_literals():
    (m,) = make_machines([("m", {"site": "berkeley", "load": 0.5})])
    spec = parse_specification(
        'troupe(x) where x.site = "berkeley" and x.load < 0.75')
    assert spec.satisfied_by([m])


def test_cross_variable_formula():
    """Constraints may couple variables (both at the same site, say)."""
    a, b, c = make_machines([
        ("a", {"site": "evans"}), ("b", {"site": "evans"}),
        ("c", {"site": "cory"})])
    spec = parse_specification(
        'troupe(x, y) where x.site = "evans" and y.site = "evans"')
    assert spec.satisfied_by([a, b])
    assert not spec.satisfied_by([a, c])


def test_parse_errors():
    for bad in [
        "where x.memory > 0",                    # missing troupe(...)
        "troupe() where x.a",                    # no variables? -> bad name ')'
        "troupe(x) x.a",                         # missing where
        "troupe(x) where y.a",                   # unknown variable
        "troupe(x, x) where x.a",                # duplicate variable
        "troupe(x) where x.a > ",                # missing literal
        "troupe(x) where x.a @ 3",               # bad character
        "troupe(x) where x.a = 3 extra",         # trailing tokens
    ]:
        with pytest.raises(ConfigParseError):
            parse_specification(bad)


@pytest.mark.parametrize("text, line, column, problem", [
    # an unexpected character: where the character is
    ("troupe(x) where\n  x.a @ 3", 2, 7, "unexpected character '@'"),
    # an unexpected end: just past the last token
    ("troupe(x) where x.a >\n", 1, 22, "unexpected end of specification"),
    # expected X, found Y: where Y is
    ("troupe(x)\n x.a", 2, 2, "expected 'where', found 'x'"),
])
def test_parse_errors_are_located(text, line, column, problem):
    with pytest.raises(ConfigParseError) as caught:
        parse_specification(text)
    error = caught.value
    assert (error.line, error.column) == (line, column)
    assert str(error) == "%d:%d: %s" % (line, column, problem)


def test_wrong_cardinality_not_satisfied():
    spec = parse_specification("troupe(x, y) where x.memory >= 0 "
                               "and y.memory >= 0")
    (m,) = make_machines([("m", {"memory": 1})])
    assert not spec.satisfied_by([m])
