"""Tests for the IDL parser (the paper's Figure 7.2 grammar)."""

import pytest

from repro.stubs import ParseError, parse_interface
from repro.stubs.types import (
    RecordType,
    SequenceType,
    StringType,
    UnspecifiedType,
)

# Figure 7.2 of the paper, verbatim structure.
NAME_SERVER = """
NameServer: PROGRAM 26 VERSION 1 =
BEGIN
    -- Types.
    Name: TYPE = STRING;
    Property: TYPE = RECORD [name: Name, value: SEQUENCE OF UNSPECIFIED];
    Properties: TYPE = SEQUENCE OF Property;
    -- Errors.
    AlreadyExists: ERROR = 0;
    NotFound: ERROR = 1;
    -- Procedures.
    Register: PROCEDURE [name: Name, properties: Properties]
        REPORTS [AlreadyExists] = 0;
    Lookup: PROCEDURE [name: Name]
        RETURNS [properties: Properties]
        REPORTS [NotFound] = 1;
    Delete: PROCEDURE [name: Name]
        REPORTS [NotFound] = 2;
END.
"""


def test_parse_figure_7_2():
    spec = parse_interface(NAME_SERVER)
    assert spec.name == "NameServer"
    assert spec.program_number == 26
    assert spec.version == 1
    assert spec.errors == {"AlreadyExists": 0, "NotFound": 1}
    assert set(spec.procedures) == {"Register", "Lookup", "Delete"}

    lookup = spec.procedures["Lookup"]
    assert lookup.number == 1
    assert [name for name, _ in lookup.args] == ["name"]
    assert isinstance(lookup.args[0][1], StringType)
    assert [name for name, _ in lookup.results] == ["properties"]
    assert isinstance(lookup.results[0][1], SequenceType)
    assert lookup.reports == ["NotFound"]

    properties = spec.types["Properties"]
    assert isinstance(properties, SequenceType)
    assert isinstance(properties.element, RecordType)
    assert isinstance(properties.element.fields[1][1].element,
                      UnspecifiedType)


def test_parse_all_scalar_types():
    spec = parse_interface("""
    Scalars: PROGRAM 1 VERSION 1 =
    BEGIN
        P: PROCEDURE [a: BOOLEAN, b: CARDINAL, c: LONG CARDINAL,
                      d: INTEGER, e: LONG INTEGER, f: STRING,
                      g: UNSPECIFIED] = 0;
    END.
    """)
    assert len(spec.procedures["P"].args) == 7


def test_parse_enumeration_array_choice():
    spec = parse_interface("""
    Shapes: PROGRAM 2 VERSION 3 =
    BEGIN
        Color: TYPE = ENUMERATION {red(0), green(1), blue(2)};
        Point: TYPE = ARRAY 2 OF INTEGER;
        Shape: TYPE = CHOICE OF {circle(0) => CARDINAL,
                                 box(1) => RECORD [w: CARDINAL, h: CARDINAL]};
        Draw: PROCEDURE [color: Color, at: Point, what: Shape] = 0;
    END.
    """)
    draw = spec.procedures["Draw"]
    color_type = draw.args[0][1]
    assert color_type.members == {"red": 0, "green": 1, "blue": 2}
    shape_type = draw.args[2][1]
    assert set(shape_type.by_name) == {"circle", "box"}


def test_procedure_with_no_args_or_results():
    spec = parse_interface("""
    Null: PROGRAM 0 VERSION 1 =
    BEGIN
        Ping: PROCEDURE = 0;
    END.
    """)
    ping = spec.procedures["Ping"]
    assert ping.args == []
    assert ping.results == []


def test_undeclared_error_in_reports_rejected():
    with pytest.raises(ParseError):
        parse_interface("""
        Bad: PROGRAM 1 VERSION 1 =
        BEGIN
            P: PROCEDURE REPORTS [Mystery] = 0;
        END.
        """)


def test_unknown_type_rejected():
    with pytest.raises(ParseError):
        parse_interface("""
        Bad: PROGRAM 1 VERSION 1 =
        BEGIN
            P: PROCEDURE [x: Undeclared] = 0;
        END.
        """)


@pytest.mark.parametrize("text, line, column, problem", [
    # an unexpected character: where the character is
    ("X: PROGRAM 1 VERSION 1 =\nBEGIN\n    T: TYPE = @;\nEND.",
     3, 15, "unexpected character '@'"),
    # an unexpected end: just past the last token
    ("X: PROGRAM 1 VERSION 1 =\nBEGIN\n", 2, 6,
     "unexpected end of interface"),
    # expected X, found Y: where Y is
    ("X: PROGRAM 1 VERSION 1 =\nBEGIN\n  E: ERROR 3;\nEND.",
     3, 12, "expected '=', found '3'"),
])
def test_parse_errors_are_located(text, line, column, problem):
    with pytest.raises(ParseError) as caught:
        parse_interface(text)
    error = caught.value
    assert (error.line, error.column) == (line, column)
    assert str(error) == "%d:%d: %s" % (line, column, problem)


def test_garbage_rejected():
    with pytest.raises(ParseError):
        parse_interface("not an interface at all @@@")


def test_truncated_interface_rejected():
    with pytest.raises(ParseError):
        parse_interface("X: PROGRAM 1 VERSION 1 = BEGIN")


def test_comments_are_ignored():
    spec = parse_interface("""
    C: PROGRAM 1 VERSION 1 =  -- a trailing comment
    BEGIN
        -- a whole-line comment
        P: PROCEDURE = 0;  -- another
    END.
    """)
    assert "P" in spec.procedures


def test_constant_declarations():
    spec = parse_interface("""
    Consts: PROGRAM 3 VERSION 1 =
    BEGIN
        MaxEntries: CARDINAL = 100;
        Greeting: STRING = "hello";
        Enabled: BOOLEAN = TRUE;
        P: PROCEDURE = 0;
    END.
    """)
    assert spec.constants == {"MaxEntries": 100, "Greeting": "hello",
                              "Enabled": True}


def test_constant_type_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_interface("""
        Bad: PROGRAM 3 VERSION 1 =
        BEGIN
            X: CARDINAL = "not a number";
        END.
        """)


def test_constant_out_of_range_rejected():
    with pytest.raises(ParseError):
        parse_interface("""
        Bad: PROGRAM 3 VERSION 1 =
        BEGIN
            X: CARDINAL = 70000;
        END.
        """)


def test_procedure_by_number():
    spec = parse_interface(NAME_SERVER)
    assert spec.procedure_by_number(1).name == "Lookup"
    assert spec.procedure_by_number(9) is None
