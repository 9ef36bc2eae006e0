"""The interface definition language: a Courier-flavoured IDL (§7.1.1).

The grammar follows the paper's Figure 7.2 example:

    NameServer: PROGRAM 26 VERSION 1 =
    BEGIN
        Name: TYPE = STRING;
        Property: TYPE = RECORD [name: Name, value: SEQUENCE OF UNSPECIFIED];
        Properties: TYPE = SEQUENCE OF Property;
        AlreadyExists: ERROR = 0;
        NotFound: ERROR = 1;
        Register: PROCEDURE [name: Name, properties: Properties]
            REPORTS [AlreadyExists] = 0;
        Lookup: PROCEDURE [name: Name]
            RETURNS [properties: Properties]
            REPORTS [NotFound] = 1;
        Delete: PROCEDURE [name: Name] REPORTS [NotFound] = 2;
    END.

Supported types: BOOLEAN, CARDINAL, LONG CARDINAL, INTEGER, LONG INTEGER,
UNSPECIFIED, STRING, ENUMERATION {a(0), ...}, ARRAY n OF T, SEQUENCE OF T,
RECORD [f: T, ...], CHOICE OF {arm(0) => T, ...}, and names of previously
declared types.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Tuple

from repro.located import LocatedError, TokenCursor
from repro.stubs.types import (
    ArrayType,
    BooleanType,
    CardinalType,
    ChoiceType,
    EnumerationType,
    IntegerType,
    LongCardinalType,
    LongIntegerType,
    RecordType,
    SequenceType,
    StringType,
    TypeNode,
    UnspecifiedType,
)


class ParseError(LocatedError):
    """The interface text is not well-formed."""


@dataclasses.dataclass
class ProcedureSpec:
    name: str
    number: int
    args: List[Tuple[str, TypeNode]]
    results: List[Tuple[str, TypeNode]]
    reports: List[str]

    @property
    def arg_record(self) -> RecordType:
        return RecordType(self.args)

    @property
    def result_record(self) -> RecordType:
        return RecordType(self.results)


@dataclasses.dataclass
class InterfaceSpec:
    name: str
    program_number: int
    version: int
    types: Dict[str, TypeNode]
    errors: Dict[str, int]
    procedures: Dict[str, ProcedureSpec]
    constants: Dict[str, object] = dataclasses.field(default_factory=dict)

    def procedure_by_number(self, number: int) -> Optional[ProcedureSpec]:
        for proc in self.procedures.values():
            if proc.number == number:
                return proc
        return None


_TOKEN_RE = re.compile(r"""
    (?P<comment>--[^\n]*)
  | (?P<string>"[^"]*")
  | (?P<number>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<punct>=>|[:;=\[\],.(){}])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)

_KEYWORDS = {
    "PROGRAM", "VERSION", "BEGIN", "END", "TYPE", "ERROR", "PROCEDURE",
    "RETURNS", "REPORTS", "BOOLEAN", "CARDINAL", "LONG", "INTEGER",
    "STRING", "UNSPECIFIED", "ENUMERATION", "ARRAY", "SEQUENCE", "RECORD",
    "CHOICE", "OF",
}


class _Parser(TokenCursor):
    token_re = _TOKEN_RE
    error_type = ParseError
    is_a = "interface"

    def __init__(self, text: str):
        super().__init__(text)
        self.types: Dict[str, TypeNode] = {}
        self.errors: Dict[str, int] = {}
        self.procedures: Dict[str, ProcedureSpec] = {}
        self.constants: Dict[str, object] = {}

    # -- token helpers -----------------------------------------------------

    def expect_number(self) -> int:
        token = self.next()
        if not token.isdigit():
            raise self.error("expected a number, found %r" % token)
        return int(token)

    def expect_name(self) -> str:
        token = self.next()
        if not re.match(r"[A-Za-z]", token):
            raise self.error("expected a name, found %r" % token)
        return token

    # -- grammar ---------------------------------------------------------

    def parse(self) -> InterfaceSpec:
        name = self.expect_name()
        self.expect(":")
        self.expect("PROGRAM")
        program = self.expect_number()
        self.expect("VERSION")
        version = self.expect_number()
        self.expect("=")
        self.expect("BEGIN")
        while self.peek() != "END":
            self._declaration()
        self.expect("END")
        self.expect(".")
        return InterfaceSpec(name, program, version, self.types,
                             self.errors, self.procedures, self.constants)

    def _declaration(self) -> None:
        name = self.expect_name()
        self.expect(":")
        kind = self.peek()
        if kind == "TYPE":
            self.next()
            self.expect("=")
            self.types[name] = self._type()
            self.expect(";")
        elif kind == "ERROR":
            self.next()
            self.expect("=")
            self.errors[name] = self.expect_number()
            self.expect(";")
        elif kind == "PROCEDURE":
            self.next()
            self.procedures[name] = self._procedure(name)
        else:
            # A constant declaration: Name: <type> = <literal>;
            const_type = self._type()
            self.expect("=")
            self.constants[name] = self._constant_literal(const_type)
            self.expect(";")

    def _constant_literal(self, const_type: TypeNode):
        token = self.next()
        if token.isdigit():
            value = int(token)
        elif token == "TRUE":
            value = True
        elif token == "FALSE":
            value = False
        elif token.startswith('"'):
            value = token[1:-1]
        else:
            # Enumeration member names and the like.
            value = token
        try:
            const_type.check(value)
        except Exception as exc:
            raise self.error("constant does not fit its type: %s" % exc)
        return value

    def _procedure(self, name: str) -> ProcedureSpec:
        args = self._field_list() if self.peek() == "[" else []
        results: List[Tuple[str, TypeNode]] = []
        reports: List[str] = []
        while self.peek() in ("RETURNS", "REPORTS"):
            keyword = self.next()
            if keyword == "RETURNS":
                results = self._field_list()
            else:
                reports = self._name_list()
        self.expect("=")
        number = self.expect_number()
        self.expect(";")
        for report in reports:
            if report not in self.errors:
                raise self.error("undeclared error %r in REPORTS of %s"
                                 % (report, name))
        return ProcedureSpec(name, number, args, results, reports)

    def _field_list(self) -> List[Tuple[str, TypeNode]]:
        self.expect("[")
        fields: List[Tuple[str, TypeNode]] = []
        if self.peek() != "]":
            while True:
                field = self.expect_name()
                self.expect(":")
                fields.append((field, self._type()))
                if self.peek() != ",":
                    break
                self.next()
        self.expect("]")
        return fields

    def _name_list(self) -> List[str]:
        self.expect("[")
        names = []
        if self.peek() != "]":
            while True:
                names.append(self.expect_name())
                if self.peek() != ",":
                    break
                self.next()
        self.expect("]")
        return names

    def _type(self) -> TypeNode:
        token = self.next()
        if token == "BOOLEAN":
            return BooleanType()
        if token == "STRING":
            return StringType()
        if token == "UNSPECIFIED":
            return UnspecifiedType()
        if token == "CARDINAL":
            return CardinalType()
        if token == "INTEGER":
            return IntegerType()
        if token == "LONG":
            sub = self.next()
            if sub == "CARDINAL":
                return LongCardinalType()
            if sub == "INTEGER":
                return LongIntegerType()
            raise self.error("LONG must be followed by CARDINAL or INTEGER")
        if token == "ENUMERATION":
            return self._enumeration()
        if token == "ARRAY":
            length = self.expect_number()
            self.expect("OF")
            return ArrayType(length, self._type())
        if token == "SEQUENCE":
            self.expect("OF")
            return SequenceType(self._type())
        if token == "RECORD":
            return RecordType(self._field_list())
        if token == "CHOICE":
            self.expect("OF")
            return self._choice()
        if token in _KEYWORDS:
            raise self.error("unexpected keyword %r in type" % token)
        # A reference to a previously declared type.
        if token in self.types:
            return self.types[token]
        raise self.error("unknown type name %r" % token)

    def _enumeration(self) -> EnumerationType:
        self.expect("{")
        members: Dict[str, int] = {}
        while True:
            member = self.expect_name()
            self.expect("(")
            members[member] = self.expect_number()
            self.expect(")")
            if self.peek() != ",":
                break
            self.next()
        self.expect("}")
        return EnumerationType(members)

    def _choice(self) -> ChoiceType:
        self.expect("{")
        arms: List[Tuple[str, int, TypeNode]] = []
        while True:
            arm = self.expect_name()
            self.expect("(")
            tag = self.expect_number()
            self.expect(")")
            self.expect("=>")
            arms.append((arm, tag, self._type()))
            if self.peek() != ",":
                break
            self.next()
        self.expect("}")
        return ChoiceType(arms)


def parse_interface(text: str) -> InterfaceSpec:
    """Parse an interface definition into an :class:`InterfaceSpec`."""
    return _Parser(text).parse()
