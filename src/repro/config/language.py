"""The troupe configuration language (§7.5.2, Figure 7.12).

"The troupe configuration language is an extension of propositional logic
with variables that range over the machines in the distributed system."
Machines have attribute lists (name/value pairs: strings, numbers, truth
values); a Boolean-valued attribute is a *property* and needs no
comparison.  A troupe is specified as

    troupe(x1, ..., xn) where <formula>

for example:

    troupe(x, y, z) where
        x.memory >= 10 and x.has-floating-point
        and y.name = "UCB-Monet"
        and not z.name = "UCB-Monet"

The troupe members are required to be distinct machines; the language
deliberately provides no machine-equality test, only attribute
comparisons, and a specification always fixes the troupe size (§7.5.2
notes both design points).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Sequence

from repro.located import LocatedError, TokenCursor


class ConfigParseError(LocatedError):
    """The specification text is not well-formed."""


# -- AST -----------------------------------------------------------------

class _Node:
    def evaluate(self, assignment: Dict[str, Any]) -> bool:
        raise NotImplementedError


class _Or(_Node):
    def __init__(self, terms):
        self.terms = terms

    def evaluate(self, assignment):
        return any(t.evaluate(assignment) for t in self.terms)


class _And(_Node):
    def __init__(self, terms):
        self.terms = terms

    def evaluate(self, assignment):
        return all(t.evaluate(assignment) for t in self.terms)


class _Not(_Node):
    def __init__(self, term):
        self.term = term

    def evaluate(self, assignment):
        return not self.term.evaluate(assignment)


class _Comparison(_Node):
    OPS = {
        "=": lambda a, b: a == b,
        "#": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, var: str, attr: str, op: str, literal: Any):
        self.var = var
        self.attr = attr
        self.op = op
        self.literal = literal

    def evaluate(self, assignment):
        machine = assignment[self.var]
        value = machine.attribute(self.attr)
        if value is None:
            return False
        try:
            return self.OPS[self.op](value, self.literal)
        except TypeError:
            return False  # comparing a string attribute with a number, etc.


class _Property(_Node):
    """A bare attribute reference: true iff the attribute is truthy."""

    def __init__(self, var: str, attr: str):
        self.var = var
        self.attr = attr

    def evaluate(self, assignment):
        return bool(assignment[self.var].attribute(self.attr))


class TroupeSpecification:
    """A parsed specification: variables plus the formula over them."""

    def __init__(self, variables: Sequence[str], formula: _Node,
                 text: str = ""):
        self.variables = list(variables)
        self.formula = formula
        self.text = text

    @property
    def degree(self) -> int:
        return len(self.variables)

    def satisfied_by(self, machines: Sequence) -> bool:
        """True iff assigning machines (in order) to the variables
        satisfies the formula.  Members must be distinct machines."""
        if len(machines) != len(self.variables):
            return False
        if len(set(id(m) for m in machines)) != len(machines):
            return False
        assignment = dict(zip(self.variables, machines))
        return self.formula.evaluate(assignment)

    def __repr__(self) -> str:
        if self.text:
            return self.text
        return "troupe(%s) where ..." % ", ".join(self.variables)


# -- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<string>"[^"]*")
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<word>[A-Za-z][A-Za-z0-9_-]*)
  | (?P<op><=|>=|[=#<>().,])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


class _Parser(TokenCursor):
    token_re = _TOKEN_RE
    error_type = ConfigParseError
    is_a = "specification"

    def __init__(self, text: str):
        super().__init__(text)
        self.variables: List[str] = []

    def parse(self) -> TroupeSpecification:
        self.expect("troupe")
        self.expect("(")
        while True:
            var = self.next()
            if not re.match(r"[A-Za-z]", var):
                raise self.error("bad variable name %r" % var)
            if var in self.variables:
                raise self.error("duplicate variable %r" % var)
            self.variables.append(var)
            if self.peek() != ",":
                break
            self.next()
        self.expect(")")
        self.expect("where")
        formula = self._disjunction()
        if self.peek() is not None:
            raise self.error("trailing tokens: %r" % self.next())
        return TroupeSpecification(self.variables, formula)

    def _disjunction(self):
        terms = [self._conjunction()]
        while self.peek() == "or":
            self.next()
            terms.append(self._conjunction())
        return terms[0] if len(terms) == 1 else _Or(terms)

    def _conjunction(self):
        terms = [self._negation()]
        while self.peek() == "and":
            self.next()
            terms.append(self._negation())
        return terms[0] if len(terms) == 1 else _And(terms)

    def _negation(self):
        if self.peek() == "not":
            self.next()
            return _Not(self._negation())
        return self._primary()

    def _primary(self):
        if self.peek() == "(":
            self.next()
            inner = self._disjunction()
            self.expect(")")
            return inner
        var = self.next()
        if var not in self.variables:
            raise self.error("unknown variable %r" % var)
        self.expect(".")
        attr = self.next()
        if not re.match(r"[A-Za-z]", attr):
            raise self.error("bad attribute name %r" % attr)
        if self.peek() in _Comparison.OPS:
            op = self.next()
            literal = self._literal()
            return _Comparison(var, attr, op, literal)
        return _Property(var, attr)

    def _literal(self):
        token = self.next()
        if token.startswith('"'):
            return token[1:-1]
        try:
            if "." in token:
                return float(token)
            return int(token)
        except ValueError:
            raise self.error("bad literal %r" % token)


def parse_specification(text: str) -> TroupeSpecification:
    """Parse ``troupe(x, ...) where <formula>``."""
    spec = _Parser(text).parse()
    spec.text = " ".join(text.split())
    return spec
