"""What the IDL parser and the configuration-language parser share: a
cursor over a text's tokens, and parse errors that say where."""

from typing import List, Optional


class LocatedError(Exception):
    """``problem`` at ``offset`` into ``text``.  ``line`` and ``column``
    are 1-based and the message reads ``"<line>:<col>: <problem>"``."""

    def __init__(self, problem: str, text: str = "", offset: int = 0):
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__("%d:%d: %s" % (self.line, self.column, problem))


class TokenCursor:
    """The tokens of ``text`` and a position among them.  A subclass
    names its grammar: ``token_re`` (one named group per token kind;
    ``ws`` and ``comment`` matches are skipped, a ``bad`` match is an
    error), the ``error_type`` to raise, and what the text ``is_a``."""

    token_re = None
    error_type = LocatedError
    is_a = "text"

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[str] = []
        self.offsets: List[int] = []
        self.pos = 0
        for match in self.token_re.finditer(text):
            kind = match.lastgroup
            if kind in ("ws", "comment"):
                continue
            if kind == "bad":
                raise self.error_type(
                    "unexpected character %r" % match.group(), text,
                    match.start())
            self.tokens.append(match.group())
            self.offsets.append(match.start())

    def error(self, problem: str) -> LocatedError:
        """``problem`` at the token just consumed, or at the end of the
        text when they have run out."""
        consumed = self.pos - 1
        offset = self.offsets[consumed] if consumed < len(self.offsets) \
            else len(self.text.rstrip())
        return self.error_type(problem, self.text, offset)

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        self.pos += 1
        if self.pos > len(self.tokens):
            raise self.error("unexpected end of %s" % self.is_a)
        return self.tokens[self.pos - 1]

    def expect(self, literal: str) -> None:
        token = self.next()
        if token != literal:
            raise self.error("expected %r, found %r" % (literal, token))
