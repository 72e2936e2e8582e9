"""Boolean expressions over a universe's atoms, read straight into sets of worlds.

Grammar, loosest to tightest binding::

    expr  := or ( '->' expr )?          # implication, right-associative
    or    := and ( '|' and )*
    and   := unary ( '&' unary )*
    unary := '~' unary | '(' expr ')' | ATOM

No tree is built: each rule returns the bitmask of the worlds where its part
holds.  An atom is its world mask (``Universe.atom_masks``), ``~`` the
complement, ``&`` and ``|`` intersection and union, and ``l -> r`` the union
of ``r`` with the complement of ``l``.  Expressions nested deeper than
``MAX_NESTING`` levels are rejected with a ``ParseError``.
"""

from __future__ import annotations

import re

from .errors import ParseError, _require
from .worlds import Proposition, Universe

# Deepest accepted nesting: at most this many '~', '(' and '->' enclose any
# point, and at most this many operators lie on any path from the root.  Far
# beyond hand-written expressions, well within Python's recursion limit.
MAX_NESTING = 100

# An operator or an ASCII name in group 1; any other character is an error.
_TOKEN = re.compile(r"(->|[~&|()]|[A-Za-z_][A-Za-z0-9_]*)|\S")


class _Parser:
    def __init__(self, text: str, universe: Universe):
        self.atoms = universe.atom_masks()
        self.full = (1 << len(universe.worlds)) - 1
        # Tokens are (text, column) pairs; ("", end column) marks the end.
        self.tokens = []
        for m in _TOKEN.finditer(text):
            if m.group(1) is None:
                raise ParseError(f"unexpected character {m.group()!r}", column=m.start() + 1)
            self.tokens.append((m.group(), m.start() + 1))
        self.tokens.append(("", len(text) + 1))
        self.pos = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, int]:
        text, column = self.tokens[self.pos]
        if not text:
            raise ParseError("unexpected end of expression", column=column)
        self.pos += 1
        return text, column

    def nested(self, level: int, column: int) -> int:
        """``level`` if it is within the nesting limit; a ParseError at ``column`` if not."""
        if level > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", column=column)
        return level

    # Each rule takes the number of enclosing '~', '(' and '->' (which bounds
    # the parser's recursion) and returns its mask with the height of its
    # operator tree (the number of operators on the longest root-to-atom path).

    def expr(self, depth: int) -> tuple[int, int]:
        left, height = self.disjunction(depth)
        text, column = self.peek()
        if text != "->":
            return left, height
        self.pos += 1
        right, right_height = self.expr(self.nested(depth + 1, column))
        return (self.full ^ left) | right, self.nested(max(height, right_height) + 1, column)

    def disjunction(self, depth: int) -> tuple[int, int]:
        left, height = self.conjunction(depth)
        while (tok := self.peek())[0] == "|":
            self.pos += 1
            right, right_height = self.conjunction(depth)
            left, height = left | right, self.nested(max(height, right_height) + 1, tok[1])
        return left, height

    def conjunction(self, depth: int) -> tuple[int, int]:
        left, height = self.unary(depth)
        while (tok := self.peek())[0] == "&":
            self.pos += 1
            right, right_height = self.unary(depth)
            left, height = left & right, self.nested(max(height, right_height) + 1, tok[1])
        return left, height

    def unary(self, depth: int) -> tuple[int, int]:
        text, column = self.take()
        if text == "~":
            operand, height = self.unary(self.nested(depth + 1, column))
            return self.full ^ operand, self.nested(height + 1, column)
        if text == "(":
            inner = self.expr(self.nested(depth + 1, column))
            closing, closing_column = self.take()
            if closing != ")":
                raise ParseError(f"expected ')', got {closing!r}", column=closing_column)
            return inner
        if not text.isidentifier():
            raise ParseError(f"expected an atom, '~', or '(', got {text!r}", column=column)
        if text not in self.atoms:
            raise ParseError(f"unknown atom {text!r}", column=column)
        return self.atoms[text], 0


def parse_expression(text: str, universe: Universe) -> Proposition:
    """The worlds of ``universe`` where ``text`` holds.

    A ``ParseError`` is at line 1 and a 1-based column of ``text``; callers
    reading a file re-raise it at their own line and column.
    """
    _require(text, str, "parse_expression")
    parser = _Parser(text, _require(universe, Universe, "parse_expression"))
    mask, _ = parser.expr(0)
    trailing, column = parser.peek()
    if trailing:
        raise ParseError(f"unexpected {trailing!r} after expression", column=column)
    return Proposition(universe, mask)
