"""Boolean expressions over declared atoms, denoting sets of worlds.

Grammar, loosest to tightest binding::

    expr  := or ( '->' expr )?          # implication, right-associative
    or    := and ( '|' and )*
    and   := unary ( '&' unary )*
    unary := '~' unary | '(' expr ')' | ATOM

An expression evaluates against a world's valuation; its denotation is the
set of worlds where it comes out true.  Expressions nested deeper than
``MAX_NESTING`` levels are rejected with a ``ParseError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ParseError
from .worlds import Proposition, Universe


class Expression:
    def evaluate(self, valuation: Mapping[str, bool]) -> bool:
        raise NotImplementedError

    def denotation(self, universe: Universe) -> Proposition:
        """The set of worlds satisfying this expression."""
        mask = 0
        for i, label in enumerate(universe.worlds):
            if self.evaluate(universe.valuation_of(label)):
                mask |= 1 << i
        return Proposition(universe, mask)


@dataclass(frozen=True)
class Atom(Expression):
    name: str

    def evaluate(self, valuation):
        return valuation[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def evaluate(self, valuation):
        return not self.operand.evaluate(valuation)

    def __str__(self):
        return f"~{self.operand}"


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression

    def evaluate(self, valuation):
        return self.left.evaluate(valuation) and self.right.evaluate(valuation)

    def __str__(self):
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression

    def evaluate(self, valuation):
        return self.left.evaluate(valuation) or self.right.evaluate(valuation)

    def __str__(self):
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Implies(Expression):
    left: Expression
    right: Expression

    def evaluate(self, valuation):
        return (not self.left.evaluate(valuation)) or self.right.evaluate(valuation)

    def __str__(self):
        return f"({self.left} -> {self.right})"


# Deepest accepted nesting: at most this many '~', '(' and '->' enclose any
# point, and at most this many operators lie on any path from the root.  Far
# beyond hand-written expressions, well within Python's recursion limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"->|[~&|()]|[A-Za-z_][A-Za-z0-9_]*|\S")


@dataclass(frozen=True)
class _Token:
    text: str
    column: int


class _Parser:
    def __init__(self, text: str, atoms: frozenset[str], line: int):
        self.atoms = atoms
        self.line = line
        self.tokens = []
        for m in _TOKEN.finditer(text):
            tok = _Token(m.group(), m.start() + 1)
            if tok.text not in ("->", "~", "&", "|", "(", ")") and not re.fullmatch(
                    r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
                raise ParseError(f"unexpected character {tok.text!r}", line, tok.column)
            self.tokens.append(tok)
        self.pos = 0
        self.end_column = len(text) + 1

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, self.end_column)
        self.pos += 1
        return tok

    def nested(self, level: int, tok: _Token) -> int:
        """``level`` if it is within the nesting limit; a ParseError at ``tok`` if not."""
        if level > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.line, tok.column)
        return level

    # Each rule takes the number of enclosing '~', '(' and '->' (which bounds
    # the parser's recursion) and returns its tree with the tree's height
    # (which bounds the recursion of evaluating or printing it).

    def expr(self, depth: int) -> tuple[Expression, int]:
        left, height = self.disjunction(depth)
        tok = self.peek()
        if tok is not None and tok.text == "->":
            self.take()
            right, right_height = self.expr(self.nested(depth + 1, tok))
            return Implies(left, right), self.nested(max(height, right_height) + 1, tok)
        return left, height

    def disjunction(self, depth: int) -> tuple[Expression, int]:
        left, height = self.conjunction(depth)
        while (tok := self.peek()) is not None and tok.text == "|":
            self.take()
            right, right_height = self.conjunction(depth)
            left, height = Or(left, right), self.nested(max(height, right_height) + 1, tok)
        return left, height

    def conjunction(self, depth: int) -> tuple[Expression, int]:
        left, height = self.unary(depth)
        while (tok := self.peek()) is not None and tok.text == "&":
            self.take()
            right, right_height = self.unary(depth)
            left, height = And(left, right), self.nested(max(height, right_height) + 1, tok)
        return left, height

    def unary(self, depth: int) -> tuple[Expression, int]:
        tok = self.take()
        if tok.text == "~":
            operand, height = self.unary(self.nested(depth + 1, tok))
            return Not(operand), self.nested(height + 1, tok)
        if tok.text == "(":
            inner = self.expr(self.nested(depth + 1, tok))
            closing = self.take()
            if closing.text != ")":
                raise ParseError(f"expected ')', got {closing.text!r}", self.line, closing.column)
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
            if tok.text not in self.atoms:
                raise ParseError(f"unknown atom {tok.text!r}", self.line, tok.column)
            return Atom(tok.text), 0
        raise ParseError(f"expected an atom, '~', or '(', got {tok.text!r}",
                         self.line, tok.column)


def parse_expression(text: str, atoms: frozenset[str] | set[str] | tuple[str, ...],
                     line: int = 1) -> Expression:
    """Parse ``text`` against the declared atoms; positions in diagnostics are 1-based."""
    parser = _Parser(text, frozenset(atoms), line)
    result, _ = parser.expr(0)
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected {trailing.text!r} after expression", line, trailing.column)
    return result
