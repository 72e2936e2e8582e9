"""Expression parsing: grammar, precedence, denotations, diagnostics."""

import pytest
import sympy

import rankrev as rr
from rankrev import ParseError, parse_expression


U2 = rr.Universe.from_atoms(("A", "B"))
U3 = rr.Universe.from_atoms(("A", "B", "C"))


def denote(text, universe=U2):
    return parse_expression(text, universe.atoms).denotation(universe)


def test_spec_denotations():
    assert denote("A & ~B") == U2.prop("Ab")
    assert denote("~(A | B)") == U2.prop("ab")
    assert denote("A -> B") == U2.prop("AB", "aB", "ab")


def test_precedence_not_binds_tightest():
    # ~A & B is (~A) & B, not ~(A & B)
    assert denote("~A & B") == U2.prop("aB")


def test_precedence_and_over_or():
    # hand truth table: (~A & B) | C
    assert denote("~A & B | C", U3) == U3.prop("ABC", "AbC", "aBC", "aBc", "abC")


def test_precedence_or_over_implies():
    # A -> B | C groups as A -> (B | C): false only where A holds and both fail
    assert denote("A -> B | C", U3) == ~U3.prop("Abc")


def test_implies_right_associative():
    # A -> B -> C is A -> (B -> C): false only at A, B, ~C
    assert denote("A -> B -> C", U3) == ~U3.prop("ABc")
    assert denote("A -> B -> C", U3) != denote("(A -> B) -> C", U3)


def test_negated_implication():
    assert denote("~(A -> B)") == U2.prop("Ab")


def test_parentheses_and_nesting():
    assert denote("(A | B) & (~A | ~B)") == U2.prop("Ab", "aB")
    assert denote("~~A") == U2.prop("AB", "Ab")


def test_unknown_atom_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("A & nope", ("A", "B"))
    assert exc.value.column == 5
    assert "unknown atom" in str(exc.value)


def test_syntax_errors():
    for bad in ("", "A &", "& A", "(A", "A)", "A ~ B", "A -> -> B", "A ? B"):
        with pytest.raises(ParseError):
            parse_expression(bad, ("A", "B"))


def _nested(kind, levels):
    """An expression ``levels`` deep in one construct."""
    if kind == "not":
        return "~" * levels + "A"
    if kind == "parens":
        return "(" * levels + "A" + ")" * levels
    operator = {"and": " & ", "or": " | ", "implies": " -> "}[kind]
    return operator.join(["A"] * (levels + 1))


@pytest.mark.parametrize("kind", ["not", "parens", "and", "or", "implies"])
def test_nesting_limit(kind):
    limit = rr.expressions.MAX_NESTING
    a = U2.prop("AB", "Ab")
    expected = {"not": a if limit % 2 == 0 else ~a, "parens": a, "and": a, "or": a,
                "implies": U2.tautology()}[kind]
    assert denote(_nested(kind, limit)) == expected
    with pytest.raises(ParseError) as exc:
        parse_expression(_nested(kind, limit + 1), ("A", "B"))
    assert "nested deeper than" in exc.value.message


def test_line_is_threaded_into_diagnostics():
    with pytest.raises(ParseError) as exc:
        parse_expression("A | |", ("A",), line=7)
    assert exc.value.line == 7


# Oracle: sympy evaluates the same corpus per world.  Implication is written
# with explicit parentheses because Python's >> associates the other way.
CORPUS = [
    "A & ~B",
    "~(A | B)",
    "A -> B",
    "~~A",
    "A & B | ~A & ~B",
    "(A | B) & (~A | ~B)",
    "(A & B) -> (A | B)",
    "~A -> (B -> A)",
    "(A -> B) & (B -> A)",
    "~(A & B) | (A & B)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_denotation_matches_truth_table_oracle(text):
    syms = {a: sympy.Symbol(a) for a in U2.atoms}
    oracle = sympy.parsing.sympy_parser.parse_expr(
        text.replace("->", ">>"), local_dict=syms, evaluate=False)
    got = denote(text)
    for label in U2.worlds:
        valuation = U2.valuation_of(label)
        expected = bool(oracle.subs({syms[a]: v for a, v in valuation.items()}))
        assert got.has(label) == expected, f"{text} at {label}"
