"""Expression parsing: grammar, precedence, denotations, diagnostics."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import rankrev as rr
from rankrev import InputError, ParseError, parse_expression

from conftest import expressions


U2 = rr.Universe.from_atoms(("A", "B"))
U3 = rr.Universe.from_atoms(("A", "B", "C"))


def denote(text, universe=U2):
    return parse_expression(text, universe)


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
        parse_expression("A & nope", U2)
    assert exc.value.column == 5
    assert "unknown atom" in str(exc.value)


def test_syntax_errors():
    for bad in ("", "A &", "& A", "(A", "A)", "A ~ B", "A -> -> B", "A ? B"):
        with pytest.raises(ParseError):
            parse_expression(bad, U2)


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
        parse_expression(_nested(kind, limit + 1), U2)
    assert "nested deeper than" in exc.value.message


def test_expression_needs_valuations():
    with pytest.raises(InputError) as exc:
        parse_expression("A", rr.Universe(("w1", "w2"), atoms=("A",)))
    assert not isinstance(exc.value, ParseError)
    assert "valuations" in str(exc.value)


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
    for i, (label, row) in enumerate(zip(U2.worlds, U2.valuations)):
        expected = bool(oracle.subs({syms[a]: v for a, v in zip(U2.atoms, row)}))
        assert bool(got.mask >> i & 1) == expected, f"{text} at {label}"


@settings(max_examples=200, deadline=None)
@given(expressions(U3.atoms))
def test_random_trees_match_truth_table_oracle(node):
    text, _, formula = node
    got = parse_expression(text, U3)
    for i, (label, row) in enumerate(zip(U3.worlds, U3.valuations)):
        expected = bool(formula.xreplace(
            {sympy.Symbol(a): sympy.true if v else sympy.false for a, v in zip(U3.atoms, row)}))
        assert bool(got.mask >> i & 1) == expected, f"{text} at {label}"


PIECES = ["A", "B", "C", "D", "x_1", "~", "&", "|", "->", "-", ">", "(", ")", " ", "?", "²", "é"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=30), st.lists(st.sampled_from(PIECES), max_size=30).map("".join)))
def test_parser_raises_only_parse_errors(text):
    try:
        result = parse_expression(text, U3)
    except ParseError:
        return
    assert result.universe == U3
