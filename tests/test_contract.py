"""The library-edge contract, checked by construction.

Every callable in ``rankrev.__all__``, and the public methods in ``METHODS``,
either returns normally or raises ``InputError`` (``ParseError`` for text)
when one of its positional arguments is of the wrong type or value; never
``AttributeError``, ``TypeError`` or a plain ``ValueError``.  Each table
entry is one valid call; the tests replace its positional arguments one at a
time.  A generator that is returned is advanced one step, so its checks run.
A wrong-type message, ``<name> needs a|an <Type>``, names the callable the
table called (a rule object is applied by ``apply_rule``).
"""

import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankrev as rr
from rankrev import Attitude, InputError

FIXTURE = Path(__file__).parent / "data" / "fixture.bel"
U = rr.Universe.from_atoms(("A", "B"))
A, NOT_A = U.prop("AB", "Ab"), U.prop("aB", "ab")
R1 = rr.RankedModel.from_labels(U, ["aB"], ["AB", "Ab", "ab"])
K1 = rr.OCF(U, (1, 1, 0, 2))
BELIEVE_A = rr.EpistemicInput(A, Attitude.BELIEVE)
LEX = rr.lexicographic_rule
FX = rr.counterexample_fixture()
MF = rr.load_model(FIXTURE)

# One valid call per callable in ``rankrev.__all__``: its positional arguments.
VALID = {
    "Attitude": ("believe",),
    "AxiomReport": ("agm", True, 1),
    "CounterexampleFixture": (FX.universe, FX.prop_a, FX.r1, FX.r2, FX.r3),
    "CounterexampleReport": ("counterexample", True, 1),
    "EpistemicInput": (A, Attitude.BELIEVE, 1),
    "InputError": ("message",),
    "ModelFile": (U, {"A": A}, {"r1": R1}, {"k1": K1}),
    "OCF": (U, (1, 1, 0, 2)),
    "ParseError": ("message", 1, 1),
    "Proposition": (U, 3),
    "RankedModel": (R1.blocks,),
    "RevisionRule": ("lex", LEX.transform, False),
    "Universe": (("x", "y"), ("A",), ((True,), (False,))),
    "Witness": ("why", R1),
    "apply_rule": (LEX, R1, BELIEVE_A),
    "check_agm": (R1,),
    "check_degree_conditions": (R1,),
    "check_iteration_axiom": (LEX, "B9", R1),
    "check_ocf_reversibility": (K1, A, 1, 3),
    "check_order_preservation": (LEX, R1, A, Attitude.BELIEVE),
    "check_reversibility": (LEX, R1, BELIEVE_A, 3),
    "constrained_successors": (R1, BELIEVE_A),
    "counterexample_fixture": (4,),
    "counterexample_verify": (FX,),
    "enumerate_ranked_models": (U,),
    "find_irreversibility": (LEX, U, 3),
    "find_ocf_irreversibility": (U, 4, 3),
    "flip_rule": (R1, BELIEVE_A),
    "format_model": (MF,),
    "lexicographic_rule": (R1, BELIEVE_A),
    "load_model": (str(FIXTURE), 8),
    "natural_rule": (R1, BELIEVE_A),
    "ocf_from_rpm": (R1,),
    "parse_expression": ("A & ~B", U),
    "parse_model": (FIXTURE.read_text(encoding="utf-8"), 8),
    "representation_check": (rr.revision_table(R1),),
    "required_content": (R1, BELIEVE_A),
    "resolve_proposition": (MF, "notA"),
    "reverse_strength": (K1, A),
    "revise": (R1, A),
    "revision_table": (R1,),
    "rpm_from_ocf": (K1,),
    "rule_by_name": ("spohn:2",),
    "spohn_conditionalize": (K1, A, 2),
    "spohn_rule": (2,),
}

# The public methods, bound where they act on a value: one valid call each.
METHODS = {
    "Universe.from_atoms": (rr.Universe.from_atoms, (("A", "B"),)),
    "Universe.index": (U.index, ("Ab",)),
    "Universe.prop": (U.prop, ("AB", "ab")),
    "Universe.prop_from_mask": (U.prop_from_mask, (5,)),
    "Proposition.intersect": (A.intersect, (NOT_A,)),
    "Proposition.union": (A.union, (NOT_A,)),
    "Proposition.entails": (A.entails, (NOT_A,)),
    "RankedModel.from_labels": (rr.RankedModel.from_labels, (U, ["aB"], ["AB", "Ab", "ab"])),
    "RankedModel.from_ranks": (rr.RankedModel.from_ranks, (U, (1, 1, 0, 1))),
    "RankedModel.rank_of": (R1.rank_of, ("ab",)),
    "RankedModel.first_consistent_block": (R1.first_consistent_block, (A,)),
    "RankedModel.disbelief_degree": (R1.disbelief_degree, (A,)),
    "OCF.from_map": (rr.OCF.from_map, (U, {"AB": 1, "Ab": 1, "aB": 0, "ab": 2})),
    "OCF.degree": (K1.degree, (A,)),
}

WRONG = (None, 1, 1.5, "x", True, [], object(), -1)

# Values of the wrong type for most parameters.  Integers stay small: a
# strength bound or group size is a valid value whose cost grows with it.
WRONG_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 4), st.floats(), st.complex_numbers(),
    st.text(max_size=4), st.binary(max_size=4), st.lists(st.integers(-4, 4), max_size=4),
    st.tuples(st.text(max_size=2)), st.dictionaries(st.text(max_size=2), st.integers(0, 4),
                                                    max_size=2))


def _call(call, args):
    result = call(*args)
    if inspect.isgenerator(result):
        next(result, None)


NEEDS = re.compile(r"(\w+) needs an? [A-Z]")


def _called(name, call):
    """The callable a wrong-type message must name for the table entry ``name``."""
    return "apply_rule" if isinstance(call, rr.RevisionRule) else name.rpartition(".")[2]


def _breach(call, args, called):
    """The exception ``call(*args)`` raises outside the contract, or None."""
    try:
        _call(call, args)
    except InputError as exc:
        needs = NEEDS.match(str(exc))
        return exc if needs and needs.group(1) != called else None
    except Exception as exc:  # anything else breaks the contract
        return exc
    return None


def _breaches(name, call, args, values):
    """Each (position, value, exception) where a value at one position breaks the contract."""
    out, called = [], _called(name, call)
    for i in range(len(args)):
        for value in values:
            exc = _breach(call, args[:i] + (value,) + args[i + 1:], called)
            if exc is not None:
                out.append((i, value, exc))
    return out


@pytest.mark.parametrize("name", [n for n in rr.__all__ if callable(getattr(rr, n))])
def test_every_public_callable_refuses_wrong_arguments(name):
    assert name in VALID, f"add a valid call of {name} to VALID"
    call, args = getattr(rr, name), VALID[name]
    _call(call, args)
    assert _breaches(name, call, args, WRONG) == []


@pytest.mark.parametrize("name", METHODS)
def test_every_public_method_refuses_wrong_arguments(name):
    call, args = METHODS[name]
    _call(call, args)
    assert _breaches(name, call, args, WRONG) == []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_wrong_typed_values_from_a_strategy(data):
    calls = ([(n, getattr(rr, n), a) for n, a in VALID.items()]
             + [(n, c, a) for n, (c, a) in METHODS.items()])
    name, call, args = data.draw(st.sampled_from(calls))
    assert _breaches(name, call, args, [data.draw(WRONG_TYPED)]) == []
