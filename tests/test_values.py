"""The value classes: validation, equality, hashing, immutability, repr, keywords, pickling."""

import copy
import pickle
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import rankrev as rr
from rankrev import Attitude, InputError

X, Y = ("x", "y")
U2 = rr.Universe((X, Y))
P_X, P_Y = U2.prop(X), U2.prop(Y)
U2_REPR = "Universe(worlds=('x', 'y'), atoms=(), valuations=None)"
FIXTURE = Path(__file__).parent / "data" / "fixture.bel"
M_XY_REPR = "RankedModel(blocks=(Proposition(mask=1), Proposition(mask=2)))"


def model_xy():
    return rr.RankedModel((U2.prop(X), U2.prop(Y)))


def model_yx():
    return rr.RankedModel((U2.prop(Y), U2.prop(X)))


def fixture_xy():
    return rr.CounterexampleFixture(U2, U2.prop(X), model_xy(), model_yx(), model_xy())


def believe_x():
    return rr.EpistemicInput(P_X, Attitude.BELIEVE)


def witness():
    return rr.Witness("why", model_xy(), world_pair=(X, Y))


M_YX_REPR = "RankedModel(blocks=(Proposition(mask=2), Proposition(mask=1)))"
FIXTURE_REPR = (f"CounterexampleFixture(universe={U2_REPR}, prop_a=Proposition(mask=1), "
                f"r1={M_XY_REPR}, r2={M_YX_REPR}, r3={M_XY_REPR})")
WITNESS_REPR = (f"Witness(description='why', model={M_XY_REPR}, proposition=None, second=None, "
                "epistemic_input=None, world_pair=('x', 'y'), ocf=None, strength=None)")


class Case(NamedTuple):
    build: Callable            # a fresh value, positional arguments
    keywords: Callable         # the same value, every argument by its parameter name
    repr: str
    field: str                 # a field to try to assign and delete
    errors: tuple = ()         # (a call on or for the class, exact InputError message)
    hashable: bool = True


CASES = {
    "Universe": Case(
        lambda: rr.Universe((X, Y)),
        lambda: rr.Universe(worlds=[X, Y], atoms=(), valuations=None),
        U2_REPR, "worlds",
        ((lambda: rr.Universe(()), "universe needs at least one world"),
         (lambda: rr.Universe(("w", "w")), "world labels must be pairwise distinct"),
         (lambda: rr.Universe(("w", "")), "world labels must be non-empty strings"),
         (lambda: rr.Universe((1, 2)), "world labels must be non-empty strings"),
         (lambda: rr.Universe((X, Y), ("A",), ((True,),)), "one valuation row per world required"),
         (lambda: rr.Universe((X, Y), ("A", "B"), ((True,), (False,))),
          "every world needs a value for every atom"),
         (lambda: rr.Universe((X, Y), ("A",), ((True,), (True,))),
          "no two worlds may share an identical valuation"),
         (lambda: rr.Universe((X, Y), (1,), ((True,), (False,))),
          "atom names must be non-empty strings"),
         (lambda: rr.Universe((X, Y), ("",)), "atom names must be non-empty strings"),
         (lambda: rr.Universe((X, Y), ("A", "A"), ((True, True), (False, False))),
          "atom names must be pairwise distinct"),
         (lambda: rr.Universe((X, Y), ("A",), ((1,), (0,))), "valuation entries must be bools"),
         (lambda: rr.Universe.from_atoms((1,)), "auto worlds need single-letter atoms, got 1"),
         (lambda: rr.find_irreversibility(rr.lexicographic_rule, None),
          "find_irreversibility needs a Universe, got None"),
         (lambda: next(rr.enumerate_ranked_models(None)),
          "enumerate_ranked_models needs a Universe, got None"))),
    "Proposition": Case(
        lambda: rr.Proposition(U2, 1),
        lambda: rr.Proposition(universe=rr.Universe((X, Y)), mask=1),
        "Proposition(mask=1)", "mask",
        ((lambda: rr.Proposition(U2, 4), "proposition mask out of range for its universe"),
         (lambda: rr.Proposition(U2, -1), "proposition mask out of range for its universe"),
         (lambda: rr.Proposition(U2, 3.0), "proposition mask must be an int, got 3.0"),
         (lambda: rr.Proposition(U2, "3"), "proposition mask must be an int, got '3'"),
         (lambda: rr.Proposition(U2, True), "proposition mask must be an int, got True"),
         (lambda: rr.representation_check(1), "representation_check needs a Mapping, got 1"))),
    "RankedModel": Case(
        model_xy,
        lambda: rr.RankedModel(blocks=[P_X, P_Y]),
        M_XY_REPR, "blocks",
        ((lambda: rr.RankedModel(()), "ranked model needs at least one block"),
         (lambda: rr.RankedModel((P_X, rr.Universe(("v", "y")).prop("y"))),
          "blocks are over different universes"),
         (lambda: rr.RankedModel((U2.tautology(), U2.contradiction())),
          "ranked model blocks must be non-empty"),
         (lambda: rr.RankedModel((P_X, U2.tautology())), "ranked model blocks must be disjoint"),
         (lambda: rr.RankedModel((P_X,)), "ranked model blocks must cover the universe"),
         (lambda: rr.RankedModel([1, 2]), "ranked model blocks must be Propositions, got 1"),
         (lambda: rr.RankedModel((P_X, 2)), "ranked model blocks must be Propositions, got 2"),
         (lambda: rr.RankedModel(None), "ranked model blocks must be Propositions, got None"),
         (lambda: model_xy().disbelief_degree(None),
          "disbelief_degree needs a Proposition, got None"),
         (lambda: model_xy().first_consistent_block(1),
          "first_consistent_block needs a Proposition, got 1"),
         (lambda: rr.revise(model_xy(), None), "revise needs a Proposition, got None"),
         (lambda: rr.revise(model_xy(), model_yx()),
          f"revise needs a Proposition, got {M_YX_REPR}"),
         (lambda: rr.revise(None, P_X), "revise needs a RankedModel, got None"),
         (lambda: rr.required_content(None, believe_x()),
          "required_content needs a RankedModel, got None"),
         (lambda: rr.check_reversibility(rr.lexicographic_rule, None, believe_x()),
          "check_reversibility needs a RankedModel, got None"),
         (lambda: rr.constrained_successors(P_X, believe_x()),
          "constrained_successors needs a RankedModel, got Proposition(mask=1)"),
         (lambda: rr.check_agm(None), "check_agm needs a RankedModel, got None"),
         (lambda: rr.check_iteration_axiom(rr.lexicographic_rule, "B9", None),
          "check_iteration_axiom needs a RankedModel, got None"),
         (lambda: rr.check_order_preservation(rr.lexicographic_rule, None, P_X),
          "check_order_preservation needs a RankedModel, got None"),
         (lambda: rr.apply_rule(rr.lexicographic_rule, None, believe_x()),
          "apply_rule needs a RankedModel, got None"),
         (lambda: rr.revision_table(None), "revision_table needs a RankedModel, got None"),
         (lambda: rr.check_degree_conditions(None),
          "check_degree_conditions needs a RankedModel, got None"),
         (lambda: rr.ocf_from_rpm(None), "ocf_from_rpm needs a RankedModel, got None"))),
    "OCF": Case(
        lambda: rr.OCF(U2, (0, 2)),
        lambda: rr.OCF(universe=U2, values=[0, 2]),
        "OCF(values=(0, 2))", "values",
        ((lambda: rr.OCF(U2, (0,)), "one value per world required"),
         (lambda: rr.OCF(U2, (0, -1)), "values must be natural numbers"),
         (lambda: rr.OCF(U2, (0, True)), "values must be natural numbers"),
         (lambda: rr.OCF(U2, (1, 2)), "not normalized: minimum value must be 0"),
         (lambda: rr.OCF(U2, (0, 2)).degree(None), "degree needs a Proposition, got None"),
         (lambda: rr.OCF(U2, (0, 2)).degree(1), "degree needs a Proposition, got 1"))),
    "EpistemicInput": Case(
        lambda: rr.EpistemicInput(P_X, Attitude.BELIEVE, 2),
        lambda: rr.EpistemicInput(proposition=P_X, attitude=Attitude.BELIEVE, strength=2),
        "EpistemicInput(proposition=Proposition(mask=1), attitude=<Attitude.BELIEVE: 'believe'>, "
        "strength=2)", "strength",
        ((lambda: rr.EpistemicInput(P_X, Attitude.BELIEVE, 2.5),
          "strength must be an int, got 2.5"),
         (lambda: rr.EpistemicInput(P_X, Attitude.SUSPEND, 1), "suspend takes no strength"),
         (lambda: rr.EpistemicInput(P_X, Attitude.DISBELIEVE, 0), "strength must be at least 1"),
         (lambda: rr.EpistemicInput(P_X, "disbelieve"),
          "attitude must be an Attitude, got 'disbelieve'"),
         (lambda: rr.EpistemicInput(1, Attitude.BELIEVE),
          "proposition must be a Proposition, got 1"),
         (lambda: rr.required_content(model_xy(), None),
          "required_content needs an EpistemicInput, got None"),
         (lambda: rr.check_reversibility(rr.lexicographic_rule, model_xy(), None),
          "check_reversibility needs an EpistemicInput, got None"),
         (lambda: rr.constrained_successors(model_xy(), P_X),
          "constrained_successors needs an EpistemicInput, got Proposition(mask=1)"),
         (lambda: rr.apply_rule(rr.lexicographic_rule, model_xy(), None),
          "apply_rule needs an EpistemicInput, got None"))),
    "RevisionRule": Case(
        lambda: rr.RevisionRule("max", max),
        lambda: rr.RevisionRule(name="max", transform=max, strength_based=False),
        "RevisionRule(name='max', transform=<built-in function max>, strength_based=False)",
        "name",
        ((lambda: rr.find_irreversibility(None, U2),
          "find_irreversibility needs a RevisionRule, got None"),
         (lambda: rr.check_reversibility("lex", model_xy(), believe_x()),
          "check_reversibility needs a RevisionRule, got 'lex'"),
         (lambda: rr.rule_by_name(1), "rule_by_name needs a str, got 1"),
         (lambda: rr.rule_by_name(None), "rule_by_name needs a str, got None"),
         (lambda: rr.check_iteration_axiom(None, "B9", model_xy()),
          "check_iteration_axiom needs a RevisionRule, got None"),
         (lambda: rr.check_order_preservation(None, model_xy(), P_X),
          "check_order_preservation needs a RevisionRule, got None"),
         (lambda: rr.apply_rule(None, model_xy(), believe_x()),
          "apply_rule needs a RevisionRule, got None"))),
    "Witness": Case(
        witness,
        lambda: rr.Witness(description="why", model=model_xy(), proposition=None, second=None,
                           epistemic_input=None, world_pair=(X, Y), ocf=None, strength=None),
        WITNESS_REPR, "description"),
    "AxiomReport": Case(
        lambda: rr.AxiomReport("b9", False, 3, witness()),
        lambda: rr.AxiomReport(axiom="b9", passed=False, cases=3, witness=witness(),
                               reversal=None),
        f"AxiomReport(axiom='b9', passed=False, cases=3, witness={WITNESS_REPR}, reversal=None)",
        "passed"),
    "CounterexampleFixture": Case(
        fixture_xy,
        lambda: rr.CounterexampleFixture(universe=U2, prop_a=P_X, r1=model_xy(), r2=model_yx(),
                                         r3=model_xy()),
        FIXTURE_REPR, "r1",
        ((lambda: rr.counterexample_verify("x"),
          "counterexample_verify needs a CounterexampleFixture, got 'x'"),)),
    "CounterexampleReport": Case(
        lambda: rr.CounterexampleReport("counterexample", True, 3, None, None, fixture_xy(),
                                        (model_xy(),), degrees=((0, 1), (0, 1))),
        lambda: rr.CounterexampleReport(
            axiom="counterexample", passed=True, cases=3, witness=None, reversal=None,
            fixture=fixture_xy(), r1_believe=(model_xy(),), r2_believe=(), r3_believe=(),
            r3_suspend=(), r3_disbelieve=(), degrees=((0, 1), (0, 1)), strength_outputs=()),
        "CounterexampleReport(axiom='counterexample', passed=True, cases=3, witness=None, "
        f"reversal=None, fixture={FIXTURE_REPR}, r1_believe=({M_XY_REPR},), "
        "r2_believe=(), r3_believe=(), r3_suspend=(), r3_disbelieve=(), degrees=((0, 1), (0, 1)), "
        "strength_outputs=())", "degrees"),
    "ModelFile": Case(
        lambda: rr.ModelFile(U2, {"p": P_X}),
        lambda: rr.ModelFile(universe=U2, props={"p": P_X}, rpms={}, ocfs={}),
        f"ModelFile(universe={U2_REPR}, props={{'p': Proposition(mask=1)}}, rpms={{}}, ocfs={{}})",
        "props",
        # -1 first: without the check, open() would adopt and close fd 1 for True.
        ((lambda: rr.load_model(-1), "model file path must be a str or os.PathLike, got -1"),
         (lambda: rr.load_model(True), "model file path must be a str or os.PathLike, got True"),
         (lambda: rr.load_model(b"x.bel"),
          "model file path must be a str or os.PathLike, got b'x.bel'"),
         (lambda: rr.parse_model("atoms A\nworlds auto\n", "x"),
          "max worlds must be an int or None, got 'x'"),
         (lambda: rr.parse_model("atoms A\nworlds auto\n", 2.5),
          "max worlds must be an int or None, got 2.5"),
         (lambda: rr.load_model(FIXTURE, True), "max worlds must be an int or None, got True")),
        hashable=False),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class(name):
    case = CASES[name]
    value, twin = case.build(), case.build()
    assert type(value).__name__ == name

    for call, message in case.errors:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()

    assert value == twin and not value != twin
    assert value is not twin
    if case.hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    for other_name, other in CASES.items():
        if other_name != name:
            assert value != other.build()

    for attr in (case.field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == twin

    assert repr(value) == case.repr
    assert case.keywords() == value
    assert pickle.loads(pickle.dumps(value)) == value and copy.deepcopy(value) == value


def test_a_subclass_never_equals_its_base():
    base = rr.AxiomReport("counterexample", True, 3)
    derived = rr.CounterexampleReport("counterexample", True, 3)
    assert base != derived and derived != base


def test_model_files_keep_fresh_dicts():
    first, second = rr.ModelFile(U2), rr.ModelFile(U2)
    first.props["p"] = P_X
    assert second.props == {}


# Lists where the parameters are documented as tuples are stored as tuples,
# so the values stay hashable and equal to their tuple-built twins.

def test_universe_from_lists_is_a_tuple_universe():
    listed = rr.Universe(["a", "b", "c"])
    assert listed == rr.Universe(("a", "b", "c")) and listed.worlds == ("a", "b", "c")
    assert len(rr.revision_table(rr.RankedModel((listed.tautology(),)))) == 7
    valued = rr.Universe(["x", "y"], ["A"], [[True], [False]])
    assert valued == rr.Universe((X, Y), ("A",), ((True,), (False,)))
    assert hash(valued.prop(X)) == hash(rr.Universe((X, Y), ("A",), ((True,), (False,))).prop(X))


def test_ranked_model_blocks_over_equal_universes_are_accepted():
    twin = rr.Universe((X, Y))
    assert twin is not U2
    assert rr.RankedModel((P_X, twin.prop(Y))) == model_xy()


def test_ranked_model_from_a_list_is_hashable():
    listed = rr.RankedModel([P_X, P_Y])
    assert listed == model_xy() and hash(listed) == hash(model_xy())
    assert listed in {model_xy()}


def test_ocf_from_a_list_is_hashable():
    u3 = rr.Universe(("a", "b", "c"))
    listed = rr.OCF(u3, [0, 1, 2])
    assert listed == rr.OCF(u3, (0, 1, 2)) and hash(listed) == hash(rr.OCF(u3, (0, 1, 2)))


def test_iteration_checks_leave_the_model_unchanged():
    model = model_yx()
    for axiom in ("B9", "B10"):
        assert rr.check_iteration_axiom(rr.lexicographic_rule, axiom, model).passed
    assert rr.RankedModel.__slots__ == ("blocks", "_masks", "_ranks")
    assert model == model_yx() and hash(model) == hash(model_yx())
    assert repr(model) == M_YX_REPR
    assert pickle.dumps(model) == pickle.dumps(model_yx())


def test_rank_vector_is_computed_once_and_is_not_a_field():
    model = model_yx()
    assert model.ranks() == (1, 0)
    assert model.ranks() is model.ranks()
    assert model.rank_of(X) == 1 and model.disbelief_degree(U2.tautology()) == 0
    assert model == model_yx() and hash(model) == hash(model_yx())
    assert repr(model) == M_YX_REPR


def test_equal_universes_built_apart_hash_equal():
    first = rr.Universe.from_atoms(("A", "B", "C"))
    second = rr.Universe(list(first.worlds), list(first.atoms), [list(r) for r in first.valuations])
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(first) == hash(first._key(first))
    assert hash(U2) == hash(rr.Universe((X, Y))) != hash(rr.Universe((Y, X)))


def test_universe_hash_survives_a_pickle_round_trip():
    u = rr.Universe.from_atoms(("A", "B"))
    p = u.prop("AB", "ab")
    str(p)  # fills the universe's rendering cache, which pickling leaves out
    assert pickle.dumps(u) == pickle.dumps(rr.Universe.from_atoms(("A", "B")))
    copy_u, copy_p = pickle.loads(pickle.dumps(u)), pickle.loads(pickle.dumps(p))
    assert copy_u == u and hash(copy_u) == hash(u)
    assert copy_p == p and hash(copy_p) == hash(p)


def test_proposition_hash_is_its_universe_and_mask():
    for p in (P_X, P_Y, U2.tautology(), rr.Universe.from_atoms(("A",)).prop("A")):
        assert hash(p) == hash((p.universe, p.mask))
