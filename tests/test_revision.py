"""Single-step revision, the three concrete rules, and OCF conditionalization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankrev as rr
from rankrev import Attitude, EpistemicInput, InputError

from conftest import ALL_MODELS_4, U4, models_with_input, ocfs

BELIEVE_A = EpistemicInput(U4.prop("AB", "Ab"), Attitude.BELIEVE)


def _input(prop, attitude, strength=None):
    return EpistemicInput(prop, attitude, strength)


def test_revise(uni, r1, r3, prop_a):
    assert rr.revise(r1, prop_a) == prop_a
    assert rr.revise(r3, prop_a.complement()) == uni.prop("aB")
    assert rr.revise(r1, uni.contradiction()).is_empty


def test_suspend_content(uni, r1, r3, prop_a):
    def suspend(model, prop):
        return rr.required_content(model, _input(prop, Attitude.SUSPEND))

    assert suspend(r3, prop_a) == uni.prop("AB", "Ab", "aB")
    assert suspend(r1, prop_a) == uni.prop("AB", "Ab", "aB")
    # suspending the tautology leaves exactly the prior belief content
    assert suspend(r1, uni.tautology()) == r1.blocks[0]


def test_apply_rule(uni, r1, r2, r3, prop_a):
    assert rr.apply_rule(rr.lexicographic_rule, r1, BELIEVE_A) == r3
    assert rr.apply_rule(rr.lexicographic_rule, r2, BELIEVE_A) == r3
    assert rr.apply_rule(rr.natural_rule, r3, _input(prop_a, Attitude.DISBELIEVE)) == r2
    for degenerate in (uni.contradiction(), uni.tautology()):
        with pytest.raises(InputError):
            rr.apply_rule(rr.lexicographic_rule, r1, _input(degenerate, Attitude.BELIEVE))


def test_apply_rule_universe_mismatch(r1):
    other = rr.Universe(("x", "y"))
    with pytest.raises(InputError):
        rr.apply_rule(rr.lexicographic_rule, r1, _input(other.prop("x"), Attitude.BELIEVE))


# Every operation that takes a revision input, each checking it through one helper.
REVISION_INPUT_CALLERS = {
    "apply_rule": lambda model, ocf, prop: rr.apply_rule(
        rr.lexicographic_rule, model, _input(prop, Attitude.BELIEVE)),
    "spohn_conditionalize": lambda model, ocf, prop: rr.spohn_conditionalize(ocf, prop, 1),
    "reverse_strength": lambda model, ocf, prop: rr.reverse_strength(ocf, prop),
    "constrained_successors": lambda model, ocf, prop: rr.constrained_successors(
        model, _input(prop, Attitude.DISBELIEVE)),
    "check_order_preservation": lambda model, ocf, prop: rr.check_order_preservation(
        rr.natural_rule, model, prop),
}


@pytest.mark.parametrize("call", REVISION_INPUT_CALLERS.values(), ids=REVISION_INPUT_CALLERS)
def test_revision_input_contract(call, uni, r2, k1):
    with pytest.raises(InputError, match="^operands are over different universes$"):
        call(r2, k1, rr.Universe(("x", "y")).prop("x"))
    for degenerate in (uni.contradiction(), uni.tautology()):
        with pytest.raises(InputError,
                           match="^revision rules reject the contradiction and the tautology$"):
            call(r2, k1, degenerate)


# Mask rules whose output is not an ordered partition of the universe, each
# with the error it raises.
BAD_RULE_OUTPUTS = {
    "overlapping": (lambda blocks, _: (blocks[0],) + blocks,
                    "ranked model blocks must be disjoint"),
    "empty-block": (lambda blocks, _: blocks + (0,), "ranked model blocks must be non-empty"),
    "outside-bit": (lambda blocks, _: blocks[:-1] + (blocks[-1] | 1 << 4,),
                    "ranked model blocks must cover the universe"),
    "missing-world": (lambda blocks, _: tuple(b & ~1 for b in blocks if b & ~1),
                      "ranked model blocks must cover the universe"),
    "not-int": (lambda blocks, _: tuple(map(float, blocks)),
                "ranked model blocks must be int masks"),
    "none": (lambda blocks, _: None, "rule output must be an iterable of block masks, got None"),
    "not-iterable": (lambda blocks, _: 1, "rule output must be an iterable of block masks, got 1"),
}

# Every operation that applies a rule to a ranked model over U4.
RULE_CALLERS = {
    "apply_rule": lambda rule, r2: rr.apply_rule(rule, r2, BELIEVE_A),
    "B9": lambda rule, r2: rr.check_iteration_axiom(rule, "B9", r2),
    "B10": lambda rule, r2: rr.check_iteration_axiom(rule, "B10", r2),
    "check_order_preservation": lambda rule, r2: rr.check_order_preservation(
        rule, r2, BELIEVE_A.proposition),
    "check_reversibility": lambda rule, r2: rr.check_reversibility(rule, r2, BELIEVE_A),
    "find_irreversibility": lambda rule, r2: rr.find_irreversibility(rule, U4),
}


@pytest.mark.parametrize("call", RULE_CALLERS.values(), ids=RULE_CALLERS)
@pytest.mark.parametrize("output, message", BAD_RULE_OUTPUTS.values(), ids=BAD_RULE_OUTPUTS)
def test_rule_output_must_partition_the_universe(call, output, message, r2):
    with pytest.raises(InputError, match=f"^{message}$"):
        call(rr.RevisionRule("bad", output), r2)


def test_a_transform_error_is_not_relabelled(r2):
    def broken(blocks, _):
        return len(None)

    for call in RULE_CALLERS.values():
        with pytest.raises(TypeError, match="NoneType"):
            call(rr.RevisionRule("broken", broken), r2)


def test_a_rule_is_a_named_callable():
    for fields in (("bad", 1), (1, max), ("bad", max, 1), ("bad", max, None)):
        with pytest.raises(InputError):
            rr.RevisionRule(*fields)
    assert rr.RevisionRule("max", max, True).strength_based


def test_lexicographic_rule(uni, r1, r3, prop_a):
    assert rr.lexicographic_rule(r1, BELIEVE_A) == rr.RankedModel.from_labels(
        uni, ["AB", "Ab"], ["aB"], ["ab"])
    assert rr.lexicographic_rule(r3, _input(prop_a, Attitude.DISBELIEVE)) == (
        rr.RankedModel.from_labels(uni, ["aB"], ["ab"], ["AB", "Ab"]))
    assert rr.lexicographic_rule(r3, _input(prop_a, Attitude.SUSPEND)) == (
        rr.RankedModel.from_labels(uni, ["AB", "Ab", "aB"], ["ab"]))


def test_natural_rule(uni, r2, r3, prop_a):
    assert rr.natural_rule(r2, BELIEVE_A) == r3
    assert rr.natural_rule(r3, _input(prop_a, Attitude.DISBELIEVE)) == r2
    # only the minimal believed world is promoted; later same-side worlds stay put
    tall = rr.RankedModel.from_labels(uni, ["aB"], ["AB"], ["ab"], ["Ab"])
    assert rr.natural_rule(tall, BELIEVE_A) == rr.RankedModel.from_labels(
        uni, ["AB"], ["aB"], ["ab"], ["Ab"])


def test_spohn_conditionalize(uni, k1, prop_a):
    shifted = rr.spohn_conditionalize(k1, prop_a, 1)
    assert shifted == rr.OCF.from_map(uni, {"AB": 0, "Ab": 0, "aB": 1, "ab": 3})
    assert rr.spohn_conditionalize(shifted, prop_a, -1) == k1
    assert rr.spohn_conditionalize(k1, prop_a, 0) == rr.OCF.from_map(
        uni, {"AB": 0, "Ab": 0, "aB": 0, "ab": 2})
    for degenerate in (uni.contradiction(), uni.tautology()):
        with pytest.raises(InputError):
            rr.spohn_conditionalize(k1, degenerate, 1)


def test_spohn_rule(uni, r1, r2, r3, prop_a):
    rule = rr.spohn_rule(1)
    assert rule(r1, BELIEVE_A) == r3
    assert rule(r2, BELIEVE_A) == r3  # gap collapsing merges the two histories
    # disbelieving at strength 1 leaves ab level with the believed side, so the
    # regrouped ranking is r1, not r2: the numeric gap from r3 cannot survive
    assert rule(r3, _input(prop_a, Attitude.DISBELIEVE)) == r1
    with pytest.raises(InputError):
        rr.spohn_rule(0)


def test_spohn_rule_strength_override(r2, prop_a):
    rule = rr.spohn_rule(1)
    strong = rule(r2, _input(prop_a, Attitude.BELIEVE, 3))
    expected = rr.rpm_from_ocf(rr.spohn_conditionalize(rr.ocf_from_rpm(r2), prop_a, 3))
    assert strong == expected


def test_reverse_strength(uni, k1, prop_a):
    assert rr.reverse_strength(k1, prop_a) == -1
    believing = rr.OCF.from_map(uni, {"AB": 0, "Ab": 0, "aB": 2, "ab": 2})
    assert rr.reverse_strength(believing, prop_a) == 2
    suspended = rr.OCF.from_map(uni, {"AB": 0, "Ab": 1, "aB": 0, "ab": 1})
    assert rr.reverse_strength(suspended, prop_a) == 0


def test_strength_must_be_magnitude(prop_a):
    with pytest.raises(InputError):
        EpistemicInput(prop_a, Attitude.BELIEVE, -1)
    # strength 0 would turn belief or disbelief into suspension
    for attitude in (Attitude.BELIEVE, Attitude.DISBELIEVE):
        with pytest.raises(InputError, match="strength must be at least 1"):
            EpistemicInput(prop_a, attitude, 0)
        assert EpistemicInput(prop_a, attitude, 1).strength == 1
    with pytest.raises(InputError, match="suspend takes no strength"):
        EpistemicInput(prop_a, Attitude.SUSPEND, 2)


@pytest.mark.parametrize("strength", [True, 2.5, "2"], ids=["bool", "float", "str"])
def test_strength_must_be_int(prop_a, strength):
    for attitude in Attitude:
        with pytest.raises(InputError, match="strength must be an int"):
            EpistemicInput(prop_a, attitude, strength)
    with pytest.raises(InputError, match="rule strength must be an int"):
        rr.spohn_rule(strength)


def test_rule_by_name():
    assert rr.rule_by_name("lex") is rr.lexicographic_rule
    assert rr.rule_by_name("natural") is rr.natural_rule
    assert rr.rule_by_name("flip") is rr.flip_rule
    assert rr.rule_by_name("spohn:2").name == "spohn:2"
    for bad in ("nope", "spohn:x", "spohn:", "spohn:\u0663", "spohn: 2", "spohn:2 ", "spohn:+2"):
        with pytest.raises(InputError):
            rr.rule_by_name(bad)


def test_flip_rule_breaks_b10(uni, r2, prop_a):
    # believing A inverts the rejected side, so the least disbelieved
    # complement-world afterwards is the one that was most disbelieved before
    flipped = rr.flip_rule(r2, BELIEVE_A)
    assert flipped == rr.RankedModel.from_labels(uni, ["AB", "Ab"], ["ab"], ["aB"])
    b = prop_a.complement()
    assert rr.revise(flipped, b) != rr.revise(r2, b)


def test_revise_results_exhaustive():
    # revision output entails the input and is consistent for consistent input
    for model in ALL_MODELS_4:
        for mask in range(1, 16):
            prop = U4.prop_from_mask(mask)
            content = rr.revise(model, prop)
            assert content.entails(prop)
            assert not content.is_empty


@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_believe_content_matches_revise_exhaustive(rule):
    for model in ALL_MODELS_4:
        for mask in range(1, 15):
            prop = U4.prop_from_mask(mask)
            revised = rr.apply_rule(rule, model, _input(prop, Attitude.BELIEVE))
            assert revised.blocks[0] == rr.revise(model, prop)


@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_attitude_contents_exhaustive(rule):
    for model in ALL_MODELS_4:
        for mask in range(1, 15):
            prop = U4.prop_from_mask(mask)
            for attitude in Attitude:
                revised = rr.apply_rule(rule, model, _input(prop, attitude))
                assert revised.blocks[0] == rr.required_content(model, _input(prop, attitude))


@given(models_with_input())
def test_rules_produce_valid_models(pair):
    model, epistemic_input = pair
    for rule in (rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)):
        revised = rr.apply_rule(rule, model, epistemic_input)
        assert revised.universe == model.universe  # RankedModel validates partition shape


@given(ocfs(max_worlds=4, max_value=4))
def test_conditionalization_reversible_random(ocf):
    n = len(ocf.universe.worlds)
    if n < 2:
        return
    for mask in (1, (1 << n) - 2):
        prop = ocf.universe.prop_from_mask(mask)
        for alpha in range(-3, 4):
            conditioned = rr.spohn_conditionalize(ocf, prop, alpha)
            beta = rr.reverse_strength(ocf, prop)
            assert rr.spohn_conditionalize(conditioned, prop, beta) == ocf


@given(ocfs(min_worlds=2, max_worlds=5))
def test_conditionalization_sets_target_degrees(ocf):
    n = len(ocf.universe.worlds)
    prop = ocf.universe.prop_from_mask(1)
    for alpha in (-2, 0, 2):
        out = rr.spohn_conditionalize(ocf, prop, alpha)
        target = prop if alpha >= 0 else prop.complement()
        assert out.degree(target) == 0
        assert out.degree(target.complement()) == abs(alpha)
        assert min(out.values) == 0


@given(ocfs(min_worlds=2, max_worlds=5), st.data())
def test_conditionalizing_twice_forgets_the_first_strength(ocf, data):
    # Spohn 1988: the second conditionalization on A fixes both sides' degrees
    # and keeps their internal differences, so only its own strength matters.
    n = len(ocf.universe.worlds)
    prop = ocf.universe.prop_from_mask(data.draw(st.integers(1, (1 << n) - 2)))
    alpha, beta = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    twice = rr.spohn_conditionalize(rr.spohn_conditionalize(ocf, prop, alpha), prop, beta)
    assert twice == rr.spohn_conditionalize(ocf, prop, beta)
