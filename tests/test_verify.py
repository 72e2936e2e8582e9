"""Exhaustive checkers: axioms, successor sets, enumeration, irreversibility."""

import math
import random
import time
import tracemalloc

import pytest

import rankrev as rr
import rankrev.verify as verify
import reference_checkers as reference
from rankrev import Attitude, EpistemicInput, InputError
from rankrev.cli import render_counterexample

from conftest import (ALL_MODELS_4, U4, max_rank_degree, plain_universe,
                      reverse_accepted_rule, shifted_degree, unchanged_rule)

A = U4.prop("AB", "Ab")


# ---------------------------------------------------------------------------
# independent oracles


def ordered_bell(n: int) -> int:
    """Count ordered set partitions by the recursion a(n) = sum C(n,k) a(n-k)."""
    if n == 0:
        return 1
    return sum(math.comb(n, k) * ordered_bell(n - k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_recursion():
    for n in range(1, 6):
        count = sum(1 for _ in rr.enumerate_ranked_models(plain_universe(n)))
        assert count == ordered_bell(n)
    assert [ordered_bell(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]


def test_enumeration_is_duplicate_free():
    models = list(rr.enumerate_ranked_models(plain_universe(4)))
    assert len(set(models)) == len(models) == 75


def test_enumeration_canonical_order():
    u = plain_universe(2)
    got = list(rr.enumerate_ranked_models(u))
    assert got == [
        rr.RankedModel((u.tautology(),)),
        rr.RankedModel((u.prop("w0"), u.prop("w1"))),
        rr.RankedModel((u.prop("w1"), u.prop("w0"))),
    ]


def test_enumeration_bound():
    assert sum(1 for _ in rr.enumerate_ranked_models(plain_universe(6))) == ordered_bell(6)


def test_enumeration_is_lazy():
    u = plain_universe(20)
    assert next(rr.enumerate_ranked_models(u)) == rr.RankedModel((u.tautology(),))
    u = plain_universe(7)
    assert sum(1 for _ in rr.enumerate_ranked_models(u)) == ordered_bell(7) == 47293
    # The first walk also fills the interpreter's free lists (about 0.8 MB of
    # tuples), which would otherwise count toward the peak of the second.
    tracemalloc.start()
    try:
        for _ in rr.enumerate_ranked_models(u):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_ocfs():
    got = list(reference.enumerate_ocfs(plain_universe(2), 2))
    values = [o.values for o in got]
    assert values == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]


# ---------------------------------------------------------------------------
# single-step axioms


def test_check_agm_fixtures(r1, r2):
    report = rr.check_agm(r2)
    assert report.passed
    assert report.cases == 16 + 256
    assert rr.check_agm(r1).passed


def test_check_agm_single_world():
    u = plain_universe(1)
    assert rr.check_agm(rr.RankedModel((u.tautology(),))).passed


def test_check_agm_bound():
    # The command line's default bound is 8 worlds, three atoms; the library has none.
    assert rr.check_agm(rr.RankedModel((plain_universe(8).tautology(),))).passed
    assert rr.check_agm(rr.RankedModel((plain_universe(9).tautology(),))).passed


def test_check_degree_conditions(r1, r3):
    assert rr.check_degree_conditions(r1).passed
    assert rr.check_degree_conditions(r3).passed
    u = plain_universe(3)
    flat = rr.RankedModel((u.tautology(),))
    report = rr.check_degree_conditions(flat)
    assert report.passed  # all degrees 0: no strict pair, and the biconditional holds


def test_pair_checkers_at_eleven_worlds_within_a_second():
    # A seeded 4-block model over 11 worlds: 4^11 pairs each, through set algebra.
    n = 11
    ranks = [i % 4 for i in range(n)]
    random.Random(11).shuffle(ranks)
    model = rr.RankedModel.from_ranks(plain_universe(n), tuple(ranks))
    start = time.perf_counter()
    agm = rr.check_agm(model)
    degrees = rr.check_degree_conditions(model)
    elapsed = time.perf_counter() - start
    assert (agm.passed, agm.cases) == (True, 2 ** n + 4 ** n)
    assert (degrees.passed, degrees.cases) == (True, n + (2 ** n - 1) ** 2)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def _seeded_model(n: int, blocks: int, seed: int) -> rr.RankedModel:
    ranks = [i % blocks for i in range(n)]
    random.Random(seed).shuffle(ranks)
    return rr.RankedModel.from_ranks(plain_universe(n), tuple(ranks))


def test_degree_pairs_keep_one_row_per_level_at_twelve_worlds():
    # The pair phase keeps the rows of one chain of masks, not of every mask.
    n = 12
    model = _seeded_model(n, 4, 12)
    tracemalloc.start()
    try:
        report = rr.check_degree_conditions(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.passed, report.cases) == (True, n + (2 ** n - 1) ** 2)
    assert peak < 2 << 20, f"{peak / 2 ** 20:.1f} MB"


def test_agm_pairs_keep_one_submask_set_per_level_at_twelve_worlds():
    # A submask set per mask would be 2^12 sets of 2^12 bits, about 1.4 MB.
    n = 12
    model = _seeded_model(n, 4, 12)
    tracemalloc.start()
    try:
        report = rr.check_agm(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.passed, report.cases) == (True, 2 ** n + 4 ** n)
    assert peak < 1 << 19, f"{peak / 2 ** 20:.2f} MB"


def test_representation_checks_the_given_table_in_place_at_twelve_worlds():
    # A second table of 2^12 entries, or a copy of this one, would peak near 1 MB.
    model = _seeded_model(12, 4, 12)
    table = rr.revision_table(model)
    tracemalloc.start()
    try:
        recovered = rr.representation_check(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recovered == model
    assert peak < 100_000, f"{peak / 2 ** 20:.3f} MB"


# ---------------------------------------------------------------------------
# iteration axioms and order preservation


@pytest.mark.parametrize("axiom", ["B9", "B10"])
@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_iteration_axioms_on_fixtures(rule, axiom, r1, r2, r3):
    for model in (r1, r2, r3):
        assert rr.check_iteration_axiom(rule, axiom, model).passed


def test_iteration_axiom_rejects_unknown_name(r1):
    with pytest.raises(InputError):
        rr.check_iteration_axiom(rr.lexicographic_rule, "B11", r1)
    with pytest.raises(InputError, match=r"^unknown iteration axiom 9 \(expected B9 or B10\)$"):
        rr.check_iteration_axiom(rr.lexicographic_rule, 9, r1)


def test_flip_fails_b10_with_replayable_witness(r2):
    report = rr.check_iteration_axiom(rr.flip_rule, "B10", r2)
    assert not report.passed
    w = report.witness
    assert w is not None
    # replay: believe A', then revising by B' must disagree with direct revision
    revised = rr.apply_rule(rr.flip_rule, w.model, EpistemicInput(w.proposition, Attitude.BELIEVE))
    assert rr.revise(revised, w.second) != rr.revise(w.model, w.second)


def test_flip_passes_b9(r2):
    assert rr.check_iteration_axiom(rr.flip_rule, "B9", r2).passed


def _counting(rule: rr.RevisionRule) -> tuple[rr.RevisionRule, list]:
    calls = []

    def transform(blocks, epistemic_input):
        calls.append(epistemic_input)
        return rule.transform(blocks, epistemic_input)

    return rr.RevisionRule(f"counting-{rule.name}", transform), calls


@pytest.mark.parametrize("order", [("B9", "B10"), ("B10", "B9")])
def test_iteration_and_reversal_checks_build_no_ranked_model(monkeypatch, order):
    # Each axiom applies the rule once per input "believe A", 2^n - 2 inputs, on
    # block masks, whichever axiom runs first: neither checker builds a ranked model.
    n = 8
    model = _seeded_model(n, 4, 8)
    rule, calls = _counting(rr.lexicographic_rule)
    built = []
    init = rr.RankedModel.__init__

    def counting_init(self, blocks):
        built.append(blocks)
        init(self, blocks)

    monkeypatch.setattr(rr.RankedModel, "__init__", counting_init)
    for axiom in order:
        calls.clear()
        report = rr.check_iteration_axiom(rule, axiom, model)
        assert (report.passed, report.cases) == (True, 3 ** n - 2 ** (n + 1) + 1)
        assert [c.proposition.mask for c in calls] == list(range(1, 2 ** n - 1))
    verdicts = set()
    for mask in (1, model.blocks[0].mask):
        for attitude in Attitude:
            epistemic_input = EpistemicInput(model.universe.prop_from_mask(mask), attitude)
            verdicts.add(rr.check_reversibility(rule, model, epistemic_input).passed)
    assert verdicts == {True, False}
    assert built == []


def test_order_preservation_builds_no_ranked_model(monkeypatch):
    # One rule call on block masks per check, for every non-degenerate A and
    # attitude at 8 worlds; the posterior's rank vector is read off its masks.
    n = 8
    model = _seeded_model(n, 4, 8)
    rule, calls = _counting(rr.lexicographic_rule)
    built = []
    init = rr.RankedModel.__init__

    def counting_init(self, blocks):
        built.append(blocks)
        init(self, blocks)

    monkeypatch.setattr(rr.RankedModel, "__init__", counting_init)
    for mask in range(1, 2 ** n - 1):
        prop = model.universe.prop_from_mask(mask)
        for attitude in Attitude:
            calls.clear()
            report = rr.check_order_preservation(rule, model, prop, attitude)
            assert report.passed
            assert calls == [EpistemicInput(prop, attitude)]
    assert built == []


def test_stored_posteriors_serve_only_their_own_rule():
    model = _seeded_model(8, 4, 9)
    assert rr.check_iteration_axiom(rr.lexicographic_rule, "B9", model).passed
    report = rr.check_iteration_axiom(rr.flip_rule, "B10", model)
    assert not report.passed
    assert report == reference.check_iteration_axiom(rr.flip_rule, "B10", model)


@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_order_preservation_on_fixtures(rule, r1, r2, r3):
    for model in (r1, r2, r3):
        for attitude in Attitude:
            assert rr.check_order_preservation(rule, model, A, attitude).passed


def test_order_preservation_flip_fails(r2):
    report = rr.check_order_preservation(rr.flip_rule, r2, A)
    assert not report.passed
    w1, w2 = report.witness.world_pair
    revised = rr.apply_rule(rr.flip_rule, r2, EpistemicInput(A, Attitude.BELIEVE))
    pair = U4.prop(w1, w2)
    assert pair.entails(A) or pair.entails(~A)

    def order(model):
        a, b = model.rank_of(w1), model.rank_of(w2)
        return (a > b) - (a < b)

    assert order(r2) != order(revised)
    words = {-1: "first", 0: "tie", 1: "second"}
    assert report.witness.description.endswith(
        f"{w1} vs {w2} was {words[order(r2)]}, now {words[order(revised)]}")


def test_order_preservation_rejects_degenerate(r1, uni):
    with pytest.raises(InputError):
        rr.check_order_preservation(rr.lexicographic_rule, r1, uni.tautology())


# ---------------------------------------------------------------------------
# constrained successors


def test_constrained_successors_examples(r1, r2, r3, uni):
    believe = EpistemicInput(A, Attitude.BELIEVE)
    assert rr.constrained_successors(r1, believe) == (r3,)
    assert rr.constrained_successors(r2, believe) == (r3,)
    disbelieve = EpistemicInput(A, Attitude.DISBELIEVE)
    expected = {r1, r2, rr.RankedModel.from_labels(uni, ["aB"], ["ab"], ["AB", "Ab"])}
    assert set(rr.constrained_successors(r3, disbelieve)) == expected


def test_constrained_successors_rejects_degenerate(r1, uni):
    with pytest.raises(InputError):
        rr.constrained_successors(r1, EpistemicInput(uni.contradiction(), Attitude.BELIEVE))


# ---------------------------------------------------------------------------
# reversibility


def test_reversibility_fails_at_paper_step(r1):
    report = rr.check_reversibility(rr.lexicographic_rule, r1,
                                    EpistemicInput(A, Attitude.BELIEVE))
    assert not report.passed
    assert report.cases == len(Attitude)
    w = report.witness
    assert w.model == r1 and w.epistemic_input == EpistemicInput(A, Attitude.BELIEVE)
    # replay: no attitude toward the witness proposition maps the revised model back
    revised = rr.apply_rule(rr.lexicographic_rule, w.model, w.epistemic_input)
    prop = w.epistemic_input.proposition
    assert all(
        rr.apply_rule(rr.lexicographic_rule, revised, EpistemicInput(prop, att)) != w.model
        for att in Attitude
    )


def test_reversibility_fixed_point(r3):
    report = rr.check_reversibility(rr.lexicographic_rule, r3,
                                    EpistemicInput(A, Attitude.BELIEVE))
    assert report.passed
    assert report.reversal == EpistemicInput(A, Attitude.BELIEVE)


def test_ocf_reversibility(k1):
    report = rr.check_ocf_reversibility(k1, A, 1)
    assert report.passed
    assert report.reversal == -1  # matches reverse_strength


def test_ocf_reversibility_fails_outside_bound(k1):
    # with strengths capped below the needed magnitude, reversal is unreachable
    strong = rr.spohn_conditionalize(k1, A, 3)
    report = rr.check_ocf_reversibility(strong, A, -3, max_strength=2)
    assert not report.passed


def test_negative_max_strength_is_input_error(r1, k1):
    believe_a = EpistemicInput(A, Attitude.BELIEVE)
    calls = [lambda m: rr.check_reversibility(rr.spohn_rule(1), r1, believe_a, m),
             lambda m: rr.check_reversibility(rr.lexicographic_rule, r1, believe_a, m),
             lambda m: rr.check_ocf_reversibility(k1, A, 0, m),
             lambda m: rr.counterexample_verify(max_strength=m),
             lambda m: rr.find_ocf_irreversibility(U4, max_value=1, max_strength=m)]
    for call in calls:
        with pytest.raises(InputError, match="max strength must be at least 0"):
            call(-1)
        for bound in (2.5, True):
            with pytest.raises(InputError, match=f"^max strength must be an int, got {bound}$"):
                call(bound)
    # zero is a valid bound: only the zero strength (suspension) is tried
    report = rr.check_reversibility(rr.spohn_rule(1), r1, believe_a, 0)
    assert report.cases == 1
    assert rr.check_ocf_reversibility(k1, A, 0, 0).cases == 1
    assert rr.counterexample_verify(max_strength=0).strength_outputs[0][0] == 0


@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_find_irreversibility_returns_replayable_witness(rule):
    witness = rr.find_irreversibility(rule, U4)
    assert witness is not None
    revised = rr.apply_rule(rule, witness.model, witness.epistemic_input)
    candidates = [EpistemicInput(witness.epistemic_input.proposition, att) for att in Attitude]
    if rule.strength_based:
        prop = witness.epistemic_input.proposition
        candidates = (
            [EpistemicInput(prop, Attitude.DISBELIEVE, s) for s in range(1, 4)]
            + [EpistemicInput(prop, Attitude.SUSPEND)]
            + [EpistemicInput(prop, Attitude.BELIEVE, s) for s in range(1, 4)]
        )
    assert all(rr.apply_rule(rule, revised, c) != witness.model for c in candidates)


def test_find_irreversibility_canonical_first_for_lex(uni):
    witness = rr.find_irreversibility(rr.lexicographic_rule, uni)
    # first two-block model whose second block strictly contains the believed
    # proposition: the earliest irreversible step in canonical order
    assert witness.model == rr.RankedModel.from_labels(uni, ["AB", "Ab"], ["aB", "ab"])
    assert witness.epistemic_input == EpistemicInput(uni.prop("aB"), Attitude.BELIEVE)


def test_find_irreversibility_finds_nothing_for_a_rule_that_changes_nothing(uni):
    assert rr.find_irreversibility(unchanged_rule, uni) is None


def test_find_irreversibility_small_universe_rejected():
    with pytest.raises(InputError):
        rr.find_irreversibility(rr.lexicographic_rule, plain_universe(3))


def test_find_ocf_irreversibility_absent():
    assert rr.find_ocf_irreversibility(U4, max_value=3, max_strength=3) is None


def test_find_ocf_irreversibility_witness_replays():
    # values up to 3 need strengths up to 3: with ±1 there must be a witness;
    # the witness is built, so twenty worlds cost no more than four
    u20 = plain_universe(20)
    cases = [(U4, 3, 1, rr.OCF(U4, (0, 0, 0, 2)), U4.prop("AB", "Ab", "aB")),
             (u20, 4, 3, rr.OCF(u20, (0,) * 19 + (4,)), u20.prop(*u20.worlds[:-1]))]
    for universe, max_value, max_strength, ocf, prop in cases:
        start = time.perf_counter()
        w = rr.find_ocf_irreversibility(universe, max_value=max_value, max_strength=max_strength)
        assert time.perf_counter() - start < 0.5
        assert w is not None
        assert w.ocf == ocf
        assert w.proposition == prop
        assert w.strength == -max_strength
        # replay: no strength within the bound restores the OCF after the witness step ...
        conditioned = rr.spohn_conditionalize(w.ocf, w.proposition, w.strength)
        assert all(rr.spohn_conditionalize(conditioned, w.proposition, beta) != w.ocf
                   for beta in range(-max_strength, max_strength + 1))
        # ... because the one strength that does lies outside the bound
        beta = rr.reverse_strength(w.ocf, w.proposition)
        assert abs(beta) > max_strength
        assert rr.spohn_conditionalize(conditioned, w.proposition, beta) == w.ocf


# ---------------------------------------------------------------------------
# the counterexample


def test_counterexample_fixture_shape():
    fx = rr.counterexample_fixture()
    assert fx.universe.worlds == ("AB", "Ab", "aB", "ab")
    assert fx.prop_a == fx.universe.prop("AB", "Ab")
    assert fx.r1 == rr.RankedModel.from_labels(fx.universe, ["aB"], ["AB", "Ab", "ab"])
    assert fx.r2 == rr.RankedModel.from_labels(fx.universe, ["aB"], ["AB", "Ab"], ["ab"])
    assert fx.r3 == rr.RankedModel.from_labels(fx.universe, ["AB", "Ab"], ["aB"], ["ab"])


def test_counterexample_verify_passes():
    report = rr.counterexample_verify()
    assert report.passed
    fx = report.fixture
    assert report.r1_believe == (fx.r3,)
    assert report.r2_believe == (fx.r3,)
    assert fx.r1 not in report.r3_believe + report.r3_suspend
    assert fx.r2 not in report.r3_believe + report.r3_suspend
    assert fx.r1 in report.r3_disbelieve and fx.r2 in report.r3_disbelieve
    assert report.degrees == ((1, 0), (1, 0))
    reached = [out for _, out in report.strength_outputs if out in (fx.r1, fx.r2)]
    assert reached and all(m == reached[0] for m in reached)


def test_counterexample_verify_generalized_five_worlds():
    report = rr.counterexample_verify(rr.counterexample_fixture((2, 1, 1, 1)))
    assert report.passed


def test_counterexample_checker_can_fail_and_witness_replays():
    # r3 replaced by r2, which is not where believing A sends r1
    fx = rr.counterexample_fixture()
    broken = rr.CounterexampleFixture(fx.universe, fx.prop_a, fx.r1, fx.r2, fx.r2)
    report = rr.counterexample_verify(broken)
    assert not report.passed
    w = report.witness
    assert w.model == fx.r2 and w.proposition == fx.prop_a
    # replay: the forced successor of r1 is not the witness model
    believe = EpistemicInput(w.proposition, Attitude.BELIEVE)
    assert rr.constrained_successors(fx.r1, believe) != (w.model,)
    assert rr.constrained_successors(fx.r1, believe) == (fx.r3,)
    text = render_counterexample(report)
    assert text.endswith(f"verdict: FAIL — {w.description}\n")
    # the data is printed, but none of the conclusions the failure contradicts
    assert "  believe A from r1:\n    [AB Ab] [aB] [ab]\n" in text
    assert "    -2 -> [aB] [AB Ab ab]  (= r1)\n" in text
    # r2 and r3 are equal here, so a model equal to both carries both names
    assert ("  disbelieve A from r3:\n    [aB] [AB Ab ab]  (= r1)\n"
            "    [aB] [AB Ab] [ab]  (= r2, r3)\n") in text
    assert "    -1 -> [aB] [AB Ab] [ab]  (= r2, r3)\n" in text
    for conclusion in ("forces both", "never both", "reaches neither", "can restore",
                       "restores at most one", "do not help", "cannot separate"):
        assert conclusion not in text


def _forbid_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_ranked_models called")

    monkeypatch.setattr(verify, "enumerate_ranked_models", refuse)


@pytest.mark.parametrize("worlds", [4, 5, 6])
def test_counterexample_never_enumerates(monkeypatch, worlds):
    _forbid_enumeration(monkeypatch)
    assert rr.counterexample_verify(rr.counterexample_fixture((worlds - 3, 1, 1, 1))).passed


def test_counterexample_fixture_validation():
    with pytest.raises(InputError):
        rr.counterexample_fixture((0, 1, 1, 1))
    for sizes in ((1.5, 1, 1, 1), (True, 1, 1, 1), (1, 1, 1, "2")):
        with pytest.raises(InputError, match="^fixture group sizes must be ints"):
            rr.counterexample_fixture(sizes)


# ---------------------------------------------------------------------------
# representation


def test_representation_round_trip(r2):
    table = rr.revision_table(r2)
    assert rr.representation_check(table) == r2
    # uniqueness: no other model reproduces the same table
    matches = [
        m for m in ALL_MODELS_4
        if all(rr.revise(m, p) == t for p, t in table.items())
    ]
    assert matches == [r2]


def test_representation_rejects_b2_violation(uni, r2):
    table = rr.revision_table(r2)
    # corrupt one entry so the revised content no longer entails the input
    bad = dict(table)
    bad[uni.prop("ab")] = uni.prop("aB")
    assert rr.representation_check(bad) is None


def test_representation_single_world():
    u = plain_universe(1)
    model = rr.RankedModel((u.tautology(),))
    assert rr.representation_check(rr.revision_table(model)) == model


def test_representation_never_enumerates(monkeypatch):
    model = rr.RankedModel.from_ranks(plain_universe(7), (3, 0, 6, 1, 5, 2, 4))
    table = rr.revision_table(model)
    _forbid_enumeration(monkeypatch)
    assert rr.representation_check(table) == model


def test_representation_partial_table_rejected(r2):
    table = rr.revision_table(r2)
    table.pop(U4.prop("AB"))
    with pytest.raises(InputError):
        rr.representation_check(table)
    with pytest.raises(InputError):
        rr.representation_check({})
    # total over the masks, but one key is over another four-world universe
    mixed = rr.revision_table(r2)
    mixed[plain_universe(4).prop_from_mask(5)] = mixed.pop(U4.prop_from_mask(5))
    with pytest.raises(InputError, match="^table keys are over different universes$"):
        rr.representation_check(mixed)


NOT_PROPOSITIONS = "^table keys and values must be propositions$"


@pytest.mark.parametrize("key, value, message", [
    (U4.prop("AB"), None, NOT_PROPOSITIONS),
    (U4.prop("AB"), 5, NOT_PROPOSITIONS),
    (5, U4.prop("AB"), NOT_PROPOSITIONS),
    (U4.prop("AB"), plain_universe(4).prop_from_mask(U4.prop("AB").mask),
     "^table values are over a different universe than its keys$"),
], ids=["none-value", "int-value", "int-key", "foreign-value"])
def test_representation_rejects_entries_that_are_not_propositions_of_one_universe(
        r2, key, value, message):
    # the entry for AB of a total table is replaced
    table = rr.revision_table(r2)
    del table[U4.prop("AB")]
    table[key] = value
    with pytest.raises(InputError, match=message):
        rr.representation_check(table)


# ---------------------------------------------------------------------------
# witness soundness: every failing checker's witness replays to a violation


def test_agm_checker_can_fail_and_witness_replays(uni, monkeypatch):
    # break revision via a shim: pretend revision always returns the prior block
    def broken_revise(model, prop):
        return model.blocks[0]

    monkeypatch.setattr(verify, "revise", broken_revise)
    report = verify.check_agm(rr.RankedModel.from_labels(uni, ["aB"], ["AB", "Ab", "ab"]))
    assert not report.passed
    assert report.witness is not None
    monkeypatch.undo()
    # replayed through the real operation the axiom holds, confirming the
    # violation came from the broken revision, not the checker
    assert rr.check_agm(report.witness.model).passed


def test_degree_checker_can_fail_and_witness_replays(monkeypatch):
    # break the degree route: the maximum rank over the worlds, not the minimum
    model = rr.RankedModel.from_labels(U4, ["aB"], ["AB", "Ab"], ["ab"])
    monkeypatch.setattr(rr.RankedModel, "disbelief_degree", max_rank_degree)
    report = rr.check_degree_conditions(model)
    assert not report.passed
    w = report.witness
    a, b = w.proposition, w.second

    def condition_holds():
        strictly_less = w.model.disbelief_degree(a) < w.model.disbelief_degree(b)
        first = w.model.blocks[w.model.first_consistent_block(a | b)]
        return strictly_less == (first & b).is_empty

    # replayed through the public API, the broken degrees violate condition (ii) ...
    assert not condition_holds()
    monkeypatch.undo()
    # ... and the real ones satisfy it there and everywhere
    assert condition_holds()
    assert rr.check_degree_conditions(w.model).passed


def test_degree_condition_i_can_fail_and_witness_replays(monkeypatch, r2):
    # break the degree route by one: every comparison (ii) makes keeps its verdict
    monkeypatch.setattr(rr.RankedModel, "disbelief_degree", shifted_degree)
    report = rr.check_degree_conditions(r2)
    assert not report.passed
    assert report.cases == 1
    w = report.witness
    assert w.description == "degree of {AB} is not its rank"
    single = w.proposition
    assert single == U4.prop("AB")
    # replayed through the public API, the broken degree is not the singleton's block ...
    assert w.model.disbelief_degree(single) != w.model.first_consistent_block(single)
    monkeypatch.undo()
    # ... and the real one is, and equals the world's rank
    assert w.model.disbelief_degree(single) == w.model.first_consistent_block(single)
    assert w.model.disbelief_degree(single) == w.model.rank_of("AB") == 1
    assert rr.check_degree_conditions(w.model).passed


def test_b9_checker_can_fail_and_witness_replays(r2):
    report = rr.check_iteration_axiom(reverse_accepted_rule, "B9", r2)
    assert not report.passed
    w = report.witness
    assert w.second.entails(w.proposition)  # B9 case: B entails A

    def believe_then_revise(rule):
        revised = rr.apply_rule(rule, w.model, EpistemicInput(w.proposition, Attitude.BELIEVE))
        return rr.revise(revised, w.second)

    # replay: believing A under the broken rule, then revising by B, misses the
    # beliefs B alone gives; under the lexicographic rule it lands on them
    assert believe_then_revise(reverse_accepted_rule) != rr.revise(w.model, w.second)
    assert believe_then_revise(rr.lexicographic_rule) == rr.revise(w.model, w.second)
    assert rr.check_iteration_axiom(rr.lexicographic_rule, "B9", w.model).passed
