"""Table-driven checkers against the object-level references, report for report.

Equal reports mean equal verdicts, case counts and witnesses, so the first
failing case is compared too.  Broken operations come from ``conftest`` or
are patched in here; the references see every patch the checkers see.

The enumerator, which walks only surjective block assignments, is compared
with the references' product-and-filter generator, model for model in order.
Successor sets and representations, which the library builds directly, are
compared with the references' filter and scan over every ranked model.

The rules, ``ranks()`` and ``revise``, which compute on block masks, are
compared with the references' object-level bodies, result for result, and a
model's kept block masks with those of its block propositions.

Reversal, which the library runs on block masks, is compared with the
references' ``apply_rule`` per candidate, report for report, and the
irreversibility search with their scan over models, propositions and
attitudes, witness for witness.

Order preservation and OCF reversal, which the library reads off rank
vectors and ``reverse_strength``, are compared with the references' searches.
So is the first irreversible OCF step, which the library builds in closed
form, with the references' walk over every bounded OCF.

The set-algebra pair phases of ``check_agm`` and ``check_degree_conditions``
are compared with the references' plain pair loops on the same int-mask
tables, which are drawn from random models with a few entries replaced.  The
per-world sets they start from are compared with the references' bit-by-bit
loop, on every mask and on random tables; the sets of masks holding each
world, which the library builds in closed form, with that loop over every
mask.

``rankrev iterate``, which runs its rule on block masks and renders each
mask once per universe, is compared with the references' transcript through
``apply_rule`` and ``labels()``, byte for byte.
"""

import contextlib
import io
import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankrev as rr
import rankrev.verify as verify
import reference_checkers as reference
from rankrev.cli import main

from conftest import (
    ALL_MODELS_4,
    ALL_MODELS_5,
    U4,
    collapse,
    last_consistent_block,
    max_rank_degree,
    models_with_input,
    plain_universe,
    ranked_models,
    reverse_accepted_rule,
    shifted_degree,
    swapped_groups_rule,
    unchanged_rule,
)

RULES = [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)]


def _same_iteration_reports(rule, axiom, models):
    reports = []
    for model in models:
        report = rr.check_iteration_axiom(rule, axiom, model)
        assert report == reference.check_iteration_axiom(rule, axiom, model)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# exhaustive over the 541 five-world models


def test_agm_matches_reference_on_all_five_world_models():
    for model in ALL_MODELS_5:
        assert rr.check_agm(model) == reference.check_agm(model)


def test_degrees_match_reference_on_all_five_world_models():
    for model in ALL_MODELS_5:
        assert rr.check_degree_conditions(model) == reference.check_degree_conditions(model)


@pytest.mark.parametrize("axiom", ["B9", "B10"])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_iteration_matches_reference_on_all_five_world_models(rule, axiom):
    assert all(r.passed for r in _same_iteration_reports(rule, axiom, ALL_MODELS_5))


# ---------------------------------------------------------------------------
# random models up to six worlds


@settings(max_examples=25, deadline=None)
@given(ranked_models(max_worlds=6),
       st.sampled_from(RULES + [rr.flip_rule, reverse_accepted_rule, swapped_groups_rule]))
def test_checkers_match_reference_up_to_six_worlds(model, rule):
    assert rr.check_agm(model) == reference.check_agm(model)
    assert rr.check_degree_conditions(model) == reference.check_degree_conditions(model)
    for axiom in ("B9", "B10"):
        _same_iteration_reports(rule, axiom, [model])


# ---------------------------------------------------------------------------
# failing inputs: the same first failure


def test_flip_b10_failures_match_reference():
    reports = _same_iteration_reports(rr.flip_rule, "B10", ALL_MODELS_5)
    assert any(not r.passed for r in reports)


def test_reverse_accepted_b9_failures_match_reference():
    reports = _same_iteration_reports(reverse_accepted_rule, "B9", ALL_MODELS_5)
    assert any(not r.passed for r in reports)


def test_swapped_groups_b9_failures_walk_past_b_equal_to_a():
    # flip and reverse-accepted already differ at B = A; this rule does not, so
    # the walk steps down A's submasks before it fails.
    reports = _same_iteration_reports(swapped_groups_rule, "B9", ALL_MODELS_5)
    witnesses = [r.witness for r in reports if not r.passed]
    assert any(w.second != w.proposition and w.second.entails(w.proposition)
               for w in witnesses)


@pytest.mark.parametrize("attr, broken", [("disbelief_degree", max_rank_degree),
                                          ("first_consistent_block", last_consistent_block),
                                          ("disbelief_degree", shifted_degree)])
def test_broken_degree_routes_fail_like_reference(monkeypatch, attr, broken):
    monkeypatch.setattr(rr.RankedModel, attr, broken)
    failed = 0
    for model in ALL_MODELS_5:
        report = rr.check_degree_conditions(model)
        assert report == reference.check_degree_conditions(model)
        failed += not report.passed
    assert failed


def _prior_revise(model, prop):
    return model.blocks[0]


def _last_block_revise(model, prop):
    i = last_consistent_block(model, prop)
    if i is None:
        return prop
    return model.blocks[i] & prop


def _pair_reversing_revise(model, prop):
    """Ranked revision, except that a two-world input outside the prior block
    picks its less plausible world: B1-B6 hold, B7/B8 do not."""
    labels = prop.labels()
    if len(labels) == 2 and (model.blocks[0] & prop).is_empty:
        w1, w2 = labels
        if model.rank_of(w1) != model.rank_of(w2):
            worse = w1 if model.rank_of(w1) > model.rank_of(w2) else w2
            return prop.universe.prop(worse)
    return rr.revise(model, prop)


def _other_universe_revise(model, prop):
    """Ranked revision, with the content moved onto a universe with other labels."""
    other = rr.Universe(tuple(f"v{i}" for i in range(len(prop.universe.worlds))))
    return other.prop_from_mask(rr.revise(model, prop).mask)


def _input_revise(model, prop):
    """The input itself: more than the expansion wherever A meets the prior block
    without lying inside it."""
    return prop


def _expansion_revise(model, prop):
    """Expansion by the prior block: empty for every input the prior rules out."""
    return model.blocks[0] & prop


_flaky_calls = itertools.count()


def _flaky_revise(model, prop):
    """Ranked revision on every other call and its complement in between.  Each
    checker run fails at A = {} after exactly two calls, so the next run starts
    on a first call again."""
    content = rr.revise(model, prop)
    return ~content if next(_flaky_calls) % 2 else content


# A partial order on w0..w4 that is not a ranking: w0 lies below every other
# world and w1 below w2; w3 and w4 are unrelated to w1, w2 and each other.
_BELOW = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)}


def _partial_order_revise(model, prop):
    """The minimal worlds of A under ``_BELOW``.  Where the prior block is {w0},
    B1-B7 hold and B8 fails: A = {w1 w2 w3} gives {w1 w3}, which B = {w2 w3}
    meets in {w3}, yet A ∩ B gives {w2 w3}."""
    worlds = prop.indices()
    minimal = [i for i in worlds if not any((j, i) in _BELOW for j in worlds)]
    return prop.universe.prop_from_mask(sum(1 << i for i in minimal))


# broken revision -> the axioms its first failures name over all five-world models
BROKEN_REVISIONS = {
    _prior_revise: {"B2"},
    _last_block_revise: {"B3"},
    _pair_reversing_revise: {"B7"},
    _other_universe_revise: {"B1"},
    _input_revise: {"B4"},
    _expansion_revise: {"B5"},
    _flaky_revise: {"B6"},
    _partial_order_revise: {"B3", "B8"},
}


@pytest.mark.parametrize("broken", list(BROKEN_REVISIONS))
def test_broken_revision_fails_agm_like_reference(monkeypatch, broken):
    monkeypatch.setattr(verify, "revise", broken)
    monkeypatch.setattr(reference, "revise", broken)
    axioms = set()
    for model in ALL_MODELS_5:
        report = rr.check_agm(model)
        assert report == reference.check_agm(model)
        if not report.passed:
            axioms.add(report.witness.description.split()[0])
    assert axioms == BROKEN_REVISIONS[broken]


# ---------------------------------------------------------------------------
# set-algebra pair phases against the plain pair loops over the same tables


def _pair_tables(rng, n):
    """A random model's revision, degree and first-block tables over n worlds,
    with a few entries replaced: a revision entry by a random submask of its
    mask (so t[a] ⊆ a still holds), a degree by a random level, and a first
    block by a random non-empty mask."""
    ranks = collapse([rng.randrange(n) for _ in range(n)])
    model = rr.RankedModel.from_ranks(plain_universe(n), ranks)
    props = list(model.universe.propositions())
    t = [rr.revise(model, p).mask for p in props]
    degree = [None] + [model.disbelief_degree(p) for p in props[1:]]
    first_block = [0] + [model.blocks[model.first_consistent_block(p)].mask for p in props[1:]]
    size = 1 << n
    for _ in range(rng.randrange(4)):
        a = rng.randrange(size)
        t[a] = rng.randrange(size) & a
    for _ in range(rng.randrange(3)):
        degree[rng.randrange(1, size)] = rng.randrange(n + 1)
    for _ in range(rng.randrange(3)):
        first_block[rng.randrange(1, size)] = rng.randrange(1, size)
    return t, degree, first_block


def _same_pair_phases(t, degree, first_block):
    agm = verify._agm_pairs(t)
    assert agm == reference.agm_pairs(t)
    degrees = verify._degree_pairs(degree, first_block)
    assert degrees == reference.degree_pairs(degree, first_block)
    return agm[1], degrees[1]


@pytest.mark.parametrize("n", range(1, 11))
def test_columns_match_bit_loop_up_to_ten_worlds(n):
    size = 1 << n
    rng = random.Random(n)
    tables = [range(size)] + [[rng.randrange(size) for _ in range(size)] for _ in range(3)]
    for table in tables:
        assert verify._columns(table, n) == reference.columns(table, n)


@pytest.mark.parametrize("n", range(1, 13))
def test_membership_sets_match_bit_loop_up_to_twelve_worlds(n):
    assert verify._membership(n) == reference.columns(range(1 << n), n)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 8), st.randoms(use_true_random=False))
def test_pair_phases_match_pair_loops_up_to_eight_worlds(n, rng):
    _same_pair_phases(*_pair_tables(rng, n))


def test_pair_phase_draws_fail_every_way():
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        t, degree, first_block = _pair_tables(rng, rng.randint(3, 6))
        agm, degrees = _same_pair_phases(t, degree, first_block)
        if agm is not None:
            seen.add(agm[0])
        if degrees is not None:
            a, b = degrees
            seen.add("(ii): d(A)<d(B), meets B" if degree[a] < degree[b]
                     else "(ii): d(A)>=d(B), misses B")
    assert seen == {"B7", "B8", "(ii): d(A)<d(B), meets B", "(ii): d(A)>=d(B), misses B"}


# ---------------------------------------------------------------------------
# constructions against the filter and scan over every ranked model


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_product_filter_up_to_six_worlds(n):
    u = plain_universe(n)
    assert list(rr.enumerate_ranked_models(u)) == list(reference.enumerate_ranked_models(u))


def test_successors_match_filter_on_all_four_world_inputs():
    for model in ALL_MODELS_4:
        for mask in range(1, 15):
            for attitude in rr.Attitude:
                epistemic_input = rr.EpistemicInput(U4.prop_from_mask(mask), attitude)
                assert (rr.constrained_successors(model, epistemic_input)
                        == reference.constrained_successors(model, epistemic_input))


@settings(max_examples=25, deadline=None)
@given(models_with_input(max_worlds=6))
def test_successors_match_filter_up_to_six_worlds(case):
    model, epistemic_input = case
    assert (rr.constrained_successors(model, epistemic_input)
            == reference.constrained_successors(model, epistemic_input))


@st.composite
def corrupted_tables(draw):
    """A model's revision table with one entry replaced, possibly by a content
    over a universe with other labels, which both checks refuse."""
    model = draw(ranked_models(max_worlds=5))
    u = model.universe
    n = len(u.worlds)
    full = u.tautology().mask
    table = rr.revision_table(model)
    key = u.prop_from_mask(draw(st.integers(1, full)))
    over = u if draw(st.booleans()) else rr.Universe(tuple(f"v{i}" for i in range(n)))
    table[key] = over.prop_from_mask(draw(st.integers(0, full)))
    return table


@settings(max_examples=200, deadline=None)
@given(corrupted_tables())
def test_representation_matches_scan_on_corrupted_tables(table):
    assert (_outcome(rr.representation_check, table)
            == _outcome(reference.representation_check, table))


def _outcome(check, table):
    """The check's result, or the message of the input error it raises."""
    try:
        return check(table)
    except rr.InputError as exc:
        return f"InputError: {exc}"


# ---------------------------------------------------------------------------
# the mask kernel against the object-level rules and ranks


# (library rule, reference rule, input strengths) for every rule
RULE_PAIRS = ([(rr.lexicographic_rule, reference.lexicographic_rule, (None,)),
               (rr.natural_rule, reference.natural_rule, (None,)),
               (rr.flip_rule, reference.flip_rule, (None,))]
              + [(rr.spohn_rule(alpha), reference.spohn_rule(alpha), (None, 1, 2, 3))
                 for alpha in (1, 2, 3)])


def _inputs(prop, strengths):
    for attitude in rr.Attitude:
        for strength in strengths:
            if strength is None or attitude is not rr.Attitude.SUSPEND:
                yield rr.EpistemicInput(prop, attitude, strength)


@pytest.mark.parametrize("rule, ref, strengths", RULE_PAIRS,
                         ids=[rule.name for rule, _, _ in RULE_PAIRS])
def test_rules_match_reference_on_all_four_world_inputs(rule, ref, strengths):
    for model in ALL_MODELS_4:
        for mask in range(1, 15):
            for epistemic_input in _inputs(U4.prop_from_mask(mask), strengths):
                assert rule(model, epistemic_input) == ref(model, epistemic_input)


@settings(max_examples=200, deadline=None)
@given(models_with_input(max_worlds=7), st.sampled_from(RULE_PAIRS), st.integers(1, 3))
def test_rules_match_reference_up_to_seven_worlds(case, pair, strength):
    model, epistemic_input = case
    rule, ref, _ = pair
    assert rule(model, epistemic_input) == ref(model, epistemic_input)
    if rule.strength_based and epistemic_input.attitude is not rr.Attitude.SUSPEND:
        strong = rr.EpistemicInput(epistemic_input.proposition, epistemic_input.attitude,
                                   strength)
        assert rule(model, strong) == ref(model, strong)


def test_ranks_match_reference_on_all_five_world_models():
    for model in ALL_MODELS_5:
        assert model.ranks() == reference.ranks(model)


@settings(max_examples=200, deadline=None)
@given(ranked_models(max_worlds=8))
def test_ranks_match_reference_up_to_eight_worlds(model):
    assert model.ranks() == reference.ranks(model)


def _same_revisions(model):
    assert model._masks == tuple(block.mask for block in model.blocks)
    for prop in model.universe.propositions():
        assert rr.revise(model, prop) == reference.revise(model, prop)


def test_revise_matches_reference_on_all_five_world_models():
    for model in ALL_MODELS_5:
        _same_revisions(model)


@settings(max_examples=200, deadline=None)
@given(ranked_models(max_worlds=8))
def test_revise_matches_reference_up_to_eight_worlds(model):
    _same_revisions(model)


# ---------------------------------------------------------------------------
# read-offs against the searches they replace


ORDER_RULES = [rr.lexicographic_rule, rr.natural_rule, rr.flip_rule, rr.spohn_rule(1),
               rr.spohn_rule(2), reverse_accepted_rule]


@pytest.mark.parametrize("rule", ORDER_RULES, ids=lambda r: r.name)
def test_order_preservation_matches_pair_scan_up_to_four_worlds(rule):
    failed = 0
    for n in (2, 3, 4):
        u = plain_universe(n)
        for model in rr.enumerate_ranked_models(u):
            for mask in range(1, (1 << n) - 1):
                prop = u.prop_from_mask(mask)
                for attitude in rr.Attitude:
                    report = rr.check_order_preservation(rule, model, prop, attitude)
                    assert report == reference.check_order_preservation(rule, model, prop,
                                                                        attitude)
                    failed += not report.passed
    assert bool(failed) == (rule in (rr.flip_rule, reverse_accepted_rule))


def test_ocf_reversal_matches_strength_scan_up_to_four_worlds():
    # Values up to 4 (3 at four worlds, to keep it short) against bounds 0..4,
    # so both verdicts occur.
    passed = failed = 0
    for n, max_value in ((2, 4), (3, 4), (4, 3)):
        u = plain_universe(n)
        for ocf in reference.enumerate_ocfs(u, max_value):
            for mask in range(1, (1 << n) - 1):
                prop = u.prop_from_mask(mask)
                for max_strength in range(5):
                    for alpha in (max_strength + 1, -max_strength - 1):
                        report = rr.check_ocf_reversibility(ocf, prop, alpha, max_strength)
                        assert report == reference.check_ocf_reversibility(ocf, prop, alpha,
                                                                           max_strength)
                        passed += report.passed
                        failed += not report.passed
    assert passed and failed


def test_ocf_irreversibility_witness_matches_search():
    # Value bounds below, at and above the strength bound, so both outcomes occur.
    outcomes = set()
    for n in range(1, 6):
        u = plain_universe(n)
        for max_value in range(-1, 5):
            if (max_value + 1) ** n > 5000:
                continue
            for max_strength in range(4):
                got = rr.find_ocf_irreversibility(u, max_value, max_strength)
                assert got == reference.find_ocf_irreversibility(u, max_value, max_strength)
                outcomes.add(got is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the reversal step on block masks against apply_rule per candidate


REVERSAL_RULES = [rr.lexicographic_rule, rr.natural_rule, rr.flip_rule, rr.spohn_rule(1),
                  rr.spohn_rule(2), reverse_accepted_rule, unchanged_rule]


@pytest.mark.parametrize("rule", REVERSAL_RULES, ids=lambda r: r.name)
def test_reversibility_matches_reference_on_all_four_world_inputs(rule):
    verdicts = set()
    for model in ALL_MODELS_4:
        for mask in range(1, 15):
            for attitude in rr.Attitude:
                epistemic_input = rr.EpistemicInput(U4.prop_from_mask(mask), attitude)
                for max_strength in (0, 3):
                    report = rr.check_reversibility(rule, model, epistemic_input, max_strength)
                    assert report == reference.check_reversibility(rule, model, epistemic_input,
                                                                   max_strength)
                    verdicts.add(report.passed)
    assert verdicts == ({True} if rule is unchanged_rule else {True, False})


# (rule, worlds, strength bound): every rule at one to four worlds, and all but
# the one with no witness, which scans every model, at five.
SEARCHES = ([(rule, n, bound) for rule in REVERSAL_RULES for n in (1, 2, 3, 4) for bound in (0, 3)]
            + [(rule, 5, 3) for rule in REVERSAL_RULES if rule is not unchanged_rule])


@pytest.mark.parametrize("rule, n, max_strength", SEARCHES,
                         ids=[f"{rule.name}-{n}w-{bound}" for rule, n, bound in SEARCHES])
def test_irreversibility_search_matches_reference(rule, n, max_strength):
    u = plain_universe(n)
    witness = rr.find_irreversibility(rule, u, max_strength)
    assert witness == reference.find_irreversibility(rule, u, max_strength)
    # From three worlds on, every rule that changes anything has an irreversible
    # step.  Below three, the attitude that puts the prior's first block first
    # restores it, so only a strength-based rule at bound 0, which tries
    # suspension alone, has one, at two worlds.
    suspension_only = rule.strength_based and max_strength == 0
    assert (witness is None) == (rule is unchanged_rule or n < (2 if suspension_only else 3))


# ---------------------------------------------------------------------------
# iterate on block masks against apply_rule and labels() per step


ITERATE_RULES = ("lex", "natural", "flip", "spohn:1", "spohn:2", "spohn:3")


@st.composite
def iterate_runs(draw):
    """(model file text, rule name, script text, prior, inputs) over 2 to 4 atoms.

    Script lines name a declared proposition or write an expression over one
    or two atoms; spohn lines may carry a strength."""
    atoms = "ABCD"[:draw(st.integers(2, 4))]
    u = rr.Universe.from_atoms(tuple(atoms))
    n = len(u.worlds)
    full = (1 << n) - 1
    model = rr.RankedModel.from_ranks(
        u, collapse(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
    props = draw(st.lists(st.integers(1, full - 1), min_size=1, max_size=3))
    rule = draw(st.sampled_from(ITERATE_RULES))
    atom = u.atom_masks()
    lines, steps = [], []
    for _ in range(draw(st.integers(0, 12))):
        attitude = draw(st.sampled_from(list(rr.Attitude)))
        kind = draw(st.sampled_from(("prop", "literal", "pair")))
        if kind == "prop":
            i = draw(st.integers(0, len(props) - 1))
            text, mask = f"p{i}", props[i]
        else:
            a, b = draw(st.permutations(atoms))[:2]
            neg_a, neg_b = draw(st.booleans()), draw(st.booleans())
            mask_a = atom[a] ^ (full if neg_a else 0)
            mask_b = atom[b] ^ (full if neg_b else 0)
            text = "~" * neg_a + a
            mask = mask_a
            if kind == "pair":
                op = draw(st.sampled_from("&|"))
                text += f" {op} " + "~" * neg_b + b
                mask = mask_a & mask_b if op == "&" else mask_a | mask_b
        strength = None
        if rule.startswith("spohn") and attitude is not rr.Attitude.SUSPEND:
            strength = draw(st.none() | st.integers(1, 3))
        lines.append(f"{attitude.value} {text}" + (f" strength {strength}" if strength else ""))
        steps.append(rr.EpistemicInput(u.prop_from_mask(mask), attitude, strength))
    model_text = "\n".join(
        [f"atoms {' '.join(atoms)}", "worlds auto"]
        + [f"prop p{i} = {{ {' '.join(u.prop_from_mask(m).labels())} }}"
           for i, m in enumerate(props)]
        + [f"rpm s = {reference.ranking_text(model)}"]) + "\n"
    return model_text, rule, "\n".join(lines) + "\n", model, steps


@settings(max_examples=150, deadline=None)
@given(iterate_runs())
def test_iterate_matches_transcript_through_apply_rule(run):
    model_text, rule, script, model, steps = run
    with tempfile.TemporaryDirectory() as tmp:
        model_path, script_path = Path(tmp) / "model.bel", Path(tmp) / "script.txt"
        model_path.write_text(model_text, encoding="utf-8")
        script_path.write_text(script, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["iterate", "--model", str(model_path), "--state", "s",
                         "--rule", rule, str(script_path)])
    assert code == 0
    assert out.getvalue() == reference.iterate_transcript(rr.rule_by_name(rule), "s",
                                                          model, steps)
