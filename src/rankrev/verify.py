"""Exhaustive checkers for the revision axioms and the irreversibility argument.

Everything here is desk-scale and exact: universes are small enough to
enumerate every proposition, every ordered partition, and every bounded OCF,
so each checker quantifies over its whole case space and either passes or
returns a replayable witness.

The checkers cover three layers:

* the single-step axioms over belief sets, checked on one ranked model at a
  time (``check_agm``, ``check_degree_conditions``);
* the iteration axioms and what they force on rankings
  (``check_iteration_axiom``, ``check_order_preservation``,
  ``constrained_successors``);
* reversibility: whether a rule's effect can be undone using only the
  proposition that caused it (``check_reversibility``,
  ``find_irreversibility``), and the four-block counterexample showing no
  rule satisfying the iteration axioms can always be reversed
  (``counterexample_verify``).

Belief-set containment is always checked through its total-content reversal:
belief set of T1 is contained in that of T2 exactly when T2 ⊆ T1.

The checkers that walk proposition pairs tabulate each per-proposition value
once per checked model, through the public ``revise``, ``disbelief_degree``
and ``first_consistent_block``, then run the pair loop over int masks.
Tables have 2^n entries, never 4^n.  The degree checker's two tables come
from the two independent routes (minimum world rank, first consistent
block), so comparing them is still a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .errors import InputError
from .ranking import OCF, RankedModel, ocf_from_rpm, rpm_from_ocf
from .revision import (
    Attitude,
    EpistemicInput,
    RevisionRule,
    apply_rule,
    required_content,
    revise,
    spohn_conditionalize,
)
from .worlds import Proposition, TotalContent, Universe

DEFAULT_CHECK_BOUND = 5
DEFAULT_ENUMERATION_BOUND = 6
DEFAULT_MAX_STRENGTH = 3


@dataclass(frozen=True)
class Witness:
    """Enough of a failing case to replay it through the public operations."""

    description: str
    model: RankedModel | None = None
    proposition: Proposition | None = None
    second: Proposition | None = None
    epistemic_input: EpistemicInput | None = None
    world_pair: tuple[str, str] | None = None
    ocf: OCF | None = None
    strength: int | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Result of one checker run: which axiom, verdict, case count, witness on failure.

    ``reversal`` is only set by the reversibility checkers on a pass: the
    attitude (or signed strength, for OCF-level checks) that restored the
    prior state.
    """

    axiom: str
    passed: bool
    cases: int
    witness: Witness | None = None
    reversal: EpistemicInput | int | None = None


def _check_bound(universe: Universe, max_worlds: int):
    if len(universe.worlds) > max_worlds:
        raise InputError(
            f"universe has {len(universe.worlds)} worlds, over the bound of {max_worlds}"
        )


def check_agm(model: RankedModel, max_worlds: int = DEFAULT_CHECK_BOUND) -> AxiomReport:
    """Check the eight single-step axioms exhaustively on one ranked model.

    B1-B6 run over every proposition, B7/B8 over every ordered pair.  B1
    holds by representation (revision always yields a total content, whose
    belief set is deductively closed), so it reduces to a structural check.

    ``revise`` is called once per proposition (twice, for B6) to build the
    table ``t[m]`` of revised content masks; the pair loop then reads
    ``t[a & b]`` and compares masks, building propositions only for a
    witness.
    """
    u = model.universe
    _check_bound(u, max_worlds)
    prior = model.blocks[0].mask
    size = 1 << len(u.worlds)
    t = []
    cases = 0
    for a in range(size):
        cases += 1
        prop = u.prop_from_mask(a)
        content = revise(model, prop).content
        # B1: the result is a total content over the same universe.
        if content.universe != u:
            return _agm_fail("B1", model, a, None, cases)
        t_a = content.mask
        t.append(t_a)
        expansion = prior & a
        # B2: the revised state believes a.
        if t_a & ~a:
            return _agm_fail("B2", model, a, None, cases)
        # B3: revision is contained in expansion (reversed on contents).
        if expansion & ~t_a:
            return _agm_fail("B3", model, a, None, cases)
        # B4: when a is compatible with the prior state, expansion is contained in revision.
        if expansion and t_a & ~expansion:
            return _agm_fail("B4", model, a, None, cases)
        # B5: inconsistent exactly for the contradiction.
        if (t_a == 0) != (a == 0):
            return _agm_fail("B5", model, a, None, cases)
        # B6: set-propositions make logical equivalence plain identity.
        if revise(model, prop).content != content:
            return _agm_fail("B6", model, a, None, cases)
    for a in range(size):
        t_a = t[a]
        for b in range(size):
            cases += 1
            t_ab = t[a & b]
            expanded = t_a & b
            # B7: revising by the conjunction is contained in expanding the revision.
            if expanded & ~t_ab:
                return _agm_fail("B7", model, a, b, cases)
            # B8: guarded converse, when b is compatible with the revised state.
            if expanded and t_ab & ~expanded:
                return _agm_fail("B8", model, a, b, cases)
    return AxiomReport("agm", True, cases)


def _agm_fail(axiom: str, model: RankedModel, a_mask: int, b_mask: int | None,
              cases: int) -> AxiomReport:
    u = model.universe
    a = u.prop_from_mask(a_mask)
    b = None if b_mask is None else u.prop_from_mask(b_mask)
    detail = f"{axiom} violated at A={a}" + (f", B={b}" if b is not None else "")
    return AxiomReport("agm", False, cases,
                       Witness(detail, model=model, proposition=a, second=b))


def _nonempty_submasks(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def check_iteration_axiom(rule: RevisionRule, axiom: str, model: RankedModel,
                          max_worlds: int = DEFAULT_CHECK_BOUND) -> AxiomReport:
    """Check B9 (more precise information) or B10 (conflicting information).

    Both say that believing A and then B must land on the beliefs that B
    alone would have produced: B9 when B entails A, B10 when B entails the
    complement.  Checked at the belief-set level, over every non-degenerate A
    and every eligible non-empty B.

    The prior's side, ``revise(model, B)``, is tabulated once per
    proposition; the revised side is computed per case.
    """
    axiom = axiom.upper()
    if axiom not in ("B9", "B10"):
        raise InputError(f"unknown iteration axiom {axiom!r} (expected B9 or B10)")
    u = model.universe
    _check_bound(u, max_worlds)
    full = u.tautology().mask
    props = [u.prop_from_mask(m) for m in range(full + 1)]
    expected = [revise(model, p).content for p in props]
    cases = 0
    for a_mask in range(1, full):
        a = props[a_mask]
        revised = apply_rule(rule, model, EpistemicInput(a, Attitude.BELIEVE))
        side = a_mask if axiom == "B9" else full ^ a_mask
        for b_mask in _nonempty_submasks(side):
            cases += 1
            b = props[b_mask]
            got = revise(revised, b).content
            if got != expected[b_mask]:
                detail = (f"{axiom} violated: believe {a} then revise by {b} "
                          f"gives {got}, expected {expected[b_mask]}")
                return AxiomReport(axiom, False, cases,
                                   Witness(detail, model=model, proposition=a, second=b))
    return AxiomReport(axiom, True, cases)


def check_order_preservation(rule: RevisionRule, model: RankedModel, prop: Proposition,
                             attitude: Attitude = Attitude.BELIEVE) -> AxiomReport:
    """Check that a rule keeps the relative order of worlds within each side.

    The iteration axioms force this for any rule: comparing two same-side
    worlds before and after the change must give the same verdict, ties
    included.
    """
    if prop.is_empty or prop.is_full:
        raise InputError("order preservation needs a non-degenerate proposition")
    revised = apply_rule(rule, model, EpistemicInput(prop, attitude))
    u = model.universe
    cases = 0
    for i in range(len(u.worlds)):
        for j in range(i + 1, len(u.worlds)):
            same_side = (prop.mask >> i & 1) == (prop.mask >> j & 1)
            if not same_side:
                continue
            cases += 1
            w1, w2 = u.worlds[i], u.worlds[j]
            before = model.preference(w1, w2)
            after = revised.preference(w1, w2)
            if before != after:
                detail = (f"order within a side of {prop} not preserved: "
                          f"{w1} vs {w2} was {before.value}, now {after.value}")
                return AxiomReport("order", False, cases,
                                   Witness(detail, model=model, proposition=prop,
                                           epistemic_input=EpistemicInput(prop, attitude),
                                           world_pair=(w1, w2)))
    return AxiomReport("order", True, cases)


def check_degree_conditions(model: RankedModel,
                            max_worlds: int = DEFAULT_CHECK_BOUND) -> AxiomReport:
    """Check the two conditions forcing degree = minimum rank.

    (i) a singleton's degree is its world's rank (holds by construction, so
    checked directly per world); (ii) for non-empty A, B: degree(A) <
    degree(B) exactly when the first block consistent with A ∪ B misses B.

    The two sides of (ii) come from two tables built once per proposition
    by independent routes: degrees from ``disbelief_degree`` (the minimum
    over world ranks), first blocks from ``first_consistent_block`` (the
    block scan).  The pair loop compares them over int masks.
    """
    u = model.universe
    _check_bound(u, max_worlds)
    cases = 0
    for i, w in enumerate(u.worlds):
        cases += 1
        if model.disbelief_degree(u.prop(w)) != model.rank_of(w):
            return AxiomReport("degrees", False, cases,
                               Witness(f"degree of {{{w}}} is not its rank", model=model,
                                       proposition=u.prop(w)))
    full = u.tautology().mask
    props = [u.prop_from_mask(m) for m in range(full + 1)]
    degree = [None] + [model.disbelief_degree(p) for p in props[1:]]
    blocks = [block.mask for block in model.blocks]
    first_block = [None] + [blocks[model.first_consistent_block(p)] for p in props[1:]]
    for a_mask in range(1, full + 1):
        d_a = degree[a_mask]
        for b_mask in range(1, full + 1):
            cases += 1
            strictly_less = d_a < degree[b_mask]
            misses_b = (first_block[a_mask | b_mask] & b_mask) == 0
            if strictly_less != misses_b:
                detail = (f"degree condition (ii) violated at A={props[a_mask]}, "
                          f"B={props[b_mask]}: d(A)<d(B) is {strictly_less} but first block "
                          f"of A∪B {'misses' if misses_b else 'meets'} B")
                return AxiomReport("degrees", False, cases,
                                   Witness(detail, model=model, proposition=props[a_mask],
                                           second=props[b_mask]))
    return AxiomReport("degrees", True, cases)


def enumerate_ranked_models(universe: Universe,
                            max_worlds: int = DEFAULT_ENUMERATION_BOUND) -> Iterator[RankedModel]:
    """Every ranked model over the universe, exactly once, in canonical order.

    Canonical order: ascending number of blocks, then lexicographic on the
    world-to-block assignment vector in world index order.  The count is the
    ordered Bell number of the universe's size.
    """
    _check_bound(universe, max_worlds)
    n = len(universe.worlds)
    for k in range(1, n + 1):
        for assignment in product(range(k), repeat=n):
            if len(set(assignment)) != k:
                continue
            masks = [0] * k
            for i, r in enumerate(assignment):
                masks[r] |= 1 << i
            yield RankedModel(tuple(Proposition(universe, m) for m in masks))


def enumerate_ocfs(universe: Universe, max_value: int,
                   max_worlds: int = DEFAULT_CHECK_BOUND) -> Iterator[OCF]:
    """Every normalized OCF with values in 0..max_value, in lexicographic value order."""
    _check_bound(universe, max_worlds)
    n = len(universe.worlds)
    for values in product(range(max_value + 1), repeat=n):
        if min(values) == 0:
            yield OCF(universe, values)


def constrained_successors(model: RankedModel, epistemic_input: EpistemicInput,
                           max_worlds: int = DEFAULT_ENUMERATION_BOUND) -> tuple[RankedModel, ...]:
    """All posterior rankings the iteration axioms leave open for one input.

    Filters the full enumeration down to models that keep the prior's
    relative order within each side of the input's proposition and whose
    first block is exactly the belief content the attitude requires.
    Returned in canonical enumeration order.
    """
    prop = epistemic_input.proposition
    if prop.universe != model.universe:
        raise InputError("input proposition is over a different universe")
    if prop.is_empty or prop.is_full:
        raise InputError("successor enumeration needs a non-degenerate proposition")
    u = model.universe
    required = required_content(model, epistemic_input).content
    before = model.ranks()
    n = len(u.worlds)
    side_pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (prop.mask >> i & 1) == (prop.mask >> j & 1)
    ]

    def keeps_order(candidate: RankedModel) -> bool:
        after = candidate.ranks()
        return all(
            (before[i] < before[j]) == (after[i] < after[j])
            and (before[i] > before[j]) == (after[i] > after[j])
            for i, j in side_pairs
        )

    return tuple(
        candidate
        for candidate in enumerate_ranked_models(u, max_worlds)
        if candidate.blocks[0] == required and keeps_order(candidate)
    )


def _reversal_candidates(rule: RevisionRule, prop: Proposition,
                         max_strength: int) -> list[EpistemicInput]:
    if rule.strength_based:
        candidates = []
        for beta in range(-max_strength, max_strength + 1):
            if beta > 0:
                candidates.append(EpistemicInput(prop, Attitude.BELIEVE, beta))
            elif beta < 0:
                candidates.append(EpistemicInput(prop, Attitude.DISBELIEVE, -beta))
            else:
                candidates.append(EpistemicInput(prop, Attitude.SUSPEND))
        return candidates
    return [EpistemicInput(prop, att) for att in Attitude]


def check_reversibility(rule: RevisionRule, model: RankedModel, epistemic_input: EpistemicInput,
                        max_strength: int = DEFAULT_MAX_STRENGTH) -> AxiomReport:
    """Check whether an input's effect can be undone using the same proposition.

    Applies the rule, then tries every attitude on that proposition (every
    signed strength within the bound, for strength-based rules) and passes if
    one maps the revised model back to the original.  The successful reversal
    input is reported.
    """
    revised = apply_rule(rule, model, epistemic_input)
    cases = 0
    for candidate in _reversal_candidates(rule, epistemic_input.proposition, max_strength):
        cases += 1
        if apply_rule(rule, revised, candidate) == model:
            return AxiomReport("R", True, cases, reversal=candidate)
    detail = (f"no attitude toward {epistemic_input.proposition} maps the revised model "
              f"back: {rule.name} is irreversible at ({model}, {epistemic_input})")
    return AxiomReport("R", False, cases,
                       Witness(detail, model=model, epistemic_input=epistemic_input))


def check_ocf_reversibility(ocf: OCF, prop: Proposition, alpha: int,
                            max_strength: int = DEFAULT_MAX_STRENGTH) -> AxiomReport:
    """OCF-level reversibility: search signed strengths for one that restores ``ocf``."""
    conditioned = spohn_conditionalize(ocf, prop, alpha)
    cases = 0
    for beta in range(-max_strength, max_strength + 1):
        cases += 1
        if spohn_conditionalize(conditioned, prop, beta) == ocf:
            return AxiomReport("R", True, cases, reversal=beta)
    detail = (f"no strength within ±{max_strength} undoes conditionalizing {ocf} "
              f"on {prop} with strength {alpha}")
    return AxiomReport("R", False, cases,
                       Witness(detail, ocf=ocf, proposition=prop, strength=alpha))


def find_irreversibility(rule: RevisionRule, universe: Universe,
                         max_strength: int = DEFAULT_MAX_STRENGTH,
                         max_worlds: int = DEFAULT_CHECK_BOUND) -> Witness | None:
    """First (model, input) pair, in canonical order, that the rule cannot reverse.

    For any rule satisfying B9 and B10 over a universe of at least four
    worlds such a pair exists; None means none was found within the bounds.
    """
    if len(universe.worlds) < 4:
        raise InputError("irreversibility needs at least four worlds")
    full = universe.tautology().mask
    for model in enumerate_ranked_models(universe, max_worlds):
        for a_mask in range(1, full):
            prop = universe.prop_from_mask(a_mask)
            for attitude in Attitude:
                epistemic_input = EpistemicInput(prop, attitude)
                report = check_reversibility(rule, model, epistemic_input, max_strength)
                if not report.passed:
                    return report.witness
    return None


def find_ocf_irreversibility(universe: Universe, max_value: int = DEFAULT_MAX_STRENGTH,
                             max_strength: int = DEFAULT_MAX_STRENGTH,
                             max_worlds: int = DEFAULT_CHECK_BOUND) -> Witness | None:
    """Search bounded OCF space for an irreversible conditionalization step.

    Returns None whenever the strength bound covers the value bound: at the
    numeric level every step is undone by the difference of the two sides'
    prior degrees.
    """
    full = universe.tautology().mask
    for ocf in enumerate_ocfs(universe, max_value, max_worlds):
        for a_mask in range(1, full):
            prop = universe.prop_from_mask(a_mask)
            for alpha in range(-max_strength, max_strength + 1):
                report = check_ocf_reversibility(ocf, prop, alpha, max_strength)
                if not report.passed:
                    return report.witness
    return None


@dataclass(frozen=True)
class CounterexampleFixture:
    """The four-block construction: A spans the first two groups.

    ``r1`` ranks the third group above everything else, ``r2`` additionally
    separates the fourth group, and ``r3`` is where believing A sends both.
    """

    universe: Universe
    prop_a: Proposition
    r1: RankedModel
    r2: RankedModel
    r3: RankedModel


def counterexample_fixture(sizes: tuple[int, int, int, int] = (1, 1, 1, 1)) -> CounterexampleFixture:
    """Build the fixture; ``sizes`` are the four group sizes, each at least one.

    The default instantiates the two-atom universe (worlds AB, Ab, aB, ab with
    the four groups being the four single worlds); other sizes use plain
    labels ``w<group><letter>`` without valuations.
    """
    if len(sizes) != 4 or any(s < 1 for s in sizes):
        raise InputError("fixture needs four non-empty groups")
    if sizes == (1, 1, 1, 1):
        u = Universe.from_atoms(("A", "B"))
        groups = [u.prop("AB"), u.prop("Ab"), u.prop("aB"), u.prop("ab")]
    else:
        labels = []
        group_labels: list[list[str]] = []
        for g, size in enumerate(sizes, start=1):
            members = [f"w{g}{chr(ord('a') + j)}" for j in range(size)]
            group_labels.append(members)
            labels.extend(members)
        u = Universe(tuple(labels))
        groups = [u.prop(*members) for members in group_labels]
    w1, w2, w3, w4 = groups
    a = w1.union(w2)
    r1 = RankedModel((w3, w3.complement()))
    r2 = RankedModel((w3, a, w4))
    r3 = RankedModel((a, w3, w4))
    return CounterexampleFixture(u, a, r1, r2, r3)


@dataclass(frozen=True)
class CounterexampleReport(AxiomReport):
    """Everything the counterexample argument establishes, for rendering and replay."""

    fixture: CounterexampleFixture | None = None
    r1_believe: tuple[RankedModel, ...] = ()
    r2_believe: tuple[RankedModel, ...] = ()
    r3_believe: tuple[RankedModel, ...] = ()
    r3_suspend: tuple[RankedModel, ...] = ()
    r3_disbelieve: tuple[RankedModel, ...] = ()
    degrees: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0))
    strength_outputs: tuple[tuple[int, RankedModel], ...] = ()


def counterexample_verify(fixture: CounterexampleFixture | None = None,
                          max_strength: int = DEFAULT_MAX_STRENGTH) -> CounterexampleReport:
    """Machine-check the argument that belief change over rankings is irreversible.

    Verifies that (a) believing A forces both starting rankings onto the same
    successor, (b) neither belief nor suspension can move that successor back
    to either start, (c) disbelief admits both starts as successors, so a
    single-valued rule must abandon one, and (d) rank-derived strengths do
    not help: both starts induce equal degrees, and strength-conditioning the
    successor never reaches both.
    """
    fx = fixture if fixture is not None else counterexample_fixture()
    a = fx.prop_a
    believe = EpistemicInput(a, Attitude.BELIEVE)
    suspend = EpistemicInput(a, Attitude.SUSPEND)
    disbelieve = EpistemicInput(a, Attitude.DISBELIEVE)

    r1_believe = constrained_successors(fx.r1, believe)
    r2_believe = constrained_successors(fx.r2, believe)
    r3_believe = constrained_successors(fx.r3, believe)
    r3_suspend = constrained_successors(fx.r3, suspend)
    r3_disbelieve = constrained_successors(fx.r3, disbelieve)

    not_a = a.complement()
    degrees = (
        (fx.r1.disbelief_degree(a), fx.r1.disbelief_degree(not_a)),
        (fx.r2.disbelief_degree(a), fx.r2.disbelief_degree(not_a)),
    )
    base = ocf_from_rpm(fx.r3)
    strength_outputs = tuple(
        (beta, rpm_from_ocf(spohn_conditionalize(base, a, beta)))
        for beta in range(-max_strength, max_strength + 1)
    )

    checks = [
        (r1_believe == (fx.r3,), "believing A does not force r1 onto r3 alone"),
        (r2_believe == (fx.r3,), "believing A does not force r2 onto r3 alone"),
        (fx.r1 not in r3_believe and fx.r2 not in r3_believe,
         "belief in A moves r3 back to a start"),
        (fx.r1 not in r3_suspend and fx.r2 not in r3_suspend,
         "suspension moves r3 back to a start"),
        (fx.r1 in r3_disbelieve, "r1 is not a disbelief successor of r3"),
        (fx.r2 in r3_disbelieve, "r2 is not a disbelief successor of r3"),
        (degrees[0] == degrees[1], "r1 and r2 induce different degrees for A"),
        (not (any(out == fx.r1 for _, out in strength_outputs)
              and any(out == fx.r2 for _, out in strength_outputs)),
         "strength-conditioning r3 reaches both starts"),
    ]
    cases = (len(r1_believe) + len(r2_believe) + len(r3_believe) + len(r3_suspend)
             + len(r3_disbelieve) + len(strength_outputs) + 2)
    for ok, complaint in checks:
        if not ok:
            return CounterexampleReport(
                "counterexample", False, cases,
                witness=Witness(complaint, model=fx.r3, proposition=a),
                fixture=fx, r1_believe=r1_believe, r2_believe=r2_believe,
                r3_believe=r3_believe, r3_suspend=r3_suspend,
                r3_disbelieve=r3_disbelieve, degrees=degrees,
                strength_outputs=strength_outputs)
    return CounterexampleReport(
        "counterexample", True, cases, fixture=fx,
        r1_believe=r1_believe, r2_believe=r2_believe, r3_believe=r3_believe,
        r3_suspend=r3_suspend, r3_disbelieve=r3_disbelieve, degrees=degrees,
        strength_outputs=strength_outputs)


def revision_table(model: RankedModel) -> dict[Proposition, TotalContent]:
    """The revision function the model defines, tabulated over non-empty propositions."""
    u = model.universe
    full = u.tautology().mask
    return {
        u.prop_from_mask(mask): revise(model, u.prop_from_mask(mask))
        for mask in range(1, full + 1)
    }


def representation_check(table: Mapping[Proposition, TotalContent],
                         max_worlds: int = DEFAULT_CHECK_BOUND) -> RankedModel | None:
    """Find the ranked model defining a revision table, if one exists.

    The table must be total over the non-empty propositions of one universe.
    Scans the canonical enumeration and returns the first exact match; a
    table no model reproduces (any single-step axiom failure) yields None.
    """
    if not table:
        raise InputError("empty revision table")
    universe = next(iter(table)).universe
    _check_bound(universe, max_worlds)
    full = universe.tautology().mask
    masks = {p.mask for p in table}
    if any(p.universe != universe for p in table):
        raise InputError("table keys are over different universes")
    if masks != set(range(1, full + 1)):
        raise InputError("table must be total over all non-empty propositions")
    wanted = {p.mask: t.content for p, t in table.items()}
    for model in enumerate_ranked_models(universe, max_worlds):
        if all(
            revise(model, universe.prop_from_mask(mask)).content == wanted[mask]
            for mask in range(1, full + 1)
        ):
            return model
    return None
