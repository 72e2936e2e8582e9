"""Exhaustive checkers for the revision axioms and the irreversibility argument.

Everything here is desk-scale and exact: universes are small enough to
enumerate every proposition, every ordered partition, and every bounded OCF,
so each checker quantifies over its whole case space and either passes or
returns a replayable witness.  Successor sets and the model behind a
revision table are built directly, not found by scanning ordered partitions.

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

Belief-set containment is always checked through its reversal on contents:
belief set of T1 is contained in that of T2 exactly when T2 ⊆ T1.

The checkers that walk proposition pairs tabulate each per-proposition value
once per checked model, through the public ``revise``, ``disbelief_degree``
and ``first_consistent_block``, then run the pair loop over int masks.
Tables have 2^n entries, never 4^n.  The degree checker's two tables come
from the two independent routes (minimum world rank, first consistent
block), so comparing them is still a check.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping

from .errors import InputError
from .ranking import OCF, RankedModel, _from_masks, ocf_from_rpm, rpm_from_ocf
from .revision import (
    Attitude,
    EpistemicInput,
    RevisionRule,
    _side_chain,
    apply_rule,
    required_content,
    revise,
    spohn_conditionalize,
)
from .worlds import Proposition, Universe, _require_same_universe, _Value

DEFAULT_CHECK_BOUND = 8
# The searches walk every ranked model (Fubini(n)) or every bounded OCF ((m+1)^n).
DEFAULT_SEARCH_BOUND = 5
DEFAULT_ENUMERATION_BOUND = 6
DEFAULT_MAX_STRENGTH = 3


class Witness(_Value):
    """Enough of a failing case to replay it through the public operations."""

    __slots__ = ("description", "model", "proposition", "second", "epistemic_input",
                 "world_pair", "ocf", "strength")

    def __init__(self, description: str, model: RankedModel | None = None,
                 proposition: Proposition | None = None, second: Proposition | None = None,
                 epistemic_input: EpistemicInput | None = None,
                 world_pair: tuple[str, str] | None = None, ocf: OCF | None = None,
                 strength: int | None = None):
        self._fill(description, model, proposition, second, epistemic_input, world_pair, ocf,
                   strength)


class AxiomReport(_Value):
    """Result of one checker run: which axiom, verdict, case count, witness on failure.

    ``reversal`` is only set by the reversibility checkers on a pass: the
    attitude (or signed strength, for OCF-level checks) that restored the
    prior state.
    """

    __slots__ = ("axiom", "passed", "cases", "witness", "reversal")

    def __init__(self, axiom: str, passed: bool, cases: int, witness: Witness | None = None,
                 reversal: EpistemicInput | int | None = None):
        self._fill(axiom, passed, cases, witness, reversal)


def _check_bound(universe: Universe, max_worlds: int):
    if len(universe.worlds) > max_worlds:
        raise InputError(
            f"universe has {len(universe.worlds)} worlds, over the bound of {max_worlds}"
        )


def _check_strength_bound(max_strength: int):
    if max_strength < 0:
        raise InputError("max strength must be at least 0")


def check_agm(model: RankedModel, max_worlds: int = DEFAULT_CHECK_BOUND) -> AxiomReport:
    """Check the eight single-step axioms exhaustively on one ranked model.

    B1-B6 run over every proposition, B7/B8 over every ordered pair.  B1
    holds by representation (revision always yields a belief content, whose
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
        content = revise(model, prop)
        # B1: the result is a belief content over the same universe.
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
        if revise(model, prop) != content:
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
    proposition; each case revises the rule's output on its block masks.
    """
    axiom = axiom.upper()
    if axiom not in ("B9", "B10"):
        raise InputError(f"unknown iteration axiom {axiom!r} (expected B9 or B10)")
    u = model.universe
    _check_bound(u, max_worlds)
    full = u.tautology().mask
    expected = [revise(model, u.prop_from_mask(m)).mask for m in range(full + 1)]
    cases = 0
    for a_mask in range(1, full):
        a = u.prop_from_mask(a_mask)
        revised = apply_rule(rule, model, EpistemicInput(a, Attitude.BELIEVE))
        _require_same_universe(revised.blocks[0], a)
        blocks = [block.mask for block in revised.blocks]
        side = a_mask if axiom == "B9" else full ^ a_mask
        for b_mask in _nonempty_submasks(side):
            cases += 1
            for block in blocks:
                got = block & b_mask
                if got:
                    break
            if got != expected[b_mask]:
                b = u.prop_from_mask(b_mask)
                detail = (f"{axiom} violated: believe {a} then revise by {b} gives "
                          f"{u.prop_from_mask(got)}, expected {u.prop_from_mask(expected[b_mask])}")
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

    (i) a singleton's degree is its world's rank; (ii) for non-empty A, B:
    degree(A) < degree(B) exactly when the first block consistent with
    A ∪ B misses B.

    Both conditions compare the two independent routes: degrees from
    ``disbelief_degree`` (the minimum over world ranks), blocks from
    ``first_consistent_block`` (the block scan), whose index for a
    singleton is its world's rank.  The two sides of (ii) come from two
    tables built once per proposition; the pair loop compares them over int
    masks.
    """
    u = model.universe
    _check_bound(u, max_worlds)
    cases = 0
    for w in u.worlds:
        cases += 1
        single = u.prop(w)
        if model.disbelief_degree(single) != model.first_consistent_block(single):
            return AxiomReport("degrees", False, cases,
                               Witness(f"degree of {{{w}}} is not its rank", model=model,
                                       proposition=single))
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
            yield _from_masks(universe, masks)


def enumerate_ocfs(universe: Universe, max_value: int,
                   max_worlds: int = DEFAULT_SEARCH_BOUND) -> Iterator[OCF]:
    """Every normalized OCF with values in 0..max_value, in lexicographic value order."""
    _check_bound(universe, max_worlds)
    n = len(universe.worlds)
    for values in product(range(max_value + 1), repeat=n):
        if min(values) == 0:
            yield OCF(universe, values)


def constrained_successors(model: RankedModel,
                           epistemic_input: EpistemicInput) -> tuple[RankedModel, ...]:
    """All posterior rankings the iteration axioms leave open for one input.

    The first block is the belief content the attitude requires; after it,
    each side of the proposition keeps its prior chain of tie groups.  Each
    successor is one order-preserving merge of the two chains: every next
    block is the head of one chain or both heads joined.  Returned in
    canonical enumeration order.
    """
    prop = epistemic_input.proposition
    if prop.universe != model.universe:
        raise InputError("input proposition is over a different universe")
    if prop.is_empty or prop.is_full:
        raise InputError("successor enumeration needs a non-degenerate proposition")
    first = required_content(model, epistemic_input).mask
    accepted = _side_chain(model, prop.mask & ~first)
    rejected = _side_chain(model, ~prop.mask & ~first)

    def merges(xs: list[int], ys: list[int]) -> list[list[int]]:
        if not xs or not ys:
            return [xs + ys]
        return ([[xs[0]] + rest for rest in merges(xs[1:], ys)]
                + [[ys[0]] + rest for rest in merges(xs, ys[1:])]
                + [[xs[0] | ys[0]] + rest for rest in merges(xs[1:], ys[1:])])

    successors = [_from_masks(prop.universe, [first] + m) for m in merges(accepted, rejected)]
    return tuple(sorted(successors, key=lambda m: (len(m.blocks), m.ranks())))


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
    _check_strength_bound(max_strength)
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
    _check_strength_bound(max_strength)
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
                         max_worlds: int = DEFAULT_SEARCH_BOUND) -> Witness | None:
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
                             max_worlds: int = DEFAULT_SEARCH_BOUND) -> Witness | None:
    """Search bounded OCF space for an irreversible conditionalization step.

    Returns None whenever the strength bound covers the value bound: at the
    numeric level every step is undone by the difference of the two sides'
    prior degrees.

    Conditionalizing twice on the same proposition forgets the first
    strength (Spohn 1988), so whether a step on (OCF, A) can be undone does
    not depend on its strength.  One strength, -max_strength, is tried per
    (OCF, A); it is the first of the whole range, so the witness is the
    first in (OCF, A, strength) order.
    """
    _check_strength_bound(max_strength)
    full = universe.tautology().mask
    for ocf in enumerate_ocfs(universe, max_value, max_worlds):
        for a_mask in range(1, full):
            prop = universe.prop_from_mask(a_mask)
            report = check_ocf_reversibility(ocf, prop, -max_strength, max_strength)
            if not report.passed:
                return report.witness
    return None


class CounterexampleFixture(_Value):
    """The four-block construction: A spans the first two groups.

    ``r1`` ranks the third group above everything else, ``r2`` additionally
    separates the fourth group, and ``r3`` is where believing A sends both.
    """

    __slots__ = ("universe", "prop_a", "r1", "r2", "r3")

    def __init__(self, universe: Universe, prop_a: Proposition, r1: RankedModel,
                 r2: RankedModel, r3: RankedModel):
        self._fill(universe, prop_a, r1, r2, r3)


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


class CounterexampleReport(AxiomReport):
    """Everything the counterexample argument establishes, for rendering and replay."""

    __slots__ = ("fixture", "r1_believe", "r2_believe", "r3_believe", "r3_suspend",
                 "r3_disbelieve", "degrees", "strength_outputs")

    def __init__(self, axiom: str, passed: bool, cases: int, witness: Witness | None = None,
                 reversal: EpistemicInput | int | None = None,
                 fixture: CounterexampleFixture | None = None,
                 r1_believe: tuple[RankedModel, ...] = (), r2_believe: tuple[RankedModel, ...] = (),
                 r3_believe: tuple[RankedModel, ...] = (), r3_suspend: tuple[RankedModel, ...] = (),
                 r3_disbelieve: tuple[RankedModel, ...] = (),
                 degrees: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0)),
                 strength_outputs: tuple[tuple[int, RankedModel], ...] = ()):
        self._fill(axiom, passed, cases, witness, reversal, fixture, r1_believe, r2_believe,
                   r3_believe, r3_suspend, r3_disbelieve, degrees, strength_outputs)


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
    _check_strength_bound(max_strength)
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
    failed = next((complaint for ok, complaint in checks if not ok), None)
    return CounterexampleReport(
        "counterexample", failed is None, cases,
        witness=None if failed is None else Witness(failed, model=fx.r3, proposition=a),
        fixture=fx, r1_believe=r1_believe, r2_believe=r2_believe, r3_believe=r3_believe,
        r3_suspend=r3_suspend, r3_disbelieve=r3_disbelieve, degrees=degrees,
        strength_outputs=strength_outputs)


def revision_table(model: RankedModel) -> dict[Proposition, Proposition]:
    """The revision function the model defines, tabulated over non-empty propositions."""
    return {p: revise(model, p) for p in model.universe.propositions() if not p.is_empty}


def representation_check(table: Mapping[Proposition, Proposition],
                         max_worlds: int = DEFAULT_CHECK_BOUND) -> RankedModel | None:
    """Find the ranked model defining a revision table, if one exists.

    The table must be total over the non-empty propositions of one universe.
    Peels the model's blocks (a system of spheres, Grove 1988), each the
    table's content for the worlds not yet placed, then checks the whole
    table against it; a table no model reproduces yields None.
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
    wanted = {p.mask: t for p, t in table.items()}
    blocks = []
    remaining = full
    while remaining:
        block = wanted[remaining].mask
        if not block or block & ~remaining:
            return None
        blocks.append(universe.prop_from_mask(block))
        remaining &= ~block
    model = RankedModel(tuple(blocks))
    return model if revision_table(model) == dict(table) else None
