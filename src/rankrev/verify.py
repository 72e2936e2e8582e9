"""Exhaustive checkers for the revision axioms and the irreversibility argument.

Everything here is exact: each checker quantifies over its whole case space
and either passes or returns a replayable witness.  The caller picks the
universe, and the cost grows with it: 2^n propositions, 4^n pairs and
Fubini(n) ranked models over n worlds.  Nothing here bounds n; the command
line and the model reader do, where input arrives.  Successor sets, the
model behind a revision table and the first irreversible OCF step are built
directly, not found by scanning ordered partitions or bounded OCFs.

The checkers cover three layers:

* the single-step axioms over belief sets, checked on one ranked model at a
  time (``check_agm``, ``check_degree_conditions``);
* the iteration axioms and what they force on rankings
  (``check_iteration_axiom``, ``check_order_preservation``,
  ``constrained_successors``);
* reversibility: whether a rule's effect can be undone using only the
  proposition that caused it (``check_reversibility``,
  ``find_irreversibility``, ``check_ocf_reversibility``,
  ``find_ocf_irreversibility``), and the four-block counterexample showing no
  rule satisfying the iteration axioms can always be reversed
  (``counterexample_verify``).

Belief-set containment is always checked through its reversal on contents:
belief set of T1 is contained in that of T2 exactly when T2 ⊆ T1.

The checkers that quantify over proposition pairs tabulate each
per-proposition value once per checked model, through the public
``revise``, ``disbelief_degree`` and ``first_consistent_block``.  Tables
have 2^n entries, never 4^n.  The degree checker's two tables come from the
two independent routes (minimum world rank, first consistent block), so
comparing them is still a check.

The pair phase is then set algebra.  A set of propositions is a 2^n-bit int,
bit m standing for the proposition with mask m, so one big-int operation
decides a property for every B at once.  For each A the phase builds the set
of B at which the axiom fails; its lowest set bit is the first failing pair
in (A, B) order, so verdicts, witnesses and case counts are those of the
plain pair loop over 4^n cases.

The iteration checker needs no table: for B within one side of A, the prior
and the rule's output revise every B alike exactly when they order that
side's worlds alike, so each A compares two chains of block masks.  The
checkers read a model's block masks as it kept them when it validated its
blocks; those that run a rule do so through one checked step on them,
``revision._posterior``, and build no posterior ranked model.  Revision on
block masks has one definition, ``revision._revised``, behind ``revise``,
the iteration checker's witness walk and ``representation_check``, which
compares the table on masks and builds only the model it returns.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from functools import cache, partial
from math import comb

from .errors import InputError, _require
from .ranking import OCF, RankedModel, _from_masks, _ranks, ocf_from_rpm, rpm_from_ocf
from .revision import (
    Attitude,
    EpistemicInput,
    RevisionRule,
    _posterior,
    _require_revisable,
    _required,
    _revised,
    _side_chain,
    apply_rule,  # unused here, but perfbench/tracing.py patches (verify, "apply_rule")
    reverse_strength,
    revise,
    spohn_conditionalize,
)
from .worlds import Proposition, Universe, _Value

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


def _check_strength_bound(max_strength: int):
    if type(max_strength) is not int:
        raise InputError(f"max strength must be an int, got {max_strength!r}")
    if max_strength < 0:
        raise InputError("max strength must be at least 0")


def check_agm(model: RankedModel) -> AxiomReport:
    """Check the eight single-step axioms exhaustively on one ranked model.

    B1-B6 run over every proposition, B7/B8 over every ordered pair.  B1
    holds by representation (revision always yields a belief content, whose
    belief set is deductively closed), so it reduces to a structural check.

    ``revise`` is called once per proposition (twice, for B6) to build the
    table ``t[m]`` of revised content masks.  Once B1-B6 pass, B7/B8 is set
    algebra over that table (``_agm_pairs``), and propositions are built
    only for a witness.
    """
    _require(model, RankedModel, "check_agm")
    u = model.universe
    prior = model._masks[0]
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
    pair_cases, failure = _agm_pairs(t)
    cases += pair_cases
    if failure is not None:
        axiom, a, b = failure
        return _agm_fail(axiom, model, a, b, cases)
    return AxiomReport("agm", True, cases)


def _agm_fail(axiom: str, model: RankedModel, a_mask: int, b_mask: int | None,
              cases: int) -> AxiomReport:
    u = model.universe
    a = u.prop_from_mask(a_mask)
    b = None if b_mask is None else u.prop_from_mask(b_mask)
    detail = f"{axiom} violated at A={a}" + (f", B={b}" if b is not None else "")
    return AxiomReport("agm", False, cases,
                       Witness(detail, model=model, proposition=a, second=b))


def _columns(table: Sequence[int], n: int) -> list[int]:
    """For each world w, the set of masks m whose entry ``table[m]`` holds w.
    Each set is read as one binary numeral, its highest mask first."""
    return [int("".join("01"[e >> w & 1] for e in reversed(table)), 2) for w in range(n)]


def _membership(n: int) -> list[int]:
    """For each world w, the set of masks over n worlds that hold w:
    ``_columns(range(2^n), n)`` in closed form.  In mask order, w is out of
    2^w masks and then in 2^w, so the set repeats one run of 2^w ones every
    2^(w+1) masks, a product of that run and a repunit."""
    size = 1 << n
    return [(((1 << (1 << w)) - 1) << (1 << w)) * (((1 << size) - 1) // ((1 << (2 << w)) - 1))
            for w in range(n)]


def _agm_pairs(t: list[int]) -> tuple[int, tuple[str, int, int] | None]:
    """B7/B8 over every ordered pair of masks, given t[a] ⊆ a for every a.

    Returns the pair phase's case count and its first failure (axiom, a, b),
    or None.  B7 says t[a ∩ b] ⊇ t[a] ∩ b; B8 says t[a ∩ b] ⊆ t[a] ∩ b when
    t[a] meets b.  As t[a] ⊆ a, t[a] ∩ b = t[a] ∩ c with c = a ∩ b, so (a, b)
    fails exactly when (a, c) does, and the first such b is c itself.  So
    for each a the failing b are the submasks c of a where:

    * B7: some world of t[a] lies in c but not in t[c];
    * B8: t[a] meets c, and some world of t[c] lies outside t[a].
    """
    size = len(t)
    n = size.bit_length() - 1
    has = _membership(n)  # per world w: {c : w ∈ c}
    revised = _columns(t, n)  # per world w: {c : w ∈ t[c]}
    dropped = [h & ~r for h, r in zip(has, revised)]  # per world w: {c : w ∈ c, w ∉ t[c]}
    # sub[k] is the set of submasks of the last mask of k worlds visited.  The
    # submasks of a are those of a without its lowest world l, each taken with
    # and without l, and that mask is the last of its size before a (as in
    # ``_degree_pairs``), so one set per size is kept.
    sub = [1] * (n + 1)
    for a, t_a in enumerate(t):
        level = a.bit_count()
        if a:
            rest = sub[level - 1]
            sub[level] = rest | rest << (a & -a)
        b7 = b8 = meets = 0
        for w in range(n):
            if t_a >> w & 1:
                b7 |= dropped[w]
                meets |= has[w]
            else:
                b8 |= revised[w]
        b7 &= sub[level]
        b8 &= sub[level] & meets
        failing = b7 | b8
        if failing:
            b = (failing & -failing).bit_length() - 1
            return a * size + b + 1, ("B7" if b7 >> b & 1 else "B8", a, b)
    return size * size, None


def check_iteration_axiom(rule: RevisionRule, axiom: str, model: RankedModel) -> AxiomReport:
    """Check B9 (more precise information) or B10 (conflicting information).

    Both say that believing A and then B must land on the beliefs that B
    alone would have produced: B9 when B entails A, B10 when B entails the
    complement.  Checked at the belief-set level, over every non-degenerate A
    and every eligible non-empty B.

    Under a ranking, the revision by B holds world w exactly when B holds w
    and lies within the worlds at w's rank or later.  For B within one side
    of A, the prior and the rule's output therefore revise every such B
    alike iff they rank that side's worlds alike, ties included: iff the
    side has the same ``_side_chain`` under both.  So each A costs one rule
    application on block masks (``_posterior``; no ranked model is built) and
    one comparison of two chains of block masks.  At the first A that fails,
    its side's non-empty submasks are walked in descending order to the first
    B that the two rankings revise differently; verdict, witness and
    ``cases`` are those of that walk over every A in turn.  The public
    ``revise`` only words the witness.
    """
    _require(rule, RevisionRule, "check_iteration_axiom")
    axiom = axiom.upper() if isinstance(axiom, str) else axiom
    if axiom not in ("B9", "B10"):
        raise InputError(f"unknown iteration axiom {axiom!r} (expected B9 or B10)")
    _require(model, RankedModel, "check_iteration_axiom")
    u = model.universe
    full = u.tautology().mask
    prior = model._masks
    cases = 0
    for a_mask in range(1, full):
        believe_a = EpistemicInput(u.prop_from_mask(a_mask), Attitude.BELIEVE)
        blocks = _posterior(rule, prior, believe_a)
        side = a_mask if axiom == "B9" else full ^ a_mask
        if _side_chain(blocks, side) == _side_chain(prior, side):
            cases += (1 << side.bit_count()) - 1
            continue
        b_mask = side
        while True:
            cases += 1
            got = _revised(blocks, b_mask)
            if got != _revised(prior, b_mask):
                break
            b_mask = (b_mask - 1) & side
        a, b = u.prop_from_mask(a_mask), u.prop_from_mask(b_mask)
        detail = (f"{axiom} violated: believe {a} then revise by {b} gives "
                  f"{u.prop_from_mask(got)}, expected {revise(model, b)}")
        return AxiomReport(axiom, False, cases,
                           Witness(detail, model=model, proposition=a, second=b))
    return AxiomReport(axiom, True, cases)


# How world i compares with world j, by the sign of rank(i) - rank(j).
_ORDER_WORDS = {-1: "first", 0: "tie", 1: "second"}


def check_order_preservation(rule: RevisionRule, model: RankedModel, prop: Proposition,
                             attitude: Attitude = Attitude.BELIEVE) -> AxiomReport:
    """Check that a rule keeps the relative order of worlds within each side.

    The iteration axioms force this for any rule: comparing two same-side
    worlds before and after the change must give the same verdict, ties
    included.  Each same-side pair i < j compares the sign of its rank
    difference in the prior's and the posterior's rank vectors.  The rule
    runs once on block masks (``_posterior``), and the posterior's rank
    vector is read off its masks; no ranked model is built.
    """
    _require(rule, RevisionRule, "check_order_preservation")
    _require(model, RankedModel, "check_order_preservation")
    epistemic_input = EpistemicInput(prop, attitude)
    _require_revisable(model, prop, "check_order_preservation")
    blocks = _posterior(rule, model._masks, epistemic_input)
    worlds, mask = model.universe.worlds, prop.mask
    before, after = model.ranks(), _ranks(blocks, len(worlds))
    cases = 0
    for i in range(len(worlds)):
        for j in range(i + 1, len(worlds)):
            if (mask >> i & 1) != (mask >> j & 1):
                continue
            cases += 1
            was = (before[i] > before[j]) - (before[i] < before[j])
            now = (after[i] > after[j]) - (after[i] < after[j])
            if was != now:
                w1, w2 = worlds[i], worlds[j]
                detail = (f"order within a side of {prop} not preserved: "
                          f"{w1} vs {w2} was {_ORDER_WORDS[was]}, now {_ORDER_WORDS[now]}")
                return AxiomReport("order", False, cases,
                                   Witness(detail, model=model, proposition=prop,
                                           epistemic_input=epistemic_input,
                                           world_pair=(w1, w2)))
    return AxiomReport("order", True, cases)


def check_degree_conditions(model: RankedModel) -> AxiomReport:
    """Check the two conditions forcing degree = minimum rank.

    (i) a singleton's degree is its world's rank; (ii) for non-empty A, B:
    degree(A) < degree(B) exactly when the first block consistent with
    A ∪ B misses B.

    Both conditions compare the two independent routes: degrees from
    ``disbelief_degree`` (the minimum over world ranks), blocks from
    ``first_consistent_block`` (the block scan), whose index for a
    singleton is its world's rank.  The two sides of (ii) come from two
    tables built once per proposition; set algebra over them
    (``_degree_pairs``) compares the sides for every pair.
    """
    _require(model, RankedModel, "check_degree_conditions")
    u = model.universe
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
    first_block = [0] + [model._masks[model.first_consistent_block(p)] for p in props[1:]]
    pair_cases, failure = _degree_pairs(degree, first_block)
    cases += pair_cases
    if failure is not None:
        a_mask, b_mask = failure
        strictly_less = degree[a_mask] < degree[b_mask]
        misses_b = (first_block[a_mask | b_mask] & b_mask) == 0
        detail = (f"degree condition (ii) violated at A={props[a_mask]}, "
                  f"B={props[b_mask]}: d(A)<d(B) is {strictly_less} but first block "
                  f"of A∪B {'misses' if misses_b else 'meets'} B")
        return AxiomReport("degrees", False, cases,
                           Witness(detail, model=model, proposition=props[a_mask],
                                   second=props[b_mask]))
    return AxiomReport("degrees", True, cases)


def _degree_pairs(degree: list, first_block: list[int]) -> tuple[int, tuple[int, int] | None]:
    """Degree condition (ii) over every ordered pair of non-empty masks.

    ``degree[m]`` and ``first_block[m]`` are the two routes' values for mask
    m, ``first_block[0]`` is 0 and ``degree[0]`` is unused.  Returns the pair
    phase's case count and its first failure (a, b), or None.  For each a,
    "d(a) < d(b)" holds on the set of b above level d(a), and "the first
    block of a ∪ b meets b" on the union over worlds w of
    {b ∋ w : w ∈ first_block[a ∪ b]}; (ii) fails where both hold or neither.
    """
    size = len(degree)
    n = size.bit_length() - 1
    full = size - 1
    nonempty = (1 << size) - 2
    # above[level] = {b ≠ 0 : d(b) > level}, one numeral per level; mask 0 is the trailing "0".
    above = {level: int("".join("01"[d > level] for d in reversed(degree[1:])) + "0", 2)
             for level in set(degree[1:])}
    has = _membership(n)
    # pre(a)[w] = {b : w ∈ first_block[a ∪ b]}.  It is built from pre(a'), a'
    # being a without its lowest world l: b ∪ a = (b ∪ {l}) ∪ a', so b is in
    # it when b holds l and is in pre(a')[w], or b ∪ {l} is.  Every mask
    # between a' and a adds only worlds below l to a', so it has more worlds
    # than a': a' is the last mask of its size before a, and one row per size
    # is kept.
    pre = [_columns(first_block, n)] + [None] * n
    for a in range(1, size):
        low = a & -a
        holds_low = has[low.bit_length() - 1]
        level = a.bit_count()
        row = []
        meets = 0
        for w, s in enumerate(pre[level - 1]):
            s &= holds_low
            s |= s >> low
            row.append(s)
            meets |= has[w] & s
        pre[level] = row
        failing = ~(above[degree[a]] ^ meets) & nonempty
        if failing:
            b = (failing & -failing).bit_length() - 1
            return (a - 1) * full + b, (a, b)
    return full * full, None


def enumerate_ranked_models(universe: Universe) -> Iterator[RankedModel]:
    """Every ranked model over the universe, exactly once, in canonical order.

    Canonical order: ascending number of blocks, then lexicographic on the
    world-to-block assignment vector in world index order.  The count is the
    ordered Bell number of the universe's size (``_count_ranked_models``).

    Only surjective assignments are visited: a depth-first walk places the
    worlds in index order, tries blocks in ascending order, and skips a
    block whenever the blocks still empty would outnumber the worlds left.
    The walk is lazy; each block proposition is built once, on first use.
    """
    _require(universe, Universe, "enumerate_ranked_models")
    n = len(universe.worlds)
    block = cache(partial(Proposition, universe))

    def place(i: int, masks: list[int], empty: int) -> Iterator[RankedModel]:
        # World i goes to some block; ``empty`` blocks are still empty before it.
        if i == n:
            yield RankedModel(tuple(map(block, masks)))
            return
        bit, later = 1 << i, n - i - 1
        for b in range(len(masks)):
            left_empty = empty - (not masks[b])
            if left_empty > later:
                continue
            masks[b] |= bit
            yield from place(i + 1, masks, left_empty)
            masks[b] ^= bit

    for k in range(1, n + 1):
        yield from place(0, [0] * k, k)


def _count_ranked_models(n: int) -> int:
    """The number of ranked models over n worlds, the ordered Bell number,
    without building them: a first block of k worlds, then a ranked model of
    the other n − k, so a(0) = 1 and a(m) = Σ_{k=1..m} C(m, k)·a(m − k)."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def constrained_successors(model: RankedModel,
                           epistemic_input: EpistemicInput) -> tuple[RankedModel, ...]:
    """All posterior rankings the iteration axioms leave open for one input.

    The first block is the belief content the attitude requires; after it,
    each side of the proposition keeps its prior chain of tie groups.  Each
    successor is one order-preserving merge of the two chains: every next
    block is the head of one chain or both heads joined.  Returned in
    canonical enumeration order.
    """
    _require(model, RankedModel, "constrained_successors")
    _require(epistemic_input, EpistemicInput, "constrained_successors")
    prop = epistemic_input.proposition
    _require_revisable(model, prop, "constrained_successors")
    first = _required(model._masks, epistemic_input)
    accepted = _side_chain(model._masks, prop.mask & ~first)
    rejected = _side_chain(model._masks, ~prop.mask & ~first)

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
    if not rule.strength_based:
        return [EpistemicInput(prop, att) for att in Attitude]
    return ([EpistemicInput(prop, Attitude.DISBELIEVE, s) for s in range(max_strength, 0, -1)]
            + [EpistemicInput(prop, Attitude.SUSPEND)]
            + [EpistemicInput(prop, Attitude.BELIEVE, s) for s in range(1, max_strength + 1)])


def _reversal(rule: RevisionRule, prior: tuple[int, ...], epistemic_input: EpistemicInput,
              candidates: list[EpistemicInput]) -> EpistemicInput | None:
    """The first candidate mapping the rule's output back to the prior's masks, or None."""
    revised = _posterior(rule, prior, epistemic_input)
    return next((c for c in candidates if _posterior(rule, revised, c) == prior), None)


def check_reversibility(rule: RevisionRule, model: RankedModel, epistemic_input: EpistemicInput,
                        max_strength: int = DEFAULT_MAX_STRENGTH) -> AxiomReport:
    """Check whether an input's effect can be undone using the same proposition.

    Applies the rule, then tries every attitude on that proposition (every
    signed strength within the bound, for strength-based rules) and passes if
    one maps the revised model back to the original.  The successful reversal
    input is reported, and ``cases`` counts the candidates tried.
    """
    _require(rule, RevisionRule, "check_reversibility")
    _require(model, RankedModel, "check_reversibility")
    _require(epistemic_input, EpistemicInput, "check_reversibility")
    _check_strength_bound(max_strength)
    candidates = _reversal_candidates(rule, epistemic_input.proposition, max_strength)
    _require_revisable(model, epistemic_input.proposition, "check_reversibility")
    reversal = _reversal(rule, model._masks, epistemic_input, candidates)
    if reversal is not None:
        return AxiomReport("R", True, candidates.index(reversal) + 1, reversal=reversal)
    detail = (f"no attitude toward {epistemic_input.proposition} maps the revised model "
              f"back: {rule.name} is irreversible at ({model}, {epistemic_input})")
    return AxiomReport("R", False, len(candidates),
                       Witness(detail, model=model, epistemic_input=epistemic_input))


def check_ocf_reversibility(ocf: OCF, prop: Proposition, alpha: int,
                            max_strength: int = DEFAULT_MAX_STRENGTH) -> AxiomReport:
    """OCF-level reversibility: is the one strength that can restore ``ocf`` in bound?

    Conditionalizing on A sets κ(¬A) − κ(A) to the strength and keeps the
    differences within each side, so only β = ``reverse_strength(ocf, prop)``
    can restore ``ocf``.  ``cases`` counts what a scan from -max_strength tries.
    """
    _require(ocf, OCF, "check_ocf_reversibility")
    _require(prop, Proposition, "check_ocf_reversibility")
    _check_strength_bound(max_strength)
    conditioned = spohn_conditionalize(ocf, prop, alpha)
    beta = reverse_strength(ocf, prop)
    if abs(beta) <= max_strength and spohn_conditionalize(conditioned, prop, beta) == ocf:
        return AxiomReport("R", True, beta + max_strength + 1, reversal=beta)
    detail = (f"no strength within ±{max_strength} undoes conditionalizing {ocf} "
              f"on {prop} with strength {alpha}")
    return AxiomReport("R", False, 2 * max_strength + 1,
                       Witness(detail, ocf=ocf, proposition=prop, strength=alpha))


def find_irreversibility(rule: RevisionRule, universe: Universe,
                         max_strength: int = DEFAULT_MAX_STRENGTH) -> Witness | None:
    """First (model, input) pair, in canonical order, that the rule cannot reverse.

    For any rule satisfying B9 and B10 over a universe of at least three
    worlds such a pair exists; None means no step is irreversible within the
    strength bound.  Below three worlds None is the exact answer for such a
    rule whenever every attitude is tried: each input then has one successor,
    and the attitude that puts a prior's first block first restores it.  The
    walk reads the block masks of every ranked model, Fubini(n) of them, and
    ``check_reversibility`` only words the witness.
    """
    _require(rule, RevisionRule, "find_irreversibility")
    _require(universe, Universe, "find_irreversibility")
    _check_strength_bound(max_strength)
    steps = []
    for prop in list(universe.propositions())[1:-1]:
        candidates = _reversal_candidates(rule, prop, max_strength)
        steps += [(EpistemicInput(prop, attitude), candidates) for attitude in Attitude]
    for model in enumerate_ranked_models(universe):
        for epistemic_input, candidates in steps:
            if _reversal(rule, model._masks, epistemic_input, candidates) is None:
                return check_reversibility(rule, model, epistemic_input, max_strength).witness
    return None


def find_ocf_irreversibility(universe: Universe, max_value: int = DEFAULT_MAX_STRENGTH,
                             max_strength: int = DEFAULT_MAX_STRENGTH) -> Witness | None:
    """First irreversible conditionalization step over OCFs with values up to max_value.

    Order: normalized OCFs in lexicographic value order, then A by ascending
    mask, then strengths from -max_strength.  The witness is built, not
    searched for.  Only ``reverse_strength`` can restore κ after
    conditionalizing on A, whatever the first strength (Spohn 1988), so
    (κ, A) is irreversible iff |κ(¬A) − κ(A)| > max_strength.  For a
    normalized κ the largest gap over A is κ's largest value, so a witness
    exists iff there are two worlds and max_value > max_strength.  The first
    such κ is (0, …, 0, max_strength + 1): every earlier one has values up
    to max_strength.  Its first such A is every world but the last, since
    any smaller mask leaves a zero-valued world on both sides.
    """
    _require(universe, Universe, "find_ocf_irreversibility")
    _check_strength_bound(max_strength)
    if type(max_value) is not int:
        raise InputError(f"max value must be an int, got {max_value!r}")
    n = len(universe.worlds)
    if n < 2 or max_value <= max_strength:
        return None
    ocf = OCF(universe, (0,) * (n - 1) + (max_strength + 1,))
    prop = universe.prop_from_mask((1 << (n - 1)) - 1)
    return check_ocf_reversibility(ocf, prop, -max_strength, max_strength).witness


class CounterexampleFixture(_Value):
    """The four-group construction: A spans the first two groups.

    ``r1`` ranks the third group above everything else, ``r2`` additionally
    separates the fourth group, and ``r3`` is where believing A sends both.
    No ranking separates the first two groups, so the first may be empty.
    """

    __slots__ = ("universe", "prop_a", "r1", "r2", "r3")

    def __init__(self, universe: Universe, prop_a: Proposition, r1: RankedModel,
                 r2: RankedModel, r3: RankedModel):
        self._fill(universe, prop_a, r1, r2, r3)


def counterexample_fixture(worlds: int = 4) -> CounterexampleFixture:
    """Build the fixture over ``worlds`` worlds, at least three, in groups of
    ``worlds - 3``, 1, 1 and 1.

    Four worlds instantiate the two-atom universe (worlds AB, Ab, aB, ab, the
    four groups being the four single worlds); other counts use plain labels
    ``w<group><letter>`` without valuations.  Three worlds leave the first
    group empty, so A is the second group alone.
    """
    if type(worlds) is not int:
        raise InputError(f"world count must be an int, got {worlds!r}")
    if worlds < 3:
        raise InputError("the counterexample needs at least three worlds")
    if worlds == 4:
        u = Universe.from_atoms(("A", "B"))
    else:
        u = Universe(tuple(f"w1{chr(ord('a') + j)}" for j in range(worlds - 3))
                     + ("w2a", "w3a", "w4a"))
    w1, w2, w3, w4 = u.prop(*u.worlds[:-3]), *(u.prop(w) for w in u.worlds[-3:])
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


def counterexample_verify(fixture: CounterexampleFixture | None = None) -> CounterexampleReport:
    """Machine-check the argument that belief change over rankings is irreversible.

    Verifies that (a) believing A forces both starting rankings onto the same
    successor, (b) neither belief nor suspension can move that successor back
    to either start, (c) disbelief admits both starts as successors, so a
    single-valued rule must abandon one, and (d) rank-derived strengths do
    not help: both starts induce equal degrees, and strength-conditioning the
    successor never reaches both.

    (d) tries every strength from -K to K, K being r3's block count: r3 read
    as ranks is 0 to K - 1, so from strength ±K on one side of A lies wholly
    above the other and the posterior ranking no longer changes.
    """
    if fixture is not None:
        _require(fixture, CounterexampleFixture, "counterexample_verify")
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
    # From |β| = K on, the shifted side starts above r3's top rank, K - 1: no new ranking.
    k = len(fx.r3.blocks)
    strength_outputs = tuple(
        (beta, rpm_from_ocf(spohn_conditionalize(base, a, beta))) for beta in range(-k, k + 1)
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
    _require(model, RankedModel, "revision_table")
    return {p: revise(model, p) for p in model.universe.propositions() if not p.is_empty}


def representation_check(table: Mapping[Proposition, Proposition]) -> RankedModel | None:
    """Find the ranked model defining a revision table, if one exists.

    The table must map propositions to propositions, all over one universe,
    and be total over its non-empty propositions.  Peels the model's blocks
    (a system of spheres, Grove 1988), each the table's content for the
    worlds not yet placed, as masks, then checks each entry of the given table
    against them on masks; only a table they reproduce builds a ranked model.
    """
    _require(table, Mapping, "representation_check")
    if not table:
        raise InputError("empty revision table")
    if not all(isinstance(p, Proposition) and isinstance(t, Proposition) for p, t in table.items()):
        raise InputError("table keys and values must be propositions")
    universe = next(iter(table)).universe
    full = universe.tautology().mask
    if any(p.universe != universe for p in table):
        raise InputError("table keys are over different universes")
    if any(t.universe != universe for t in table.values()):
        raise InputError("table values are over a different universe than its keys")
    if len(table) != full or universe.contradiction() in table:
        raise InputError("table must be total over all non-empty propositions")
    blocks, remaining = [], full
    while remaining:
        block = table[universe.prop_from_mask(remaining)].mask
        if not block or block & ~remaining:
            return None
        blocks.append(block)
        remaining &= ~block
    ok = all(_revised(blocks, p.mask) == t.mask for p, t in table.items())
    return _from_masks(universe, blocks) if ok else None
