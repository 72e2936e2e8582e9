import pytest
import sympy
from hypothesis import strategies as st

import rankrev as rr
import reference_checkers as reference

# The standard four-world fixture over atoms A, B: worlds AB, Ab, aB, ab.
U4 = rr.Universe.from_atoms(("A", "B"))
PROP_A = U4.prop("AB", "Ab")
R1 = rr.RankedModel.from_labels(U4, ["aB"], ["AB", "Ab", "ab"])
R2 = rr.RankedModel.from_labels(U4, ["aB"], ["AB", "Ab"], ["ab"])
R3 = rr.RankedModel.from_labels(U4, ["AB", "Ab"], ["aB"], ["ab"])
K1 = rr.OCF.from_map(U4, {"AB": 1, "Ab": 1, "aB": 0, "ab": 2})

ALL_MODELS_4 = tuple(rr.enumerate_ranked_models(U4))


@pytest.fixture
def uni():
    return U4


@pytest.fixture
def prop_a():
    return PROP_A


@pytest.fixture
def r1():
    return R1


@pytest.fixture
def r2():
    return R2


@pytest.fixture
def r3():
    return R3


@pytest.fixture
def k1():
    return K1


def plain_universe(n: int) -> rr.Universe:
    return rr.Universe(tuple(f"w{i}" for i in range(n)))


ALL_MODELS_5 = tuple(rr.enumerate_ranked_models(plain_universe(5)))


def collapse(values) -> tuple[int, ...]:
    """Remap arbitrary non-negative levels to consecutive ranks 0..k."""
    remap = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(remap[v] for v in values)


@st.composite
def ranked_models(draw, min_worlds=1, max_worlds=5):
    n = draw(st.integers(min_worlds, max_worlds))
    values = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return rr.RankedModel.from_ranks(plain_universe(n), collapse(values))


@st.composite
def ocfs(draw, min_worlds=1, max_worlds=5, max_value=6):
    n = draw(st.integers(min_worlds, max_worlds))
    values = draw(st.lists(st.integers(0, max_value), min_size=n, max_size=n))
    shift = min(values)
    return rr.OCF(plain_universe(n), tuple(v - shift for v in values))


@st.composite
def models_with_input(draw, min_worlds=2, max_worlds=5):
    """A ranked model plus a non-degenerate epistemic input over its universe."""
    model = draw(ranked_models(min_worlds, max_worlds))
    n = len(model.universe.worlds)
    mask = draw(st.integers(1, (1 << n) - 2))
    attitude = draw(st.sampled_from(list(rr.Attitude)))
    return model, rr.EpistemicInput(model.universe.prop_from_mask(mask), attitude)


# Random expression trees over the given atoms, rendered with the fewest
# parentheses the grammar needs plus redundant ones, and with '->' chains
# left bare on the right.  Each node is (text, binding level, sympy formula),
# levels being 0 for '->', 1 for '|', 2 for '&' and 3 for a unary form.
def expressions(atoms):
    def wrap(node, level):
        text, node_level, _ = node
        return text if node_level >= level else f"({text})"

    def extend(sub):
        return st.one_of(
            sub.map(lambda x: ("~" + wrap(x, 3), 3, sympy.Not(x[2]))),
            sub.map(lambda x: (f"({x[0]})", 3, x[2])),
            st.tuples(sub, sub).map(lambda p: (
                f"{wrap(p[0], 2)} & {wrap(p[1], 2)}", 2, sympy.And(p[0][2], p[1][2]))),
            st.tuples(sub, sub).map(lambda p: (
                f"{wrap(p[0], 1)} | {wrap(p[1], 1)}", 1, sympy.Or(p[0][2], p[1][2]))),
            st.tuples(sub, sub).map(lambda p: (
                f"{wrap(p[0], 1)} -> {wrap(p[1], 0)}", 0, sympy.Implies(p[0][2], p[1][2]))),
        )

    leaves = st.sampled_from(atoms).map(lambda a: (a, 3, sympy.Symbol(a)))
    return st.recursive(leaves, extend, max_leaves=12)


# ---------------------------------------------------------------------------
# deliberately broken operations, so the checkers can be shown to fail


def _reverse_accepted(model, epistemic_input):
    """Lexicographic belief, but with the accepted side's internal order reversed."""
    if epistemic_input.attitude is not rr.Attitude.BELIEVE:
        return rr.lexicographic_rule(model, epistemic_input)
    prop = epistemic_input.proposition
    accepted = [b & prop for b in model.blocks if not (b & prop).is_empty]
    rejected = [b & ~prop for b in model.blocks if not (b & ~prop).is_empty]
    return rr.RankedModel(tuple(accepted[::-1] + rejected))


reverse_accepted_rule = reference.object_rule("reverse-accepted", _reverse_accepted)


def _swap_believed_groups(blocks, epistemic_input):
    """Lexicographic, but with the believed side's second and third tie groups
    swapped.  Revising by B = A still lands on A's first group, so a failing
    B9 walk goes on to a B strictly inside A."""
    posterior = list(rr.lexicographic_rule.transform(blocks, epistemic_input))
    mask = epistemic_input.proposition.mask
    side = {rr.Attitude.BELIEVE: mask, rr.Attitude.DISBELIEVE: ~mask}.get(epistemic_input.attitude)
    if side is not None and sum(1 for block in blocks if block & side) >= 3:
        posterior[1], posterior[2] = posterior[2], posterior[1]
    return posterior


swapped_groups_rule = rr.RevisionRule("swap-second-third", _swap_believed_groups)

# A rule that leaves every ranking as it is: every step is undone by any input.
unchanged_rule = rr.RevisionRule("unchanged", lambda blocks, _: blocks)


def max_rank_degree(model, prop):
    """A broken degree route: the maximum rank over the worlds, not the minimum."""
    ranks = model.ranks()
    return max(ranks[i] for i in prop.indices())


def shifted_degree(model, prop):
    """A broken degree route: one more than the minimum rank.  Every comparison
    of two degrees keeps its verdict, so only degree condition (i) can see it."""
    ranks = model.ranks()
    return min(ranks[i] for i in prop.indices()) + 1


def last_consistent_block(model, prop):
    """A broken block scan: the last block meeting the proposition, not the first."""
    hits = [i for i, block in enumerate(model.blocks) if block.mask & prop.mask]
    return hits[-1] if hits else None
