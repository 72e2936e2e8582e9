"""Expected CLI outputs, computed without importing rankrev.

Each oracle rests on the paper's definitions or on closed forms, never on
rankrev's own code:

* a rank-vector reference of the lexicographic, natural and Spohn rules,
  suspension included, which fixes every ``iterate``/``revise`` output and
  the verdict of every ``r`` check;
* closed-form case counts: AGM 2^n + 4^n, degrees n + (2^n - 1)^2, B9 and B10
  each 3^n - 2^(n+1) + 1, order the same-side world pairs of each prop;
* verdicts fixed by theory: AGM and the degree conditions hold on every
  ranked model, and lex, natural and spohn:N satisfy B9, B10 and order
  preservation;
* ordered Bell numbers for ``enumerate``;
* the committed golden file for ``counterexample --worlds 4``, and a pass
  verdict at 5 and 6 worlds;
* exact recovery of every state by ``represent``.

A ranked model is a tuple of ranks, one per world index, using every rank
from 0 up; a proposition is a bitmask over world indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

ATTITUDES = ("believe", "disbelieve", "suspend")
MAX_STRENGTH = 3
PASS_VERDICT = ("verdict: pass — no single-valued rule satisfying B9 and B10 "
                "can reverse both histories")


@dataclass(frozen=True)
class Expectation:
    """What one job must produce.

    ``exact`` is the whole stdout when known; otherwise ``head`` and ``tail``
    pin its first and last lines.  ``units`` is the work the job completes in
    its workload's unit (checker cases, directives applied, or jobs).
    """

    code: int
    exact: str | None = None
    head: str | None = None
    tail: str | None = None
    units: int = 1


def verify(expected: Expectation, code: int, stdout: str) -> str | None:
    """None when the job's exit code and output match, else the first mismatch."""
    if code != expected.code:
        return f"exit code {code}, expected {expected.code}"
    if expected.exact is not None and stdout != expected.exact:
        got, want = stdout.splitlines(), expected.exact.splitlines()
        for i, (g, w) in enumerate(zip(got, want), start=1):
            if g != w:
                return f"line {i}: got {g!r}, expected {w!r}"
        return f"{len(got)} lines, expected {len(want)}"
    lines = stdout.splitlines()
    if expected.head is not None and (not lines or lines[0] != expected.head):
        return f"first line {lines[:1]!r}, expected {expected.head!r}"
    if expected.tail is not None and (not lines or lines[-1] != expected.tail):
        return f"last line {lines[-1:]!r}, expected {expected.tail!r}"
    return None


# --- worlds, propositions and their text forms -----------------------------

def auto_labels(atoms: tuple[str, ...]) -> tuple[str, ...]:
    """World labels of ``worlds auto``: first atom slowest, true (uppercase) first."""
    return tuple("".join(a if v else a.lower() for a, v in zip(atoms, row))
                 for row in product((True, False), repeat=len(atoms)))


def members(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def fmt_prop(labels: tuple[str, ...], mask: int) -> str:
    return "{" + " ".join(labels[i] for i in members(mask, len(labels))) + "}"


def fmt_model(labels: tuple[str, ...], ranks: tuple[int, ...]) -> str:
    blocks = [[] for _ in range(max(ranks) + 1)]
    for i, r in enumerate(ranks):
        blocks[r].append(labels[i])
    return " ".join("[" + " ".join(b) + "]" for b in blocks)


def fmt_input(labels, attitude: str, mask: int, strength: int | None) -> str:
    text = f"{attitude} {fmt_prop(labels, mask)}"
    return text if strength is None else f"{text} strength {strength}"


def first_block(ranks: tuple[int, ...], mask: int) -> int:
    """Mask of the most believable worlds of a non-empty proposition."""
    low = min(ranks[i] for i in members(mask, len(ranks)))
    return sum(1 << i for i in members(mask, len(ranks)) if ranks[i] == low)


# --- the three rules over rank vectors --------------------------------------

def _dense(values) -> tuple[int, ...]:
    level = {v: r for r, v in enumerate(sorted(set(values)))}
    return tuple(level[v] for v in values)


def _side_ranks(ranks, side: list[int]) -> dict[int, int]:
    """Each side world's rank among the side's own occupied levels."""
    dense = _dense([ranks[i] for i in side])
    return dict(zip(side, dense))


def _lex(ranks, mask, attitude):
    n = len(ranks)
    inside = members(mask, n)
    outside = members(((1 << n) - 1) ^ mask, n)
    if attitude == "disbelieve":
        inside, outside = outside, inside
    first, second = _side_ranks(ranks, inside), _side_ranks(ranks, outside)
    offset = 0 if attitude == "suspend" else max(first.values()) + 1
    out = [0] * n
    for i, r in first.items():
        out[i] = r
    for i, r in second.items():
        out[i] = r + offset
    return tuple(out)


def _natural(ranks, mask, attitude):
    full = (1 << len(ranks)) - 1
    front = 0
    if attitude in ("believe", "suspend"):
        front |= first_block(ranks, mask)
    if attitude in ("disbelieve", "suspend"):
        front |= first_block(ranks, full ^ mask)
    rest = members(full ^ front, len(ranks))
    out = [0] * len(ranks)
    for i, r in _side_ranks(ranks, rest).items():
        out[i] = r + 1
    return tuple(out)


def _spohn(ranks, mask, attitude, strength):
    """Read ranks as an OCF, conditionalize with the signed strength, regroup."""
    signed = {"believe": strength, "disbelieve": -strength, "suspend": 0}[attitude]
    n = len(ranks)
    target = mask if signed >= 0 else ((1 << n) - 1) ^ mask
    shift_in = min(ranks[i] for i in members(target, n))
    shift_out = min(ranks[i] for i in range(n) if not target >> i & 1) - abs(signed)
    return _dense(tuple(r - (shift_in if target >> i & 1 else shift_out)
                        for i, r in enumerate(ranks)))


def rule_name(rule: tuple) -> str:
    return rule[0] if rule[0] != "spohn" else f"spohn:{rule[1]}"


def apply_rule(rule: tuple, ranks, mask, attitude, strength=None) -> tuple[int, ...]:
    """Posterior ranks; ``rule`` is ("lex",), ("natural",) or ("spohn", alpha)."""
    if rule[0] == "lex":
        return _lex(ranks, mask, attitude)
    if rule[0] == "natural":
        return _natural(ranks, mask, attitude)
    return _spohn(ranks, mask, attitude, rule[1] if strength is None else strength)


def _reversal_candidates(rule: tuple) -> list[tuple[str, int | None]]:
    if rule[0] != "spohn":
        return [(a, None) for a in ATTITUDES]
    out = []
    for beta in range(-MAX_STRENGTH, MAX_STRENGTH + 1):
        if beta > 0:
            out.append(("believe", beta))
        elif beta < 0:
            out.append(("disbelieve", -beta))
        else:
            out.append(("suspend", None))
    return out


# --- closed forms -------------------------------------------------------------

def agm_cases(n: int) -> int:
    return 2 ** n + 4 ** n


def degree_cases(n: int) -> int:
    return n + (2 ** n - 1) ** 2


def iteration_cases(n: int) -> int:
    return 3 ** n - 2 ** (n + 1) + 1


def order_cases(n: int, mask: int) -> int:
    k = bin(mask).count("1")
    return comb(k, 2) + comb(n - k, 2)


def ordered_bell(n: int) -> int:
    """Number of ranked models over n worlds (OEIS A000670)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


# --- expected outputs per subcommand ----------------------------------------

def check_expected(labels, states, props, rule, axioms) -> Expectation:
    """``check`` over every state; ``states`` and ``props`` are (name, value) lists."""
    n = len(labels)
    props = [(name, m) for name, m in props if 0 < m < (1 << n) - 1]
    lines, failures, cases = [], 0, 0
    counts = {"agm": agm_cases(n), "b9": iteration_cases(n), "b10": iteration_cases(n),
              "degrees": degree_cases(n)}
    for axiom in axioms:
        for name, ranks in states:
            if axiom in counts:
                cases += counts[axiom]
                lines.append(f"{axiom}[{name}]: pass ({counts[axiom]} cases)")
            elif axiom == "order":
                total = sum(order_cases(n, m) for _, m in props)
                cases += total
                lines.append(f"order[{name}]: pass ({total} cases)")
            else:
                verdict, tried = _reversibility(labels, ranks, props, rule, name)
                if verdict:
                    failures += 1
                    lines += verdict
                else:
                    cases += tried
                    lines.append(f"r[{name}]: pass ({tried} reversals tried)")
    if failures:
        lines.append(f"result: FAIL ({failures} violation{'s' if failures != 1 else ''})")
    else:
        lines.append("result: pass")
    return Expectation(1 if failures else 0, exact="\n".join(lines) + "\n", units=cases)


def _reversibility(labels, ranks, props, rule, name):
    """([], tried) when every input is undone, else the two FAIL lines."""
    tried = 0
    for prop_name, mask in props:
        for attitude in ATTITUDES:
            revised = apply_rule(rule, ranks, mask, attitude)
            for cand_attitude, strength in _reversal_candidates(rule):
                tried += 1
                if apply_rule(rule, revised, mask, cand_attitude, strength) == ranks:
                    break
            else:
                return [
                    f"r[{name}]: FAIL — {attitude} {prop_name} is irreversible",
                    f"  no attitude toward {fmt_prop(labels, mask)} maps the revised model "
                    f"back: {rule_name(rule)} is irreversible at "
                    f"({fmt_model(labels, ranks)}, {fmt_input(labels, attitude, mask, None)})",
                ], tried
    return [], tried


def iterate_expected(labels, state_name, ranks, rule, steps) -> Expectation:
    """``steps`` holds (attitude, mask, strength or None) in script order."""
    lines = [f"state {state_name} = {fmt_model(labels, ranks)}"]
    for i, (attitude, mask, strength) in enumerate(steps, start=1):
        ranks = apply_rule(rule, ranks, mask, attitude, strength)
        lines.append(f"step {i}: {fmt_input(labels, attitude, mask, strength)} "
                     f"-> {fmt_model(labels, ranks)}")
    content = sum(1 << i for i, r in enumerate(ranks) if r == 0)
    lines.append(f"final content = {fmt_prop(labels, content)}")
    return Expectation(0, exact="\n".join(lines) + "\n", units=len(steps))


def revise_expected(labels, state_name, ranks, rule, mask) -> Expectation:
    posterior = apply_rule(rule, ranks, mask, "believe")
    lines = [
        f"state {state_name} = {fmt_model(labels, ranks)}",
        f"revise by {fmt_prop(labels, mask)}: content = "
        f"{fmt_prop(labels, first_block(ranks, mask))}",
        f"posterior ({rule_name(rule)}) = {fmt_model(labels, posterior)}",
    ]
    return Expectation(0, exact="\n".join(lines) + "\n", units=0)


def enumerate_expected(n: int) -> Expectation:
    return Expectation(0, exact=f"{ordered_bell(n)}\n")


def counterexample_expected(n: int, golden: str) -> Expectation:
    """Golden bytes at 4 worlds; at more, the fixture header and a pass verdict."""
    if n == 4:
        return Expectation(0, exact=golden)
    sizes = (n - 3, 1, 1, 1)
    groups = [[f"w{g}{chr(ord('a') + j)}" for j in range(size)]
              for g, size in enumerate(sizes, start=1)]
    worlds = [w for group in groups for w in group]
    head = (f"counterexample: {n} worlds [{' '.join(worlds)}], "
            f"A = {{{' '.join(groups[0] + groups[1])}}}")
    return Expectation(0, head=head, tail=PASS_VERDICT)


def represent_expected(state_names) -> Expectation:
    lines = [f"{name}: recovered exactly" for name in state_names] + ["result: pass"]
    return Expectation(0, exact="\n".join(lines) + "\n")
