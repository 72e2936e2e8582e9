"""Seeded inputs and job lists for the three workloads.

``build(workload, seed)`` returns the files to write and the jobs to run; the
same arguments always give byte-identical files.  A job's expected output is
computed separately by ``expect(job, golden)``, so input generation (timed
as part of set-up) does not include oracle work.

The seed changes the contents of every state, proposition and script, never
the shape of a job list: which subcommand, rule, file size and number of
blocks each position holds is fixed, so runs on different seeds do the same
kind and amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles

WORKLOADS = ("check-8w", "search-7w", "iterate-16w")

# Unit of work counted by work_per_cpu_s, per workload.
WORK_UNIT = {"check-8w": "checker cases", "search-7w": "jobs",
             "iterate-16w": "directives applied"}

CHECK_AXIOMS = ("agm", "b9", "b10", "order", "degrees", "r")
# (rule, block sizes of each state) for the files of one check-8w pass.  The
# checkers quantify over every proposition, so their cost depends on the
# block sizes and not on which worlds fill the blocks.
CHECK_FILES = (("lex", ((3, 2, 2, 1),)),
               ("natural", ((4, 3, 1), (1, 2, 1, 2, 1, 1))),
               ("spohn", ((2, 1, 3, 1, 1),)))
# (world count, block count of each state) for the represent files of search-7w.
REPRESENT_FILES = ((6, (6, 4)), (7, (7, 5)), (7, (7, 6)))
ITERATE_RULES = ("lex", "natural", "spohn")
ITERATE_FILES = 3
ITERATE_BLOCKS = (5, 8)            # block counts of the two states in each file
ITERATE_JOBS = 12
REVISE_JOBS = 4
SCRIPT_LENGTH = 256


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` follows ``python -m rankrev.cli``.

    ``oracle`` names an expected-output function in ``oracles`` and holds the
    plain data it needs.
    """

    argv: tuple[str, ...]
    oracle: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]
    jobs: tuple[Job, ...]


def build(workload: str, seed: int) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"rankrev-bench:{workload}:{seed}")
    files: dict[str, str] = {}
    jobs = {"check-8w": _check, "search-7w": _search, "iterate-16w": _iterate}[workload](
        rng, files)
    return Workload(workload, files, tuple(jobs))


def expect(job: Job, golden: str) -> oracles.Expectation:
    kind, *data = job.oracle
    if kind == "counterexample":
        return oracles.counterexample_expected(data[0], golden)
    return getattr(oracles, f"{kind}_expected")(*data)


# --- random states, propositions and expressions -----------------------------

def _ranks(rng: random.Random, n: int, k: int, pinned: int = 0) -> tuple[int, ...]:
    """A random ranked model with exactly k blocks.

    The first ``pinned`` worlds go to the last blocks, world 0 to the very
    last: this fixes where the model sits in the canonical scan order up to
    a 1/k^pinned share of its block-count level.
    """
    worlds = list(range(pinned)) + rng.sample(range(pinned, n), n - pinned)
    ranks = [0] * n
    for i, w in enumerate(worlds):
        if i < pinned:
            ranks[w] = k - 1 - i
        elif i < k:
            ranks[w] = i - pinned
        else:
            ranks[w] = rng.randrange(k)
    return tuple(ranks)


def _ranks_sized(rng: random.Random, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """A random ranked model with the given block sizes, most believable first."""
    worlds = rng.sample(range(sum(sizes)), sum(sizes))
    ranks = [0] * len(worlds)
    for r, size in enumerate(sizes):
        for w in worlds[:size]:
            ranks[w] = r
        worlds = worlds[size:]
    return tuple(ranks)


def _mask(rng: random.Random, n: int) -> int:
    return rng.randrange(1, (1 << n) - 1)


# Expression trees: ("atom", j) | ("~", x) | (op, left, right); op in & | ->.
_PREC = {"->": 0, "|": 1, "&": 2, "~": 3, "atom": 4}


def _tree(rng: random.Random, n_atoms: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return ("atom", rng.randrange(n_atoms))
    op = rng.choice(("~", "&", "&", "|", "|", "->"))
    if op == "~":
        return ("~", _tree(rng, n_atoms, depth - 1))
    return (op, _tree(rng, n_atoms, depth - 1), _tree(rng, n_atoms, depth - 1))


def _render(node, atoms, min_prec=0) -> str:
    """Minimal parentheses under ~ > & > | > ->, with -> right-associative."""
    op = node[0]
    if op == "atom":
        return atoms[node[1]]
    if op == "~":
        text = "~" + _render(node[1], atoms, 3)
    elif op == "->":
        text = f"{_render(node[1], atoms, 1)} -> {_render(node[2], atoms, 0)}"
    else:
        text = f"{_render(node[1], atoms, _PREC[op])} {op} {_render(node[2], atoms, _PREC[op])}"
    return f"({text})" if _PREC[op] < min_prec else text


def _eval(node, atom_masks, full) -> int:
    op = node[0]
    if op == "atom":
        return atom_masks[node[1]]
    if op == "~":
        return full ^ _eval(node[1], atom_masks, full)
    left, right = _eval(node[1], atom_masks, full), _eval(node[2], atom_masks, full)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    return (full ^ left) | right


def _atom_masks(atoms) -> list[int]:
    # Under ``worlds auto`` atom j is true at world i exactly when bit (n_atoms-1-j)
    # of i is clear: the first atom varies slowest, true first.
    k = len(atoms)
    return [sum(1 << i for i in range(2 ** k) if not i >> (k - 1 - j) & 1) for j in range(k)]


def _expression(rng: random.Random, atoms, depth: int) -> tuple[str, int]:
    """A random non-degenerate expression and the mask it denotes under ``worlds auto``."""
    full = (1 << 2 ** len(atoms)) - 1
    masks = _atom_masks(atoms)
    while True:
        node = _tree(rng, len(atoms), depth)
        mask = _eval(node, masks, full)
        if 0 < mask < full:
            return _render(node, atoms), mask


def _world_set(rng: random.Random, labels, mask: int) -> str:
    names = [labels[i] for i in oracles.members(mask, len(labels))]
    rng.shuffle(names)
    return "{ " + " ".join(names) + " }"


def _rule(rng: random.Random, kind: str) -> tuple:
    return ("spohn", rng.randint(1, 3)) if kind == "spohn" else (kind,)


def _auto_file(atoms, props, states, labels) -> str:
    lines = ["atoms " + " ".join(atoms), "worlds auto"]
    lines += [f"prop {name} = {text}" for name, text in props]
    lines += [f"rpm {name} = {oracles.fmt_model(labels, ranks)}" for name, ranks in states]
    return "\n".join(lines) + "\n"


# --- the workloads -------------------------------------------------------------

def _check(rng: random.Random, files: dict[str, str]) -> list[Job]:
    atoms = ("A", "B", "C")
    labels = oracles.auto_labels(atoms)
    jobs = []
    for f, (kind, shapes) in enumerate(CHECK_FILES, start=1):
        rule = _rule(rng, kind)
        states = [(f"s{i}", _ranks_sized(rng, sizes)) for i, sizes in enumerate(shapes, start=1)]
        p_text, p_mask = _expression(rng, atoms, 3)
        q_mask = _mask(rng, 8)
        props = [("p", p_mask), ("q", q_mask)]
        path = f"check{f}.bel"
        files[path] = _auto_file(atoms, [("p", p_text), ("q", _world_set(rng, labels, q_mask))],
                                 states, labels)
        # One job per state: a pass holds more, shorter invocations.
        for state in states:
            argv = ("check", "--model", path, "--state", state[0],
                    "--rule", oracles.rule_name(rule), "--axioms", ",".join(CHECK_AXIOMS),
                    "--max-worlds", "8", "--max-strength", str(oracles.MAX_STRENGTH))
            jobs.append(Job(argv, ("check", labels, (state,), tuple(props), rule,
                                   CHECK_AXIOMS)))
    return jobs


def _search(rng: random.Random, files: dict[str, str]) -> list[Job]:
    jobs = [Job(("counterexample", "--worlds", str(n)), ("counterexample", n))
            for n in (4, 5, 6)]
    jobs.append(Job(("enumerate", "--worlds", "6"), ("enumerate", 6)))
    valuations = oracles.auto_labels(("A", "B", "C"))
    for f, (n, blocks) in enumerate(REPRESENT_FILES, start=1):
        labels = rng.sample(valuations, n)
        lines = ["atoms A B C"]
        for label in labels:
            body = " ".join(f"{a}={'true' if c.isupper() else 'false'}"
                            for a, c in zip("ABC", label))
            lines.append(f"world {label} {{ {body} }}")
        # represent scans the canonical order up to the state: pin the first
        # two worlds so a seed moves that point, and the cost, little.
        names = []
        for i, k in enumerate(blocks, start=1):
            ranks = _ranks(rng, n, k, pinned=2)
            names.append(f"s{i}")
            lines.append(f"rpm s{i} = {oracles.fmt_model(labels, ranks)}")
        path = f"represent{f}.bel"
        files[path] = "\n".join(lines) + "\n"
        jobs.append(Job(("represent", "--model", path, "--max-worlds", "7"),
                        ("represent", tuple(names))))
    return jobs


def _iterate(rng: random.Random, files: dict[str, str]) -> list[Job]:
    atoms = ("A", "B", "C", "D")
    labels = oracles.auto_labels(atoms)
    models = []
    for f in range(1, ITERATE_FILES + 1):
        states = [(f"s{i}", _ranks(rng, 16, k)) for i, k in enumerate(ITERATE_BLOCKS, start=1)]
        prop_text, props = [], []
        for j in range(1, 4):
            if j < 3:
                text, mask = _expression(rng, atoms, 3)
            else:
                mask = _mask(rng, 16)
                text = _world_set(rng, labels, mask)
            prop_text.append((f"p{j}", text))
            props.append((f"p{j}", mask))
        path = f"model{f}.bel"
        files[path] = _auto_file(atoms, prop_text, states, labels)
        models.append((path, states, props))
    jobs = []
    for i in range(ITERATE_JOBS):
        path, states, props = models[(i // len(ITERATE_RULES)) % ITERATE_FILES]
        state_name, ranks = states[i % len(states)]
        rule = _rule(rng, ITERATE_RULES[i % len(ITERATE_RULES)])
        lines, steps = [], []
        for _ in range(SCRIPT_LENGTH):
            attitude = rng.choice(oracles.ATTITUDES)
            if rng.random() < 0.5:
                text, mask = rng.choice(props)
            else:
                text, mask = _expression(rng, atoms, 3)
            # strength only with spohn: lex and natural would ignore it.
            strength = None
            if rule[0] == "spohn" and attitude != "suspend" and rng.random() < 0.5:
                strength = rng.randint(1, 3)
            lines.append(f"{attitude} {text}" + (f" strength {strength}" if strength else ""))
            steps.append((attitude, mask, strength))
        script = f"script{i + 1}.txt"
        files[script] = "\n".join(lines) + "\n"
        argv = ("iterate", "--model", path, "--state", state_name,
                "--rule", oracles.rule_name(rule), script)
        jobs.append(Job(argv, ("iterate", labels, state_name, ranks, rule, tuple(steps))))
    for i in range(REVISE_JOBS):
        path, states, _ = models[i % ITERATE_FILES]
        state_name, ranks = states[(i // ITERATE_FILES) % len(states)]
        rule = _rule(rng, ITERATE_RULES[(i // ITERATE_FILES) % len(ITERATE_RULES)])
        text, mask = _expression(rng, atoms, 3)
        argv = ("revise", "--model", path, "--state", state_name,
                "--rule", oracles.rule_name(rule), text)
        jobs.append(Job(argv, ("revise", labels, state_name, ranks, rule, mask)))
    # One revise job after every few iterate jobs.
    per = ITERATE_JOBS // REVISE_JOBS
    ordered = []
    for i, job in enumerate(jobs[:ITERATE_JOBS]):
        ordered.append(job)
        if i % per == per - 1:
            ordered.append(jobs[ITERATE_JOBS + i // per])
    return ordered
