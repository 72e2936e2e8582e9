"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines and timings.
"""

import math
import time
from itertools import product
from pathlib import Path

import rankrev as rr
from rankrev import Attitude, EpistemicInput
from rankrev.cli import main, render_counterexample

from conftest import ALL_MODELS_4, ALL_MODELS_5, PROP_A, R1, R2, R3, U4

FIXTURE = str(Path(__file__).parent / "data" / "fixture.bel")
GOLDEN = Path(__file__).parent / "golden" / "counterexample.txt"


def _report(criterion, ok, detail):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {criterion} failed: {detail}"


def test_criterion_1_agm_soundness_exhaustive():
    start = time.perf_counter()
    cases = 0
    ok = True
    for model in ALL_MODELS_5:
        report = rr.check_agm(model)
        cases += report.cases
        ok = ok and report.passed and report.cases == 32 + 1024
    elapsed = time.perf_counter() - start
    _report("1 (single-step axioms on all 541 five-world models)",
            ok and elapsed < 1.0, f"{cases} cases in {elapsed:.2f}s")


def test_criterion_2_counterexample_reproduction():
    start = time.perf_counter()
    standard = rr.counterexample_verify()
    fx = standard.fixture
    forced = standard.r1_believe == standard.r2_believe == (fx.r3,)
    no_return = all(
        m not in standard.r3_believe + standard.r3_suspend for m in (fx.r1, fx.r2))
    both_disbelieve = fx.r1 in standard.r3_disbelieve and fx.r2 in standard.r3_disbelieve
    generalized = rr.counterexample_verify(rr.counterexample_fixture((2, 1, 1, 1)))
    elapsed = time.perf_counter() - start
    ok = (standard.passed and forced and no_return and both_disbelieve
          and generalized.passed and elapsed < 1.0)
    _report("2 (counterexample, 4-world and 5-world fixtures)", ok,
            f"forced={forced}, no belief/suspension return={no_return}, "
            f"both via disbelief={both_disbelieve}, {elapsed:.2f}s")


def test_criterion_3_rule_space_theorem():
    start = time.perf_counter()
    ok = True
    details = []
    for rule in (rr.lexicographic_rule, rr.natural_rule):
        iter_cases = 0
        for model in ALL_MODELS_4:
            for axiom in ("B9", "B10"):
                report = rr.check_iteration_axiom(rule, axiom, model)
                iter_cases += report.cases
                ok = ok and report.passed
            for mask in range(1, 15):
                order = rr.check_order_preservation(rule, model, U4.prop_from_mask(mask))
                ok = ok and order.passed
        witness = rr.find_irreversibility(rule, U4)
        ok = ok and witness is not None
        # the witness replays: no attitude on the same proposition reverses it
        revised = rr.apply_rule(rule, witness.model, witness.epistemic_input)
        undone = [
            rr.apply_rule(rule, revised,
                          EpistemicInput(witness.epistemic_input.proposition, att))
            for att in Attitude
        ]
        ok = ok and all(back != witness.model for back in undone)
        details.append(f"{rule.name}: {iter_cases} iteration cases, witness "
                       f"({witness.model}, {witness.epistemic_input})")
    flip_report = rr.check_iteration_axiom(rr.flip_rule, "B10", R2)
    ok = ok and not flip_report.passed and flip_report.witness is not None
    elapsed = time.perf_counter() - start
    _report("3 (B9/B10 + order preservation + irreversibility witnesses)",
            ok and elapsed < 5.0, "; ".join(details) + f"; flip fails B10; {elapsed:.2f}s")


def test_criterion_4_degrees():
    start = time.perf_counter()
    ok = all(rr.check_degree_conditions(m).passed for m in ALL_MODELS_5)
    ok = ok and R1.disbelief_degree(PROP_A) == 1 and R2.disbelief_degree(PROP_A) == 1
    not_a = PROP_A.complement()
    ok = ok and R1.disbelief_degree(not_a) == 0 and R2.disbelief_degree(not_a) == 0
    base = rr.ocf_from_rpm(R3)
    reached = set()
    for beta in range(-3, 4):
        out = rr.rpm_from_ocf(rr.spohn_conditionalize(base, PROP_A, beta))
        reached |= {m for m in (R1, R2) if out == m}
    ok = ok and len(reached) <= 1
    elapsed = time.perf_counter() - start
    _report("4 (degree conditions on all 541 five-world models; "
            "strengths reach at most one start)",
            ok, f"d(A)=1, d(~A)=0 on both starts; reached {len(reached)} of "
                f"{{r1, r2}}; {elapsed:.2f}s")


def test_criterion_5_spohn_reversibility_exhaustive():
    start = time.perf_counter()
    checked = 0
    ok = True
    for values in product(range(4), repeat=4):
        if min(values) != 0:
            continue
        ocf = rr.OCF(U4, values)
        for mask in range(1, 15):
            prop = U4.prop_from_mask(mask)
            beta = rr.reverse_strength(ocf, prop)
            for alpha in range(-3, 4):
                checked += 1
                conditioned = rr.spohn_conditionalize(ocf, prop, alpha)
                ok = ok and rr.spohn_conditionalize(conditioned, prop, beta) == ocf
    elapsed = time.perf_counter() - start
    _report("5 (conditionalize-then-reverse restores every bounded OCF)",
            ok and elapsed < 5.0, f"{checked} steps, 100% restored, {elapsed:.2f}s")


def test_criterion_6_enumeration_counts():
    def ordered_bell(n):
        if n == 0:
            return 1
        return sum(math.comb(n, k) * ordered_bell(n - k) for k in range(1, n + 1))

    counts = [
        sum(1 for _ in rr.enumerate_ranked_models(
            rr.Universe(tuple(f"w{i}" for i in range(n)))))
        for n in range(1, 6)
    ]
    ok = counts == [ordered_bell(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    _report("6 (enumeration counts match the recursion)", ok, f"counts={counts}")


def test_criterion_7_representation_round_trip():
    start = time.perf_counter()
    ok = all(
        rr.representation_check(rr.revision_table(model)) == model
        for model in ALL_MODELS_4
    )
    corrupted = dict(rr.revision_table(R2))
    corrupted[U4.prop("ab")] = rr.TotalContent(U4.prop("aB"))  # content outside the input
    ok = ok and rr.representation_check(corrupted) is None
    elapsed = time.perf_counter() - start
    _report("7 (all 75 revision tables recovered; corrupted table rejected)",
            ok, f"{elapsed:.2f}s")


def test_criterion_8_parser_and_cli(capsys):
    atoms = ("A", "B")
    denotes = rr.parse_expression("A & ~B", atoms).denotation(U4) == U4.prop("Ab")
    denotes = denotes and rr.parse_expression("~(A | B)", atoms).denotation(U4) == U4.prop("ab")
    denotes = denotes and (rr.parse_expression("A -> B", atoms).denotation(U4)
                           == U4.prop("AB", "aB", "ab"))
    try:
        rr.parse_model("atoms A B\nworlds auto\nrpm bad = [AB Ab] [Ab aB ab]\n")
        load_errors = False
    except rr.ParseError as exc:
        load_errors = "not a partition" in str(exc)
    code = main(["counterexample"])
    out = capsys.readouterr().out
    golden = out == GOLDEN.read_text(encoding="utf-8")
    golden = golden and out == render_counterexample(rr.counterexample_verify())
    exit_codes = (code == 0
                  and main(["check", "--model", FIXTURE, "--rule", "lex",
                            "--axioms", "r"]) == 1
                  and main(["check", "--model", FIXTURE, "--axioms", "b9"]) == 2)
    capsys.readouterr()
    ok = denotes and load_errors and golden and exit_codes
    _report("8 (expression denotations, load diagnostics, byte-exact report, exit codes)",
            ok, f"denotations={denotes}, load errors={load_errors}, "
                f"golden bytes={golden}, exit codes={exit_codes}")
