"""Command-line interface: revise, iterate, check, counterexample, enumerate,
represent, degrees.

Exit codes: 0 all checks pass, 1 a violation or witness was found, 2 usage or
input error, or output that cannot be written.  Output is deterministic:
stable orderings, no timestamps.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable

from .errors import InputError, ParseError
from .modelfile import MAX_MODEL_WORLDS, ModelFile, load_model, read_text, resolve_proposition
from .ranking import RankedModel, _format_blocks, rpm_from_ocf
from .revision import (
    Attitude,
    EpistemicInput,
    RevisionRule,
    _posterior,
    apply_rule,
    revise,
    rule_by_name,
)
from .verify import (
    DEFAULT_MAX_STRENGTH,
    CounterexampleReport,
    _check_strength_bound,
    check_agm,
    check_degree_conditions,
    check_iteration_axiom,
    check_order_preservation,
    check_reversibility,
    counterexample_fixture,
    counterexample_verify,
    enumerate_ranked_models,
    representation_check,
    revision_table,
)
from .worlds import Proposition, Universe, check_world_bound

# World bounds on what the command line takes: the default of --max-worlds and
# the largest --worlds of counterexample, then the largest --worlds of enumerate.
DEFAULT_CHECK_BOUND = 8
DEFAULT_ENUMERATION_BOUND = 6

_SCRIPT_LINE = re.compile(r"\s*(believe|disbelieve|suspend)\s+(.+?)(?:\s+(strength)\s+([0-9]+))?\s*")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankrev",
        description="Belief revision over finite possible worlds, with exhaustive axiom checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("revise", help="revise a ranked state by a proposition")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--state", required=True, help="name of a ranked state")
    p.add_argument("--rule", help="lex, natural, flip, or spohn:N (also prints the posterior)")
    p.add_argument("prop", help="proposition name or expression")

    p = sub.add_parser("iterate", help="run a script of attitude lines against a state")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("script", help="script file: believe/disbelieve/suspend EXPR [strength N]")

    p = sub.add_parser("check", help="run axiom checkers over the file's ranked states")
    p.add_argument("--model", required=True)
    p.add_argument("--state", help="restrict to one named state")
    p.add_argument("--rule", help="required for b9, b10, order, r")
    p.add_argument("--axioms", default="agm",
                   help="comma-separated: agm, b9, b10, order, degrees, r")
    p.add_argument("--max-strength", type=int, default=DEFAULT_MAX_STRENGTH)
    p.add_argument("--max-worlds", type=int, default=DEFAULT_CHECK_BOUND)

    p = sub.add_parser("counterexample",
                       help="verify that no rule satisfying B9/B10 can reverse both histories")
    p.add_argument("--worlds", type=int, default=4, help=f"4 to {DEFAULT_CHECK_BOUND}")
    p.add_argument("--max-strength", type=int, default=DEFAULT_MAX_STRENGTH)

    p = sub.add_parser("enumerate", help="count ranked models over n worlds")
    p.add_argument("--worlds", type=int, required=True)

    p = sub.add_parser("represent", help="recover each ranked state from its revision table")
    p.add_argument("--model", required=True)
    p.add_argument("--state")
    p.add_argument("--max-worlds", type=int, default=DEFAULT_CHECK_BOUND)

    p = sub.add_parser("degrees", help="degrees of disbelief for the file's propositions")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--max-worlds", type=int, default=DEFAULT_CHECK_BOUND)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = {
        "revise": _cmd_revise,
        "iterate": _cmd_iterate,
        "check": _cmd_check,
        "counterexample": _cmd_counterexample,
        "enumerate": _cmd_enumerate,
        "represent": _cmd_represent,
        "degrees": _cmd_degrees,
    }[args.command]
    try:
        if getattr(args, "max_worlds", 1) < 1:
            raise InputError(f"--max-worlds must be at least 1, got {args.max_worlds}")
        # A ranking has at most MAX_MODEL_WORLDS ranks, and any strength from a
        # model's block count up gives the same posterior.
        if getattr(args, "max_strength", 0) > MAX_MODEL_WORLDS:
            raise InputError(f"--max-strength must be at most {MAX_MODEL_WORLDS}, "
                             f"got {args.max_strength}")
        return handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The handlers' reads turn OSError into InputError, so this is a
        # write to stdout that failed: a closed pipe or a full device.
        return _unwritable(exc)


def run():
    """Process entry of ``rankrev`` and ``python -m rankrev.cli``: run :func:`main`,
    flush its output, and end the process at once.

    The process exits through ``os._exit``, skipping interpreter shutdown:
    module teardown and freeing every object cost a short job 10–20 ms and
    write nothing.  An output that cannot be flushed exits 2.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # else main() has already reported an error, maybe this one
            code = _unwritable(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


def _unwritable(exc: OSError) -> int:
    """Report output that cannot be written, on stderr if it is still writable; exit code 2."""
    try:
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
    except OSError:
        pass
    return 2


def _ranked_state(model_file: ModelFile, name: str) -> RankedModel:
    if name in model_file.rpms:
        return model_file.rpms[name]
    raise InputError(f"no ranked state named {name!r} in model file")


def _ranked_states(model_file: ModelFile, name: str | None) -> list[tuple[str, RankedModel]]:
    """The named ranked state, or else every one in the file."""
    states = [(name, _ranked_state(model_file, name))] if name else list(model_file.rpms.items())
    if not states:
        raise InputError("model file declares no ranked states")
    return states


def _cmd_revise(args) -> int:
    mf = load_model(args.model)
    state = _ranked_state(mf, args.state)
    prop = resolve_proposition(mf, args.prop)
    lines = [f"state {args.state} = {state}",
             f"revise by {prop}: content = {revise(state, prop)}"]
    if args.rule:
        rule = rule_by_name(args.rule)
        posterior = apply_rule(rule, state, EpistemicInput(prop, Attitude.BELIEVE))
        lines.append(f"posterior ({rule.name}) = {posterior}")
    print("\n".join(lines))
    return 0


def _parse_script(text: str, model_file: ModelFile, rule: RevisionRule) -> list[EpistemicInput]:
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _SCRIPT_LINE.fullmatch(line)
        if not m:
            raise ParseError("expected 'believe|disbelieve|suspend EXPR [strength N]'", line_no)
        attitude, prop_text, _, strength = m.groups()
        try:
            prop = resolve_proposition(model_file, prop_text)
        except ParseError as exc:
            raise ParseError(exc.message, line_no, m.start(2) + exc.column) from None
        if prop.is_empty or prop.is_full:
            raise ParseError("revision rules reject the contradiction and the tautology",
                             line_no, m.start(2) + 1)
        if strength and not rule.strength_based:
            raise ParseError("strength needs a strength-based rule (spohn:N)",
                             line_no, m.start(3) + 1)
        try:
            steps.append(EpistemicInput(prop, Attitude(attitude),
                                        int(strength) if strength else None))
        except InputError as exc:
            raise ParseError(str(exc), line_no, m.start(3) + 1) from None
    return steps


def _cmd_iterate(args) -> int:
    mf = load_model(args.model)
    state = _ranked_state(mf, args.state)
    rule = rule_by_name(args.rule)
    steps = _parse_script(read_text(args.script, "script"), mf, rule)
    # The script's inputs are over this universe and neither ⊥ nor ⊤, so the
    # rule runs on block masks with only its output checked, as in the checkers.
    universe = mf.universe
    blocks = state._masks
    lines = [f"state {args.state} = {state}"]
    for i, step in enumerate(steps, start=1):
        blocks = _posterior(rule, blocks, step)
        lines.append(f"step {i}: {step} -> {_format_blocks(universe, blocks)}")
    lines.append(f"final content = {universe.prop_from_mask(blocks[0])}")
    print("\n".join(lines))
    return 0


def _nondegenerate_props(model_file: ModelFile) -> list[tuple[str, Proposition]]:
    return [(name, p) for name, p in model_file.props.items()
            if not p.is_empty and not p.is_full]


def _cmd_check(args) -> int:
    _check_strength_bound(args.max_strength)
    axioms = [a.strip() for a in args.axioms.split(",") if a.strip()]
    bounded = any(a in ("agm", "b9", "b10", "degrees") for a in axioms)
    mf = load_model(args.model, args.max_worlds if bounded else None)
    known = ("agm", "b9", "b10", "order", "degrees", "r")
    if not axioms:
        raise InputError(f"no axioms given (expected one or more of {', '.join(known)})")
    for a in axioms:
        if a not in known:
            raise InputError(f"unknown axiom {a!r} (expected one of {', '.join(known)})")
    needs_rule = [a for a in axioms if a in ("b9", "b10", "order", "r")]
    rule = rule_by_name(args.rule) if args.rule else None
    if needs_rule and rule is None:
        raise InputError(f"--rule is required for {', '.join(needs_rule)}")
    states = _ranked_states(mf, args.state)
    props = _nondegenerate_props(mf)
    failures = 0
    for axiom in axioms:
        for name, state in states:
            failures += _run_check(axiom, name, state, rule, props, args)
    return _result(failures, "violation")


def _run_check(axiom: str, name: str, state: RankedModel, rule: RevisionRule | None,
               props: list[tuple[str, Proposition]], args) -> int:
    if axiom == "agm":
        report = check_agm(state)
        return _print_report(f"agm[{name}]", report)
    if axiom in ("b9", "b10"):
        report = check_iteration_axiom(rule, axiom.upper(), state)
        return _print_report(f"{axiom}[{name}]", report)
    if axiom == "degrees":
        report = check_degree_conditions(state)
        return _print_report(f"degrees[{name}]", report)
    if axiom == "order":
        cases = 0
        for prop_name, prop in props:
            report = check_order_preservation(rule, state, prop)
            cases += report.cases
            if not report.passed:
                print(f"order[{name}]: FAIL at {prop_name}")
                print(f"  {report.witness.description}")
                return 1
        print(f"order[{name}]: pass ({cases} cases)")
        return 0
    # axiom == "r": reversibility over every named proposition and attitude
    tried = 0
    for prop_name, prop in props:
        for attitude in Attitude:
            epistemic_input = EpistemicInput(prop, attitude)
            report = check_reversibility(rule, state, epistemic_input, args.max_strength)
            tried += report.cases
            if not report.passed:
                print(f"r[{name}]: FAIL — {attitude.value} {prop_name} is irreversible")
                print(f"  {report.witness.description}")
                return 1
    print(f"r[{name}]: pass ({tried} reversals tried)")
    return 0


def _print_report(label: str, report) -> int:
    if report.passed:
        print(f"{label}: pass ({report.cases} cases)")
        return 0
    print(f"{label}: FAIL")
    print(f"  {report.witness.description}")
    return 1


def _cmd_counterexample(args) -> int:
    if args.worlds < 4:
        raise InputError("the counterexample needs at least four worlds")
    check_world_bound(args.worlds, DEFAULT_CHECK_BOUND)
    sizes = (args.worlds - 3, 1, 1, 1)
    fixture = counterexample_fixture(sizes)
    report = counterexample_verify(fixture, args.max_strength)
    print(render_counterexample(report), end="")
    return 0 if report.passed else 1


def render_counterexample(report: CounterexampleReport) -> str:
    """The report's data and verdict; its conclusions only if it passed."""
    fx = report.fixture

    def names(model: RankedModel) -> list[str]:
        # Every fixture name the model equals: two fixture rankings may be equal.
        return [name for name in ("r1", "r2", "r3") if getattr(fx, name) == model]

    def conclude(line: str):
        if report.passed:
            lines.append(line)

    def tagged(model: RankedModel) -> str:
        tags = names(model)
        return f"{model}  (= {', '.join(tags)})" if tags else str(model)

    lines = [
        f"counterexample: {len(fx.universe.worlds)} worlds "
        f"[{' '.join(fx.universe.worlds)}], A = {fx.prop_a}",
        f"r1 = {fx.r1}",
        f"r2 = {fx.r2}",
        f"r3 = {fx.r3}",
        "",
        "successors allowed by B9/B10 order preservation:",
        "  believe A from r1:",
    ]
    lines += [f"    {tagged(m)}" for m in report.r1_believe]
    lines.append("  believe A from r2:")
    lines += [f"    {tagged(m)}" for m in report.r2_believe]
    conclude("  believing A forces both r1 and r2 onto r3")
    lines.append("  believe A from r3:")
    lines += [f"    {tagged(m)}" for m in report.r3_believe]
    lines.append("  suspend A from r3:")
    lines += [f"    {tagged(m)}" for m in report.r3_suspend]
    conclude("  neither belief nor suspension can restore r1 or r2")
    lines.append("  disbelieve A from r3:")
    lines += [f"    {tagged(m)}" for m in report.r3_disbelieve]
    conclude("  disbelief admits both r1 and r2, but a single-valued rule restores at most one")
    lines.append("")
    lines.append("rank-derived degrees do not help:" if report.passed else "rank-derived degrees:")
    lines.append(f"  d(A) = {report.degrees[0][0]}, d(~A) = {report.degrees[0][1]} in r1")
    lines.append(f"  d(A) = {report.degrees[1][0]}, d(~A) = {report.degrees[1][1]} in r2")
    conclude("  equal degrees: strength inputs cannot separate the two histories")
    lines.append("  conditionalizing r3 (read as ranks) on A by strength:")
    for beta, out in report.strength_outputs:
        lines.append(f"    {beta:+d} -> {tagged(out)}")
    hit = sorted({n for _, out in report.strength_outputs for n in names(out)} & {"r1", "r2"})
    conclude(f"  reaches {' and '.join(hit)} but never both r1 and r2" if hit
             else "  reaches neither r1 nor r2")
    lines.append("")
    if report.passed:
        lines.append("verdict: pass — no single-valued rule satisfying B9 and B10 "
                     "can reverse both histories")
    else:
        lines.append(f"verdict: FAIL — {report.witness.description}")
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> int:
    if args.worlds < 1:
        raise InputError("need at least one world")
    check_world_bound(args.worlds, DEFAULT_ENUMERATION_BOUND)
    universe = Universe(tuple(f"w{i + 1}" for i in range(args.worlds)))
    count = sum(1 for _ in enumerate_ranked_models(universe))
    print(count)
    return 0


def _cmd_represent(args) -> int:
    mf = load_model(args.model, args.max_worlds)
    states = _ranked_states(mf, args.state)
    failures = 0
    for name, state in states:
        recovered = representation_check(revision_table(state))
        if recovered == state:
            print(f"{name}: recovered exactly")
        else:
            failures += 1
            print(f"{name}: NOT recovered (got {recovered})")
    return _result(failures, "state")


def _result(failures: int, noun: str) -> int:
    """Print the closing ``result:`` line; the exit code is 1 on any failure."""
    if failures:
        print(f"result: FAIL ({failures} {noun}{'s' if failures != 1 else ''})")
        return 1
    print("result: pass")
    return 0


def _cmd_degrees(args) -> int:
    mf = load_model(args.model, args.max_worlds)
    if args.state in mf.rpms:
        state = mf.rpms[args.state]
        degree = state.disbelief_degree
        print(f"state {args.state} = {state}")
    elif args.state in mf.ocfs:
        ocf = mf.ocfs[args.state]
        state = rpm_from_ocf(ocf)
        degree = ocf.degree
        print(f"state {args.state} = {ocf}")
        print(f"as ranking = {state}")
    else:
        raise InputError(f"no state named {args.state!r} in model file")
    for name, prop in mf.props.items():
        print(_degree_line(degree, name, prop))
    report = check_degree_conditions(state)
    return _print_report("degree conditions", report)


def _degree_line(degree: Callable[[Proposition], int], name: str, prop: Proposition) -> str:
    if prop.is_empty:
        return f"d({name}) undefined (contradiction)"
    if prop.is_full:
        return f"d({name}) = 0, d(~{name}) undefined (tautology): {name} is believed"
    d = degree(prop)
    d_not = degree(prop.complement())
    if d > 0:
        verdict = "disbelieved"
    elif d_not > 0:
        verdict = "believed"
    else:
        verdict = "suspended"
    return f"d({name}) = {d}, d(~{name}) = {d_not}: {name} is {verdict}"


if __name__ == "__main__":
    run()
