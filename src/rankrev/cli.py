"""Command-line interface: revise, iterate, check, counterexample, enumerate,
represent, degrees.

Exit codes: 0 all checks pass, 1 a violation or witness was found, 2 usage or
input error, or output that cannot be written.  Output is deterministic:
stable orderings, no timestamps.  :func:`main` collects a command's stdout,
``--help`` included, and writes it once when the command ends; a closed
stdout, a pipe with no reader or a full device exits 2 with one line on
stderr.  :func:`run` is :func:`main` plus ``os._exit``.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import re
import sys
from collections.abc import Callable
from contextlib import redirect_stdout, suppress
from types import SimpleNamespace

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
    _count_ranked_models,
    check_agm,
    check_degree_conditions,
    check_iteration_axiom,
    check_order_preservation,
    check_reversibility,
    counterexample_fixture,
    counterexample_verify,
    enumerate_ranked_models,  # unused here, but perfbench/tracing.py patches it on cli
    representation_check,
    revision_table,
)
from .worlds import Proposition, check_world_bound

# The world bound on what the command line takes: the default of --max-worlds
# and the largest --worlds of counterexample and of enumerate.
DEFAULT_CHECK_BOUND = 8


# check's axioms, in --help order, which _axiom_reports runs: whether each
# needs --rule, whether --max-worlds bounds the file (its checker walks every
# proposition), and what its pass line counts.
_AXIOMS = {
    "agm": SimpleNamespace(needs_rule=False, bounded=True, noun="cases"),
    "b9": SimpleNamespace(needs_rule=True, bounded=True, noun="cases"),
    "b10": SimpleNamespace(needs_rule=True, bounded=True, noun="cases"),
    "order": SimpleNamespace(needs_rule=True, bounded=False, noun="cases"),
    "degrees": SimpleNamespace(needs_rule=False, bounded=True, noun="cases"),
    "r": SimpleNamespace(needs_rule=True, bounded=False, noun="reversals tried"),
}

_SCRIPT_LINE = re.compile(r"\s*(believe|disbelieve|suspend)\s+(.+?)(?:\s+(strength)\s+([0-9]+))?\s*")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankrev",
        description="Belief revision over finite possible worlds, with exhaustive axiom checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("revise", help="revise a ranked state by a proposition")
    p.set_defaults(handler=_cmd_revise)
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--state", required=True, help="name of a ranked state")
    p.add_argument("--rule", help="lex, natural, flip, or spohn:N (also prints the posterior)")
    p.add_argument("prop", help="proposition name or expression")

    p = sub.add_parser("iterate", help="run a script of attitude lines against a state")
    p.set_defaults(handler=_cmd_iterate)
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("script", help="script file: believe/disbelieve/suspend EXPR [strength N]")

    p = sub.add_parser("check", help="run axiom checkers over the file's ranked states")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("--model", required=True)
    p.add_argument("--state", help="restrict to one named state")
    p.add_argument("--rule", help="required for "
                   + ", ".join(a for a, axiom in _AXIOMS.items() if axiom.needs_rule))
    p.add_argument("--axioms", default="agm", help=f"comma-separated: {', '.join(_AXIOMS)}")
    p.add_argument("--max-strength", type=int, default=DEFAULT_MAX_STRENGTH)
    p.add_argument("--max-worlds", type=int, default=DEFAULT_CHECK_BOUND)

    p = sub.add_parser("counterexample",
                       help="verify that no rule satisfying B9/B10 can reverse both histories")
    p.set_defaults(handler=_cmd_counterexample)
    p.add_argument("--worlds", type=int, default=4, help=f"3 to {DEFAULT_CHECK_BOUND}")

    p = sub.add_parser("enumerate", help="count ranked models over n worlds")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("--worlds", type=int, required=True, help=f"1 to {DEFAULT_CHECK_BOUND}")

    p = sub.add_parser("represent", help="recover each ranked state from its revision table")
    p.set_defaults(handler=_cmd_represent)
    p.add_argument("--model", required=True)
    p.add_argument("--state")
    p.add_argument("--max-worlds", type=int, default=DEFAULT_CHECK_BOUND)

    p = sub.add_parser("degrees", help="degrees of disbelief for the file's propositions")
    p.set_defaults(handler=_cmd_degrees)
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--max-worlds", type=int, default=DEFAULT_CHECK_BOUND)
    return parser


def main(argv=None) -> int:
    """Run one command in this process, write its stdout once, and return the exit code."""
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            args = build_parser().parse_args(argv)
            if getattr(args, "max_worlds", 1) < 1:
                raise InputError(f"--max-worlds must be at least 1, got {args.max_worlds}")
            code = args.handler(args)
        except SystemExit as exc:  # argparse, after --help or a usage error
            code = exc.code if isinstance(exc.code, int) else 2
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    if not out.tell():  # nothing to write, so a closed stdout is no error
        return code
    try:
        if sys.stdout is None:  # fd 1 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except (OSError, ValueError) as exc:  # ValueError: a closed stream
        with suppress(OSError, ValueError):
            print(f"error: cannot write output: {getattr(exc, 'strerror', None) or exc}",
                  file=sys.stderr)
        return 2
    return code


def run():
    """Process entry of ``rankrev`` and ``python -m rankrev.cli``: run :func:`main`,
    flush stderr, and end the process at once.

    The process exits through ``os._exit``, skipping interpreter shutdown:
    module teardown and freeing every object cost a short job 10–20 ms and
    write nothing.
    """
    code = main()
    with suppress(OSError):
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


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
    # A ranking has at most MAX_MODEL_WORLDS ranks, and any strength from a
    # model's block count up gives the same posterior.
    if args.max_strength > MAX_MODEL_WORLDS:
        raise InputError(f"--max-strength must be at most {MAX_MODEL_WORLDS}, "
                         f"got {args.max_strength}")
    _check_strength_bound(args.max_strength)
    # Each axiom runs once, in order of first mention.
    axioms = list(dict.fromkeys(a.strip() for a in args.axioms.split(",") if a.strip()))
    bounded = any(_AXIOMS[a].bounded for a in axioms if a in _AXIOMS)
    mf = load_model(args.model, args.max_worlds if bounded else None)
    known = ", ".join(_AXIOMS)
    if not axioms:
        raise InputError(f"no axioms given (expected one or more of {known})")
    for a in axioms:
        if a not in _AXIOMS:
            raise InputError(f"unknown axiom {a!r} (expected one of {known})")
    needs_rule = [a for a in axioms if _AXIOMS[a].needs_rule]
    rule = rule_by_name(args.rule) if args.rule else None
    if needs_rule and rule is None:
        raise InputError(f"--rule is required for {', '.join(needs_rule)}")
    states = _ranked_states(mf, args.state)
    props = _nondegenerate_props(mf)
    failures = 0
    for axiom in axioms:
        for name, state in states:
            reports = _axiom_reports(axiom, state, rule, props, args.max_strength)
            failures += _print_reports(f"{axiom}[{name}]", reports, _AXIOMS[axiom].noun)
    return _result(failures, "violation")


def _axiom_reports(axiom: str, state: RankedModel, rule: RevisionRule | None,
                   props: list[tuple[str, Proposition]], max_strength: int):
    """``(FAIL-line suffix, report)`` pairs of one axiom on one state, in print order.

    Each checker is looked up when it runs: perfbench/tracing.py patches them here.
    """
    if axiom == "order":
        for prop_name, prop in props:
            yield f" at {prop_name}", check_order_preservation(rule, state, prop)
    elif axiom == "r":
        for prop_name, prop in props:
            for attitude in Attitude:
                report = check_reversibility(rule, state, EpistemicInput(prop, attitude),
                                             max_strength)
                yield f" — {attitude.value} {prop_name} is irreversible", report
    elif axiom == "agm":
        yield "", check_agm(state)
    elif axiom == "degrees":
        yield "", check_degree_conditions(state)
    else:  # b9 or b10
        yield "", check_iteration_axiom(rule, axiom.upper(), state)


def _print_reports(label: str, reports, noun: str = "cases") -> int:
    """Print one pass line with the summed cases and return 0, or the first
    failure's FAIL line and witness, drawing no later report, and return 1."""
    cases = 0
    for suffix, report in reports:
        cases += report.cases
        if not report.passed:
            print(f"{label}: FAIL{suffix}")
            print(f"  {report.witness.description}")
            return 1
    print(f"{label}: pass ({cases} {noun})")
    return 0


def _cmd_counterexample(args) -> int:
    check_world_bound(args.worlds, DEFAULT_CHECK_BOUND)
    report = counterexample_verify(counterexample_fixture(args.worlds))
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
    check_world_bound(args.worlds, DEFAULT_CHECK_BOUND)
    print(_count_ranked_models(args.worlds))
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
    return _print_reports("degree conditions", [("", check_degree_conditions(state))])


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
