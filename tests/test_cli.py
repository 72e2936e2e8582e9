"""Command dispatch, exit codes, and golden output."""

import errno
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rankrev
from rankrev.cli import main

ROOT = Path(__file__).parents[1]
FIXTURE = str(Path(__file__).parent / "data" / "fixture.bel")
FIVE_ATOMS = str(Path(__file__).parent / "data" / "five-atoms.bel")
GOLDEN = Path(__file__).parent / "golden" / "counterexample.txt"
# ``counterexample --worlds N`` output; the default (4 worlds) keeps the plain name.
GOLDENS = {n: GOLDEN.with_name(f"counterexample-{n}.txt") for n in (3, 5, 6, 7, 8)} | {4: GOLDEN}
FOUR_ATOM_FILE = str(Path(__file__).parent / "data" / "four-atoms.bel")
SCRIPT = Path(__file__).parent / "data" / "iterate-script.txt"
STRENGTH_SCRIPT = Path(__file__).parent / "data" / "iterate-script-strength.txt"
# ``iterate --rule R`` on state s of the 4-atom file: golden name, rule, script.
ITERATE_GOLDENS = [("lex", "lex", SCRIPT), ("natural", "natural", SCRIPT),
                   ("flip", "flip", SCRIPT), ("spohn-2", "spohn:2", STRENGTH_SCRIPT)]
# Every axiom of ``check`` on the fixture under each built-in rule (each finds a
# violation), and ``degrees`` on its OCF state: golden name, argv, exit code.
CHECK_GOLDENS = [(f"check-{rule.replace(':', '-')}",
                  ("check", "--model", FIXTURE, "--axioms", "agm,b9,b10,order,degrees,r",
                   "--rule", rule), 1) for rule in ("lex", "natural", "flip", "spohn:1")]
CHECK_GOLDENS.append(("degrees-k1", ("degrees", "--model", FIXTURE, "--state", "k1"), 0))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child Python that imports this checkout's rankrev.

    Its stdout is block-buffered, as under a plain shell, whatever this
    process's ``PYTHONUNBUFFERED`` says.
    """
    src = str(Path(rankrev.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return env


# ``rankrev.cli.run()`` in a child process, under an exit hook that reports on
# stderr whether interpreter shutdown ran.
_RUN = ("import atexit, sys, rankrev.cli\n"
        "atexit.register(lambda: print('interpreter shutdown ran', file=sys.stderr))\n"
        "rankrev.cli.run()\n")


def run_process(*argv, env=None, **kwargs):
    """Run the command line in a child process; stderr is captured as text."""
    return subprocess.run([sys.executable, "-c", _RUN, *argv],
                          env=child_env() if env is None else env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


def closing(fd: int):
    """A ``preexec_fn`` that starts the child with ``fd`` closed, as ``N>&-`` in a shell."""
    return lambda: os.close(fd)


# The child's stdout written through at once, as under ``PYTHONUNBUFFERED=1``.
UNBUFFERED = {**child_env(), "PYTHONUNBUFFERED": "1"}


def long_script(tmp_path, rule: str) -> Path:
    """A 256-step script cycling the strength script's directives; strengths only for spohn."""
    directives = [line for line in STRENGTH_SCRIPT.read_text(encoding="utf-8").splitlines()
                  if line and not line.startswith("#")]
    if not rule.startswith("spohn"):
        directives = [line.split(" strength")[0] for line in directives]
    path = tmp_path / "long.txt"
    path.write_text("\n".join(directives[i % len(directives)] for i in range(256)) + "\n",
                    encoding="utf-8")
    return path


def test_enumerate(capsys, monkeypatch):
    # The count is computed, not walked: no ranked model is built.
    def refuse(*args, **kwargs):
        raise AssertionError("built or walked a ranked model")

    monkeypatch.setattr(rankrev.RankedModel, "__init__", refuse)
    monkeypatch.setattr(rankrev.verify, "enumerate_ranked_models", refuse)
    monkeypatch.setattr(rankrev.cli, "enumerate_ranked_models", refuse)
    code, out, _ = run(capsys, "enumerate", "--worlds", "4")
    assert code == 0
    assert out == "75\n"
    assert run(capsys, "enumerate", "--worlds", "5")[1] == "541\n"
    assert run(capsys, "enumerate", "--worlds", "6") == (0, "4683\n", "")
    assert run(capsys, "enumerate", "--worlds", "7") == (0, "47293\n", "")
    assert run(capsys, "enumerate", "--worlds", "8") == (0, "545835\n", "")


def test_enumerate_over_bound(capsys):
    assert run(capsys, "enumerate", "--worlds", "9") == (
        2, "", "error: universe has 9 worlds, over the bound of 8\n")
    assert run(capsys, "enumerate", "--worlds", "0") == (2, "", "error: need at least one world\n")


def test_revise(capsys):
    code, out, _ = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", "A")
    assert code == 0
    assert "state r1 = [aB] [AB Ab ab]" in out
    assert "revise by {AB Ab}: content = {AB Ab}" in out


def test_revise_with_rule(capsys):
    code, out, _ = run(capsys, "revise", "--model", FIXTURE, "--state", "r1",
                       "--rule", "lex", "A")
    assert code == 0
    assert "posterior (lex) = [AB Ab] [aB] [ab]" in out


def test_revise_rule_error_prints_nothing(capsys):
    # revision alone accepts the tautology, but the rules reject it
    code, out, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1",
                         "--rule", "lex", "A | ~A")
    assert code == 2
    assert out == ""
    assert err == "error: revision rules reject the contradiction and the tautology\n"


def test_revise_accepts_expressions(capsys):
    code, out, _ = run(capsys, "revise", "--model", FIXTURE, "--state", "r2", "A & ~B")
    assert code == 0
    assert "revise by {Ab}" in out


def test_check_lexicographic_reversibility_fails(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "lex",
                       "--axioms", "agm,b9,b10,r")
    assert code == 1
    assert "agm[r1]: pass (272 cases)" in out
    assert "b9[r1]: pass" in out and "b10[r3]: pass" in out
    # the first reversibility failure is believing A at r1
    assert "r[r1]: FAIL — believe A is irreversible" in out
    assert "result: FAIL" in out


def test_check_passes_for_good_axioms(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "natural",
                       "--axioms", "agm,b9,b10,order,degrees")
    assert code == 0
    assert out.strip().endswith("result: pass")


def test_check_flip_fails_b10(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "flip",
                       "--axioms", "b10", "--state", "r2")
    assert code == 1
    assert "b10[r2]: FAIL" in out


def test_check_b9_b10_under_flip_is_byte_exact(capsys):
    # Axiom-major: every state's B9, then every state's B10.  B10 reads the
    # posteriors B9 stored on the same state, and no other state's.
    code, out, err = run(capsys, "check", "--model", FIXTURE, "--rule", "flip",
                         "--axioms", "b9,b10")
    assert (code, err) == (1, "")
    assert out == (
        "b9[r1]: pass (50 cases)\n"
        "b9[r2]: pass (50 cases)\n"
        "b9[r3]: pass (50 cases)\n"
        "b10[r1]: FAIL\n"
        "  B10 violated: believe {AB} then revise by {Ab aB ab} gives {Ab ab}, expected {aB}\n"
        "b10[r2]: FAIL\n"
        "  B10 violated: believe {AB} then revise by {Ab aB ab} gives {ab}, expected {aB}\n"
        "b10[r3]: FAIL\n"
        "  B10 violated: believe {AB} then revise by {Ab aB ab} gives {ab}, expected {Ab}\n"
        "result: FAIL (3 violations)\n")


def test_check_requires_rule(capsys):
    code, _, err = run(capsys, "check", "--model", FIXTURE, "--axioms", "b9")
    assert code == 2
    assert "--rule is required" in err


def test_check_runs_a_repeated_axiom_once(capsys):
    assert run(capsys, "check", "--model", FIXTURE, "--axioms", "agm,agm", "--state", "r1") == (
        0, "agm[r1]: pass (272 cases)\nresult: pass\n", "")
    assert run(capsys, "check", "--model", FIXTURE, "--axioms", "b9,agm,b9,b10") == (
        2, "", "error: --rule is required for b9, b10\n")


def test_check_unknown_axiom(capsys):
    code, _, err = run(capsys, "check", "--model", FIXTURE, "--axioms", "b11")
    assert code == 2
    assert "unknown axiom" in err


@pytest.mark.parametrize("axioms", ["", ",", " , "], ids=["empty", "comma", "spaced-comma"])
def test_check_without_axioms_is_input_error(capsys, axioms):
    code, out, err = run(capsys, "check", "--model", FIXTURE, "--axioms", axioms)
    assert code == 2
    assert out == ""
    assert err == ("error: no axioms given "
                   "(expected one or more of agm, b9, b10, order, degrees, r)\n")


def test_check_flip_fails_order(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "flip",
                       "--axioms", "order")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "order[r1]: FAIL at A"
    assert lines[1] == ("  order within a side of {AB Ab} not preserved: "
                        "aB vs ab was first, now second")
    assert lines[-1] == "result: FAIL (3 violations)"


def test_counterexample_golden_bytes(capsys):
    assert run(capsys, "counterexample") == (0, GOLDEN.read_text(encoding="utf-8"), "")
    for worlds, golden in GOLDENS.items():
        code, out, err = run(capsys, "counterexample", "--worlds", str(worlds))
        assert (code, out, err) == (0, golden.read_text(encoding="utf-8"), ""), worlds


def test_counterexample_is_deterministic(capsys):
    first = run(capsys, "counterexample")
    second = run(capsys, "counterexample")
    assert first == second


def test_counterexample_generalized(capsys):
    code, out, _ = run(capsys, "counterexample", "--worlds", "5")
    assert code == 0
    assert "5 worlds" in out
    assert "verdict: pass" in out


@pytest.mark.parametrize("worlds", [7, 8])
def test_counterexample_up_to_the_check_bound(capsys, worlds):
    code, out, err = run(capsys, "counterexample", "--worlds", str(worlds))
    assert (code, err) == (0, "")
    assert out.startswith(f"counterexample: {worlds} worlds ")
    assert out.splitlines()[-1].startswith("verdict: pass")


@pytest.mark.parametrize("worlds, err", [
    ("2", "error: the counterexample needs at least three worlds\n"),
    ("9", "error: universe has 9 worlds, over the bound of 8\n"),
    ("100000000", "error: universe has 100000000 worlds, over the bound of 8\n")])
def test_counterexample_world_count_out_of_range(capsys, monkeypatch, worlds, err):
    # Over the bound the fixture is never called; under three worlds it
    # refuses the count before it builds a universe.
    monkeypatch.setattr(rankrev.Universe, "__init__", _refuse)
    if worlds != "2":
        monkeypatch.setattr(rankrev.cli, "counterexample_fixture", _refuse)
    assert run(capsys, "counterexample", "--worlds", worlds) == (2, "", err)


def test_counterexample_takes_no_max_strength(capsys):
    code, out, err = run(capsys, "counterexample", "--max-strength", "3")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --max-strength 3\n")


def test_represent(capsys):
    code, out, _ = run(capsys, "represent", "--model", FIXTURE)
    assert code == 0
    assert out.splitlines()[:3] == [
        "r1: recovered exactly",
        "r2: recovered exactly",
        "r3: recovered exactly",
    ]


def test_represent_reports_a_state_it_cannot_recover(capsys, monkeypatch):
    monkeypatch.setattr(rankrev.cli, "representation_check", lambda table: None)
    code, out, _ = run(capsys, "represent", "--model", FIXTURE, "--state", "r2")
    assert (code, out) == (1, "r2: NOT recovered (got None)\nresult: FAIL (1 state)\n")


def test_file_without_ranked_states_is_input_error(capsys, tmp_path):
    model = tmp_path / "props.bel"
    model.write_text("atoms A\nworlds auto\nprop p = A\n", encoding="utf-8")
    assert run(capsys, "represent", "--model", str(model)) == (
        2, "", "error: model file declares no ranked states\n")


def test_degrees(capsys):
    code, out, _ = run(capsys, "degrees", "--model", FIXTURE, "--state", "r1")
    assert code == 0
    assert "d(A) = 1, d(~A) = 0: A is disbelieved" in out
    assert "d(notA) = 0, d(~notA) = 1: notA is believed" in out
    assert "degree conditions: pass" in out


def test_degrees_on_ocf_state(capsys):
    code, out, _ = run(capsys, "degrees", "--model", FIXTURE, "--state", "k1")
    assert code == 0
    assert "state k1 = {AB:1 Ab:1 aB:0 ab:2}" in out
    assert "as ranking = [aB] [AB Ab] [ab]" in out


def test_degrees_on_ocf_state_are_kappa_degrees(capsys, tmp_path):
    model = tmp_path / "kappa.bel"
    model.write_text("atoms A B\nworlds auto\nprop A = A\n"
                     "ocf k = { AB:0 Ab:3 aB:3 ab:5 }\n", encoding="utf-8")
    code, out, _ = run(capsys, "degrees", "--model", str(model), "--state", "k")
    assert code == 0
    # the gap-collapsed ranking would give d(~A) = 1
    assert "as ranking = [AB] [Ab aB] [ab]" in out
    assert "d(A) = 0, d(~A) = 3: A is believed" in out
    assert "degree conditions: pass" in out


def test_degrees_of_the_contradiction_and_the_tautology(capsys, tmp_path):
    model = tmp_path / "degenerate.bel"
    model.write_text("atoms A\nworlds auto\nprop F = A & ~A\nprop T = A | ~A\n"
                     "rpm r = [A] [a]\n", encoding="utf-8")
    code, out, _ = run(capsys, "degrees", "--model", str(model), "--state", "r")
    assert code == 0
    assert out.splitlines()[1:3] == ["d(F) undefined (contradiction)",
                                     "d(T) = 0, d(~T) undefined (tautology): T is believed"]


def test_iterate(capsys, tmp_path):
    script = tmp_path / "steps.txt"
    script.write_text("believe A strength 2\ndisbelieve A\n# done\n", encoding="utf-8")
    code, out, _ = run(capsys, "iterate", "--model", FIXTURE, "--state", "r2",
                       "--rule", "spohn:1", str(script))
    assert code == 0
    assert "step 1: believe {AB Ab} strength 2 ->" in out
    assert "step 2: disbelieve {AB Ab} ->" in out
    assert out.strip().splitlines()[-1].startswith("final content = ")


@pytest.mark.parametrize("golden, rule, script", ITERATE_GOLDENS,
                         ids=[g for g, _, _ in ITERATE_GOLDENS])
def test_iterate_golden_bytes(capsys, golden, rule, script):
    expected = (GOLDEN.parent / f"iterate-{golden}.txt").read_text(encoding="utf-8")
    assert run(capsys, "iterate", "--model", FOUR_ATOM_FILE, "--state", "s", "--rule", rule,
               str(script)) == (0, expected, "")


@pytest.mark.parametrize("golden, argv, code", CHECK_GOLDENS,
                         ids=[g for g, _, _ in CHECK_GOLDENS])
def test_check_and_degrees_golden_bytes(capsys, golden, argv, code):
    expected = (GOLDEN.parent / f"{golden}.txt").read_text(encoding="utf-8")
    assert run(capsys, *argv) == (code, expected, "")


@pytest.mark.parametrize("rule", ["lex", "natural", "flip", "spohn:2"])
def test_iterate_builds_no_ranked_model_per_step(capsys, monkeypatch, tmp_path, rule):
    """After the file loads, a 256-step run works on block masks only."""
    path = long_script(tmp_path, rule)
    built = []
    init, load = rankrev.RankedModel.__init__, rankrev.cli.load_model

    def counting_init(self, blocks):
        built.append(blocks)
        init(self, blocks)

    def loading(*args):
        model_file = load(*args)
        built.clear()
        return model_file

    monkeypatch.setattr(rankrev.RankedModel, "__init__", counting_init)
    monkeypatch.setattr(rankrev.cli, "load_model", loading)
    code, out, err = run(capsys, "iterate", "--model", FOUR_ATOM_FILE, "--state", "s",
                         "--rule", rule, str(path))
    assert (code, err) == (0, "") and len(out.splitlines()) == 258
    assert built == []


def test_iterate_bad_script_line(capsys, tmp_path):
    script = tmp_path / "steps.txt"
    script.write_text("ponder A\n", encoding="utf-8")
    code, _, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                       "--rule", "lex", str(script))
    assert code == 2
    assert "expected" in err


DEGENERATE = "revision rules reject the contradiction and the tautology"


# Each error names the expression's line and column, before any step is printed.
@pytest.mark.parametrize("script, column, message",
                         [("believe A\nbelieve A & C\n", 13, "unknown atom 'C'"),
                          ("believe A\n   believe A & C\n", 16, "unknown atom 'C'"),
                          ("believe A\nbelieve A | ~A\n", 9, DEGENERATE),
                          ("believe A\n  suspend A & ~A\n", 11, DEGENERATE)],
                         ids=["plain", "indented", "tautology", "contradiction"])
def test_iterate_expression_error_column(capsys, tmp_path, script, column, message):
    path = tmp_path / "steps.txt"
    path.write_text(script, encoding="utf-8")
    code, out, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                         "--rule", "lex", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: 2:{column}: {message}\n"


@pytest.mark.parametrize("rule", ["lex", "natural"])
def test_iterate_strength_needs_strength_rule(capsys, tmp_path, rule):
    path = tmp_path / "steps.txt"
    path.write_text("disbelieve A\nbelieve A strength 2\n", encoding="utf-8")
    code, out, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                         "--rule", rule, str(path))
    assert code == 2
    assert out == ""
    assert err == "error: 2:11: strength needs a strength-based rule (spohn:N)\n"


@pytest.mark.parametrize("line, message",
                         [("believe A strength 0", "strength must be at least 1"),
                          ("disbelieve A strength 0", "strength must be at least 1"),
                          ("suspend A strength 2", "suspend takes no strength")],
                         ids=["believe-0", "disbelieve-0", "suspend"])
def test_iterate_rejects_strength_that_changes_the_attitude(capsys, tmp_path, line, message):
    path = tmp_path / "steps.txt"
    path.write_text(f"believe A\n{line}\n", encoding="utf-8")
    code, out, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                         "--rule", "spohn:1", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: 2:{line.index('strength') + 1}: {message}\n"


def test_script_strength_must_be_ascii_digits(capsys, tmp_path):
    path = tmp_path / "steps.txt"
    path.write_text("believe A strength \u0663\n", encoding="utf-8")
    code, out, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                         "--rule", "spohn:1", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: 1:20: unexpected character '\u0663'\n"


@pytest.mark.parametrize("command", [("degrees", "--state", "k"), ("check",)],
                         ids=["degrees", "check"])
def test_ocf_value_with_non_ascii_digit_is_input_error(capsys, tmp_path, command):
    model = tmp_path / "bad.bel"
    model.write_text("atoms A\nworlds auto\nocf k = { A:\u00b2 a:0 }\n", encoding="utf-8")
    code, out, err = run(capsys, command[0], "--model", str(model), *command[1:])
    assert code == 2
    assert out == ""
    assert err == "error: 3:1: bad value '\u00b2' for world 'A'\n"


@pytest.mark.parametrize("argv", [("check", "--model", FIXTURE, "--rule", "spohn:1",
                                   "--axioms", "r", "--max-strength", "-1")],
                         ids=["check-r"])
def test_negative_max_strength_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: max strength must be at least 0\n"


def test_negative_max_strength_is_input_error_without_reversal_cases(capsys, tmp_path):
    # no non-degenerate named proposition, so no reversibility check runs
    model = tmp_path / "bare.bel"
    model.write_text("atoms A B\nworlds auto\nrpm r = [AB] [Ab aB ab]\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--model", str(model), "--rule", "spohn:1",
                         "--axioms", "r", "--max-strength", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max strength must be at least 0\n"


@pytest.mark.parametrize("argv", [("check", "--model", FIXTURE, "--rule", "spohn:1",
                                   "--axioms", "r", "--max-strength", "4097"),
                                  ("check", "--model", FIXTURE, "--max-strength", "4097")],
                         ids=["check-r", "check-agm"])
def test_max_strength_over_the_world_bound_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --max-strength must be at most 4096, got 4097\n"


def test_max_strength_at_the_world_bound_is_valid(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--max-strength", "4096")
    assert code == 0
    assert out.endswith("result: pass\n")


@pytest.mark.parametrize("rule", ["spohn:\u0663", "spohn: 2"], ids=["arabic-indic", "space"])
def test_spohn_strength_must_be_ascii_digits(capsys, rule):
    code, out, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1",
                         "--rule", rule, "A")
    assert code == 2
    assert out == ""
    assert err == f"error: bad rule strength in {rule!r}\n"


def test_zero_max_strength_is_valid(capsys):
    # with strength 0 only suspension is tried, and it cannot undo belief
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "spohn:1",
                       "--axioms", "r", "--max-strength", "0")
    assert code == 1
    assert out.startswith("r[r1]: FAIL — believe A is irreversible\n")


THREE_ATOMS = ("atoms A B C\nworlds auto\nprop p = A & ~C\nprop q = B | C\n"
               "rpm s = [ABc abC] [ABC aBc] [AbC] [Abc aBC abc]\n")


def test_three_atom_file_runs_under_default_bounds(capsys, tmp_path):
    model = tmp_path / "three.bel"
    model.write_text(THREE_ATOMS, encoding="utf-8")
    code, out, err = run(capsys, "check", "--model", str(model), "--rule", "lex",
                         "--axioms", "agm,b9,b10,order,degrees,r")
    assert code in (0, 1), err
    assert "agm[s]: pass (65792 cases)" in out
    assert "b9[s]: pass (6050 cases)" in out and "degrees[s]: pass" in out
    assert run(capsys, "represent", "--model", str(model))[0] == 0
    assert run(capsys, "degrees", "--model", str(model), "--state", "s")[0] == 0


def test_nine_worlds_are_over_the_default_bound(capsys, tmp_path):
    model = tmp_path / "nine.bel"
    worlds = "".join(
        f"world w{i} {{ " + " ".join(f"{a}={str(bool(i >> j & 1)).lower()}"
                                     for j, a in enumerate("ABCD")) + " }\n"
        for i in range(9))
    model.write_text("atoms A B C D\n" + worlds + "rpm s = ["
                     + " ".join(f"w{i}" for i in range(9)) + "]\n", encoding="utf-8")
    # the bound is checked before anything is printed: order alone would pass.  It is
    # checked while the file loads, so it also comes before a missing --rule.
    for argv in (("check", "--axioms", "agm"), ("check", "--axioms", "order,agm", "--rule", "lex"),
                 ("check", "--axioms", "agm,b9"), ("represent",), ("degrees", "--state", "s")):
        code, out, err = run(capsys, *argv, "--model", str(model))
        assert (code, out) == (2, ""), argv
        assert err == "error: universe has 9 worlds, over the bound of 8\n"
    # A raised bound reaches every checker: nothing else refuses nine worlds.
    for argv, expected in (
            (("check", "--rule", "lex", "--axioms", "agm,b9,b10,degrees"),
             "agm[s]: pass (262656 cases)\nb9[s]: pass (18660 cases)\n"
             "b10[s]: pass (18660 cases)\ndegrees[s]: pass (261130 cases)\nresult: pass\n"),
            (("represent",), "s: recovered exactly\nresult: pass\n"),
            (("degrees", "--state", "s"),
             f"state s = [{' '.join(f'w{i}' for i in range(9))}]\n"
             "degree conditions: pass (261130 cases)\n")):
        assert run(capsys, *argv, "--model", str(model), "--max-worlds", "9") == (
            0, expected, ""), argv


FOUR_ATOMS = "atoms A B C D\nworlds auto\nprop p = A\nrpm s = [ABCD] [" + " ".join(
    "".join(c if i >> (3 - j) & 1 else c.lower() for j, c in enumerate("ABCD"))
    for i in range(15)) + "]\n"


@pytest.mark.parametrize("bound", ["-1", "0"])
@pytest.mark.parametrize("argv", [("check", "--axioms", "agm"),
                                  ("check", "--axioms", "order", "--rule", "lex"),
                                  ("check", "--axioms", "r", "--rule", "lex"),
                                  ("represent",), ("degrees", "--state", "s")])
def test_max_worlds_below_one_is_a_usage_error(capsys, tmp_path, argv, bound):
    model = tmp_path / "four.bel"
    model.write_text(FOUR_ATOMS, encoding="utf-8")
    assert run(capsys, *argv, "--model", str(model), "--max-worlds", bound) == (
        2, "", f"error: --max-worlds must be at least 1, got {bound}\n")


def test_represent_over_the_bound_tabulates_nothing(capsys, monkeypatch):
    def refuse(model):
        raise AssertionError("revision_table called")

    monkeypatch.setattr(rankrev.cli, "revision_table", refuse)
    assert run(capsys, "represent", "--model", FIVE_ATOMS) == (
        2, "", "error: universe has 32 worlds, over the bound of 8\n")


def _refuse(*args, **kwargs):
    raise AssertionError("built a universe over the bound")


def test_enumerate_over_the_bound_builds_no_universe(capsys, monkeypatch):
    monkeypatch.setattr(rankrev.cli, "_count_ranked_models", _refuse)
    assert run(capsys, "enumerate", "--worlds", "300000") == (
        2, "", "error: universe has 300000 worlds, over the bound of 8\n")


@pytest.mark.parametrize("argv", [("check", "--axioms", "agm"), ("check", "--axioms", "b9"),
                                  ("check", "--axioms", "b10"),
                                  ("check", "--axioms", "order,degrees", "--rule", "lex"),
                                  ("represent",), ("degrees", "--state", "s")])
def test_auto_worlds_over_the_bound_are_never_expanded(capsys, monkeypatch, tmp_path, argv):
    model = tmp_path / "sixteen-atoms.bel"
    atoms = "ABCDEFGHIJKLMNOP"
    model.write_text(f"atoms {' '.join(atoms)}\nworlds auto\nrpm s = [{atoms}]\n",
                     encoding="utf-8")
    monkeypatch.setattr(rankrev.Universe, "from_atoms", _refuse)
    assert run(capsys, *argv, "--model", str(model)) == (
        2, "", "error: universe has 65536 worlds, over the bound of 8\n")


@pytest.mark.parametrize("argv", [("revise", "--state", "s", "A"),
                                  ("iterate", "--state", "s", "--rule", "lex", "script.txt"),
                                  ("check", "--axioms", "order,r", "--rule", "lex")])
def test_auto_worlds_over_the_ceiling_are_never_expanded(capsys, monkeypatch, tmp_path, argv):
    model = tmp_path / "thirteen-atoms.bel"
    atoms = "ABCDEFGHIJKLM"
    model.write_text(f"atoms {' '.join(atoms)}\nworlds auto\nrpm s = [{atoms}]\n",
                     encoding="utf-8")
    (tmp_path / "script.txt").write_text("believe A\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(rankrev.Universe, "from_atoms", _refuse)
    assert run(capsys, *argv, "--model", str(model)) == (
        2, "", "error: universe has 8192 worlds, over the bound of 4096\n")


def test_order_and_reversibility_are_not_bounded(capsys, tmp_path):
    model = tmp_path / "sixteen.bel"
    worlds = " ".join(rankrev.Universe.from_atoms("ABCD").worlds)
    model.write_text(f"atoms A B C D\nworlds auto\nprop p = A & ~D\nprop q = B | C\n"
                     f"rpm s = [{worlds}]\n", encoding="utf-8")
    assert run(capsys, "check", "--model", str(model), "--rule", "lex", "--axioms", "order,r") == (
        0, "order[s]: pass (144 cases)\nr[s]: pass (18 reversals tried)\nresult: pass\n", "")


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "revise", "--model", "/no/such.bel", "--state", "r1", "A")
    assert code == 2
    assert "cannot read model file" in err


def test_non_utf8_model_file_is_input_error(capsys, tmp_path):
    model = tmp_path / "bad.bel"
    model.write_bytes(b"atoms A\nworlds auto\nrpm r = [A] [a]\n# \xff\n")
    code, out, err = run(capsys, "check", "--model", str(model))
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot read model file {str(model)!r}: "
                   "not UTF-8 (invalid start byte at offset 38)\n")


def test_non_utf8_script_is_input_error(capsys, tmp_path):
    script = tmp_path / "steps.txt"
    script.write_bytes(b"believe A # \xff\n")
    code, out, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                         "--rule", "lex", str(script))
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot read script {str(script)!r}: "
                   "not UTF-8 (invalid start byte at offset 12)\n")


def test_missing_script(capsys, tmp_path):
    script = tmp_path / "none.txt"
    code, out, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                         "--rule", "lex", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read script {str(script)!r}: ")


def test_unknown_state(capsys):
    code, _, err = run(capsys, "revise", "--model", FIXTURE, "--state", "zz", "A")
    assert code == 2
    assert "no ranked state" in err
    assert run(capsys, "degrees", "--model", FIXTURE, "--state", "nosuch") == (
        2, "", "error: no state named 'nosuch' in model file\n")


def test_bad_expression_is_input_error(capsys):
    code, _, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", "A & C")
    assert code == 2
    assert "unknown atom" in err
    code, out, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", "(A B")
    assert code == 2
    assert out == ""
    assert err == "error: 1:4: expected ')', got 'B'\n"


@pytest.mark.parametrize("text", ["~" * 5000 + "A", "(" * 400 + "A" + ")" * 400,
                                  "&".join(["A"] * 5000)],
                         ids=["not", "parens", "and-chain"])
def test_deep_expression_is_input_error(capsys, text):
    code, out, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: 1:") and "nested deeper than" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "revise")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_start_up_imports_neither_dataclasses_nor_inspect():
    """Each CLI call is a fresh process, so the package keeps its imports light."""
    code = "import rankrev.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_run_ends_the_process_without_interpreter_shutdown():
    proc = run_process("enumerate", "--worlds", "3", stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "13\n", "")


def test_run_through_a_pipe_prints_what_main_prints(capsys, tmp_path):
    """256 steps overflow stdout's buffer; what is left in it is flushed before the exit."""
    argv = ["iterate", "--model", FOUR_ATOM_FILE, "--state", "s", "--rule", "spohn:2",
            str(long_script(tmp_path, "spohn:2"))]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and len(out.splitlines()) == 258
    proc = run_process(*argv, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_a_pipe_without_reader_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process("counterexample", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
def test_a_full_device_exits_2():
    with open("/dev/full", "wb") as full:
        proc = run_process("counterexample", stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


def test_a_stdout_closed_before_start_exits_2():
    proc = run_process("enumerate", "--worlds", "3", preexec_fn=closing(1))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {os.strerror(errno.EBADF)}\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["help", "check-help"])
def test_help_into_a_full_device_exits_2_when_written_through(argv):
    """argparse's own write of ``--help`` would swallow the error of an unbuffered stdout."""
    with open("/dev/full", "wb") as full:
        proc = run_process(*argv, stdout=full, env=UNBUFFERED)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
@pytest.mark.parametrize("env", [None, UNBUFFERED], ids=["buffered", "unbuffered"])
def test_a_full_device_exits_2_with_stderr_closed(env):
    with open("/dev/full", "wb") as full:
        proc = run_process("counterexample", stdout=full, env=env, preexec_fn=closing(2))
    assert (proc.returncode, proc.stderr) == (2, "")


def test_a_usage_error_with_stdout_closed_prints_only_the_usage_error(capsys):
    code, out, err = run(capsys, "revise")
    assert (code, out) == (2, "") and err.startswith("usage: rankrev revise")
    proc = run_process("revise", preexec_fn=closing(1))
    assert (proc.returncode, proc.stderr) == (code, err)


def test_main_returns_2_when_stdout_cannot_be_written(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["enumerate", "--worlds", "3"]) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("stdout", [None, io.StringIO()], ids=["missing", "closed"])
def test_main_returns_2_for_a_missing_or_closed_stdout(capsys, monkeypatch, stdout):
    if stdout is not None:
        stdout.close()
        reason = "I/O operation on closed file"
    else:
        reason = os.strerror(errno.EBADF)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["enumerate", "--worlds", "3"]) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {reason}\n"


def test_benchmark_tracer_finds_its_targets(capsys, monkeypatch):
    """``perfbench/tracing.py`` wraps rankrev attributes by name: renaming one fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    originals = (rankrev.Proposition.__post_init__, rankrev.RankedModel.__init__,
                 rankrev.cli.check_agm)
    tracer = tracing.Tracer()
    tracer.install(rankrev)
    try:
        code = run(capsys, "check", "--model", FIXTURE, "--rule", "lex",
                   "--axioms", "agm,b9,b10,order,degrees,r")[0]
    finally:
        tracer.uninstall()
    assert code == 1  # lex is irreversible
    summary = tracer.summary()
    assert summary["counts"]["worlds.Proposition"] > 0
    for axiom in ("agm", "b9", "b10", "order", "degrees", "r"):
        assert summary["counts"][f"verify.{axiom}.cases"] > 0, axiom
    assert {"modelfile.load_model", "ranking.RankedModel", "revision.revise"} <= set(
        summary["spans"])
    assert originals == (rankrev.Proposition.__post_init__, rankrev.RankedModel.__init__,
                         rankrev.cli.check_agm)


def _mutants(text, seed, count):
    """``count`` copies of ``text``, each with one to three characters deleted,
    replaced or inserted at random, from a fixed seed."""
    rng = random.Random(seed)
    alphabet = "AaBbCcDd019:=[]{}~&|()->#_ \n\té"
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i, edit = rng.randrange(len(chars)), rng.randrange(3)
            if edit == 0:
                del chars[i]
            else:
                chars[i:i + (edit == 1)] = rng.choice(alphabet)
        yield "".join(chars)


def test_mutated_model_files_and_scripts_keep_the_exit_code_contract(capsys, tmp_path):
    """Every command exits 0, 1 or 2 on a corrupted input; none raises."""
    model, script = tmp_path / "m.bel", tmp_path / "script.txt"
    commands = (("check", "--model", str(model), "--rule", "spohn:1",
                 "--axioms", "agm,b9,b10,order,degrees,r"),
                ("represent", "--model", str(model)),
                ("degrees", "--model", str(model), "--state", "k1"),
                ("revise", "--model", str(model), "--state", "r1", "--rule", "natural", "A"))
    codes = set()
    for text in _mutants(Path(FIXTURE).read_text(encoding="utf-8"), 1, 100):
        model.write_text(text, encoding="utf-8")
        codes |= {run(capsys, *argv)[0] for argv in commands}
    for text in _mutants(SCRIPT.read_text(encoding="utf-8"), 2, 100):
        script.write_text(text, encoding="utf-8")
        codes.add(run(capsys, "iterate", "--model", FOUR_ATOM_FILE, "--state", "s",
                      "--rule", "lex", str(script))[0])
    assert codes == {0, 1, 2}
