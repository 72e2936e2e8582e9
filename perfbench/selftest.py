"""Oracle self-test: every oracle must count a corrupted output as a failure.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs one real job of each kind through the CLI (seed 0), checks that the
genuine output passes its oracle, then feeds the oracle corrupted copies (a
wrong count, a wrong ranking, a flipped verdict or exit code) and checks that
each one is rejected.  Exits 0 only when every genuine output passes and
every corruption is caught.
"""

from __future__ import annotations

import re
import shutil
import sys

import oracles
import run


def replace(old, new, count=1):
    """Corruption that rewrites the first ``count`` matches of regex ``old``."""
    def corrupt(code, out):
        return code, re.sub(old, new, out, count=count)
    return corrupt


def flip_code(code, out):
    return (1 if code == 0 else 0), out


def last_ranking_reversed(code, out):
    """The final step's posterior with its blocks in reverse order."""
    lines = out.splitlines(keepends=True)
    i = max(j for j, line in enumerate(lines) if line.startswith("step "))
    head, ranking = lines[i].rstrip("\n").rsplit(" -> ", 1)
    blocks = re.findall(r"\[[^\]]*\]", ranking)
    lines[i] = f"{head} -> {' '.join(reversed(blocks))}\n"
    return code, "".join(lines)


def r_verdict_flipped(code, out):
    if "r[s1]: pass" in out:
        return replace(r"r\[s1\]: pass \((\d+)", lambda m: f"r[s1]: pass ({int(m[1]) + 1}")(
            code, out)
    return code, re.sub(r"r\[s1\]: FAIL[^\n]*\n[^\n]*\n", "r[s1]: pass (9 reversals tried)\n", out)


# (workload, job index, oracle under test, corruptions)
CASES = (
    ("check-8w", 0, "check: closed-form counts, theory verdicts, r reference", (
        ("wrong AGM count", replace(r"agm\[s1\]: pass \(65792", "agm[s1]: pass (65791")),
        ("wrong degrees count", replace(r"\(65033 cases\)", "(65034 cases)")),
        ("wrong B9/B10 count", replace(r"\(6050 cases\)", "(6049 cases)")),
        ("wrong order count", replace(r"order\[s1\]: pass \((\d+)",
                                      lambda m: f"order[s1]: pass ({int(m[1]) + 1}")),
        ("B10 verdict flipped", replace(r"b10\[s1\]: pass \(6050 cases\)", "b10[s1]: FAIL")),
        ("r verdict or count changed", r_verdict_flipped),
        ("exit code flipped", flip_code),
    )),
    ("iterate-16w", 0, "iterate: rank-vector reference", (
        ("wrong final ranking", last_ranking_reversed),
        ("wrong final content", replace(r"final content = \{", "final content = {abcd ")),
        ("exit code flipped", flip_code),
    )),
    ("iterate-16w", 3, "revise: rank-vector reference", (
        ("wrong content", replace(r"content = \{", "content = {abcd ")),
        ("wrong posterior", replace(r"posterior \((\S+)\) = \[", r"posterior (\1) = [abcd] [")),
    )),
    ("search-7w", 3, "enumerate: ordered Bell numbers", (
        ("wrong count", replace(r"4683", "4682")),
        ("exit code flipped", flip_code),
    )),
    ("search-7w", 0, "counterexample --worlds 4: golden bytes", (
        ("one byte changed", replace(r"\(= r2\)", "(= r1)")),
        ("exit code flipped", flip_code),
    )),
    ("search-7w", 2, "counterexample --worlds 6: pass verdict", (
        ("verdict flipped", replace(r"verdict: pass", "verdict: FAIL")),
        ("header changed", replace(r"6 worlds", "7 worlds")),
        ("exit code flipped", flip_code),
    )),
    ("search-7w", 4, "represent: exact recovery", (
        ("state not recovered", replace(r"s1: recovered exactly", "s1: NOT recovered (got [x])")),
        ("exit code flipped", flip_code),
    )),
)


def main() -> int:
    ok = True
    golden = run.GOLDEN.read_text(encoding="utf-8")
    setups = {}
    try:
        for workload, index, oracle, corruptions in CASES:
            if workload not in setups:
                setups[workload] = run.Setup(workload, 0, run.WORK / "selftest" / workload)
            setup = setups[workload]
            job = setup.workload.jobs[index]
            expected = run.workloads.expect(job, golden)
            _, _, code, out = setup.run(job.argv)
            problem = oracles.verify(expected, code, out)
            print(f"{oracle}: genuine output {'accepted' if problem is None else 'REJECTED'}")
            ok &= problem is None
            for label, corrupt in corruptions:
                bad_code, bad_out = corrupt(code, out)
                changed = (bad_code, bad_out) != (code, out)
                caught = changed and oracles.verify(expected, bad_code, bad_out) is not None
                verdict = "counted as failure" if caught else (
                    "NOT CAUGHT" if changed else "corruption did not apply")
                print(f"  {label}: {verdict}")
                ok &= caught
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    print("self-test: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
