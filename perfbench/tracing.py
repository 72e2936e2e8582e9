"""In-process tracing of rankrev's layers for the per-layer metrics.

``Tracer`` wraps rankrev functions with timing or counting wrappers.  Every
timed call becomes a span (name, start, end, parent, job id) kept in compact
arrays in memory; nothing is written until the run ends.  A generator is
timed on each ``next()``.  A span's self time is its duration minus the
durations of its direct children, which nest strictly because the replay is
single-threaded.

Wrappers are installed where each name is looked up: ``rankrev.cli`` and
``rankrev.verify`` import ``check_*``, ``revise``, ``apply_rule`` and
``enumerate_ranked_models`` by name, so those module attributes are patched
alongside the defining module's.  Hot leaf methods that only need a count
(``RankedModel.ranks``, ``Proposition`` construction) get counting wrappers
without spans, to keep tracing overhead and memory down.
"""

from __future__ import annotations

import io
import json
import operator
import os
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import oracles

AXIOMS = ("agm", "b9", "b10", "order", "degrees", "r")
RULE_FAMILIES = ("lex", "natural", "spohn")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.job_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counts; wrappers stay installed."""
        self.name = array("H")
        self.parent = array("l")
        self.job = array("H")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts.clear()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- wrappers -------------------------------------------------------------

    def timed(self, name, fn, name_of=None, after=None):
        """Span per call; ``name_of(*args)`` picks the span name per call if given,
        ``after(result, *args)`` records counts from the result."""
        nid = self.intern(name)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            starts, stack = tracer.start, tracer.stack
            i = len(starts)
            tracer.name.append(nid if name_of is None else tracer.intern(name_of(*args)))
            tracer.parent.append(stack[-1])
            tracer.job.append(tracer.job_id)
            tracer.end.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def timed_generator(self, name, fn):
        """Span per ``next()``; the call that exhausts the generator is named ``name.end``."""
        item, done = self.intern(name), self.intern(name + ".end")
        clock = time.perf_counter_ns
        tracer = self

        def iterate(it):
            while True:
                starts, stack = tracer.start, tracer.stack
                i = len(starts)
                tracer.name.append(item)
                tracer.parent.append(stack[-1])
                tracer.job.append(tracer.job_id)
                tracer.end.append(0)
                stack.append(i)
                starts.append(clock())
                try:
                    value = next(it)
                except StopIteration:
                    tracer.name[i] = done
                    return
                finally:
                    tracer.end[i] = clock()
                    stack.pop()
                yield value

        def wrapper(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation ---------------------------------------------------------

    def patch(self, wrapper, *targets):
        """Set ``wrapper`` as attribute ``attr`` of each (owner, attr) target."""
        for owner, attr in targets:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, rankrev):
        cli, mf, ex = rankrev.cli, rankrev.modelfile, rankrev.expressions
        rv, rk, wd, vf = rankrev.revision, rankrev.ranking, rankrev.worlds, rankrev.verify
        counts = self.counts

        def add(key):
            def record(report, *args):
                counts[key] += report.cases
            return record

        self.patch(self.timed("modelfile.load_model", mf.load_model),
                   (mf, "load_model"), (cli, "load_model"))
        self.patch(self.timed("expressions.parse_expression", ex.parse_expression),
                   (ex, "parse_expression"), (mf, "parse_expression"))
        self.patch(self.timed("revision.apply_rule", rv.apply_rule,
                              name_of=lambda rule, *a: "revision.apply_rule."
                              + rule.name.split(":")[0]),
                   (rv, "apply_rule"), (cli, "apply_rule"), (vf, "apply_rule"))
        self.patch(self.timed("revision.revise", rv.revise),
                   (rv, "revise"), (cli, "revise"), (vf, "revise"))
        self.patch(self.timed("ranking.RankedModel", rk.RankedModel.__init__),
                   (rk.RankedModel, "__init__"))
        self.patch(self.timed("ranking.disbelief_degree", rk.RankedModel.disbelief_degree),
                   (rk.RankedModel, "disbelief_degree"))
        self.patch(self.counted("ranking.ranks", rk.RankedModel.ranks),
                   (rk.RankedModel, "ranks"))
        self.patch(self.counted("worlds.Proposition", wd.Proposition.__post_init__),
                   (wd.Proposition, "__post_init__"))
        for axiom, attr in (("agm", "check_agm"), ("order", "check_order_preservation"),
                            ("degrees", "check_degree_conditions"),
                            ("r", "check_reversibility")):
            self.patch(self.timed(f"verify.{axiom}", getattr(vf, attr),
                                  after=add(f"verify.{axiom}.cases")),
                       (vf, attr), (cli, attr))
        self.patch(self.timed("verify.iteration", vf.check_iteration_axiom,
                              name_of=lambda rule, axiom, *a: f"verify.{axiom.lower()}",
                              after=lambda report, rule, axiom, *a: counts.update(
                                  {f"verify.{axiom.lower()}.cases": report.cases})),
                   (vf, "check_iteration_axiom"), (cli, "check_iteration_axiom"))
        self.patch(self.timed_generator("verify.enumerate", vf.enumerate_ranked_models),
                   (vf, "enumerate_ranked_models"), (cli, "enumerate_ranked_models"))
        self.patch(self.timed("verify.successors", vf.constrained_successors,
                              after=lambda result, *a: counts.update(
                                  {"verify.successors.results": len(result)})),
                   (vf, "constrained_successors"))
        self.patch(self.timed("verify.represent", vf.representation_check),
                   (vf, "representation_check"), (cli, "representation_check"))
        # Spans with no metric of their own, so their work is not counted as CLI self time.
        self.patch(self.timed("verify.counterexample", vf.counterexample_verify),
                   (vf, "counterexample_verify"), (cli, "counterexample_verify"))
        self.patch(self.timed("verify.revision_table", vf.revision_table),
                   (vf, "revision_table"), (cli, "revision_table"))

    # --- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds; plus counters and
        the number of generator items pulled under each parent span name."""
        n = len(self.start)
        dur = array("q", map(operator.sub, self.end, self.start))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        spans: dict[str, list[int]] = {}
        enumerate_id = self._ids.get("verify.enumerate")
        pulled = Counter()
        for i in range(n):
            nid = self.name[i]
            entry = spans.setdefault(self.names[nid], [0, 0, 0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
            if nid == enumerate_id:
                p = self.parent[i]
                pulled[self.names[self.name[p]] if p >= 0 else "-"] += 1
        return {"spans": spans, "counts": dict(self.counts), "pulled": dict(pulled)}

    def write(self, path):
        """Write the spans of the last pass: a JSON header line, then the raw arrays."""
        arrays = (("name", self.name), ("start", self.start), ("end", self.end),
                  ("parent", self.parent), ("job", self.job))
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [[key, a.typecode, a.itemsize] for key, a in arrays]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, a in arrays:
                handle.write(a.tobytes())


def merge(total: dict, part: dict):
    for name, (calls, dur, self_ns) in part["spans"].items():
        entry = total["spans"].setdefault(name, [0, 0, 0])
        entry[0] += calls
        entry[1] += dur
        entry[2] += self_ns
    for key in ("counts", "pulled"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value


def replay(main, jobs, expectations, workdir, tracer=None):
    """Run each job through ``main(argv)`` in-process; return (seconds, failures)."""
    failed = 0
    here = os.getcwd()
    os.chdir(workdir)
    try:
        t0 = time.perf_counter()
        for j, (job, expected) in enumerate(zip(jobs, expectations)):
            if tracer is not None:
                tracer.job_id = j
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(list(job.argv))
            if oracles.verify(expected, code, out.getvalue()) is not None:
                failed += 1
        return time.perf_counter() - t0, failed
    finally:
        os.chdir(here)


def layer_metrics(total: dict, passes: int, jobs_per_pass: int) -> dict:
    """The per-layer metrics, name -> (value, unit), from the merged summaries of
    ``passes`` traced passes.  Counts are per pass; times are per call over all."""
    spans = total["spans"]
    counts = {k: v / passes for k, v in total["counts"].items()}
    pulled = {k: v / passes for k, v in total["pulled"].items()}

    def calls(name):
        return spans.get(name, (0, 0, 0))[0] / passes

    def total_ns(name):
        return spans.get(name, (0, 0, 0))[1] / passes

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    cases = {a: counts.get(f"verify.{a}.cases", 0) for a in AXIOMS}
    all_cases = sum(cases.values())
    props = counts.get("worlds.Proposition", 0)
    models = calls("verify.enumerate")
    scanned = pulled.get("verify.successors", 0)
    results = counts.get("verify.successors.results", 0)
    enumerate_ns = total_ns("verify.enumerate") + total_ns("verify.enumerate.end")
    m = {
        "cli.self_ms_per_job": (per(spans.get("cli.main", (0, 0, 0))[2] / passes,
                                    jobs_per_pass) / 1e6, "ms"),
        "modelfile.load_ms_per_file": (per(total_ns("modelfile.load_model"),
                                           calls("modelfile.load_model")) / 1e6, "ms"),
        "expressions.parse_us_per_call": (per(total_ns("expressions.parse_expression"),
                                              calls("expressions.parse_expression")) / 1e3, "us"),
        "expressions.calls": (calls("expressions.parse_expression"), "count"),
    }
    for family in RULE_FAMILIES:
        name = f"revision.apply_rule.{family}"
        m[f"revision.rule_us_per_step.{family}"] = (per(total_ns(name), calls(name)) / 1e3, "us")
    m.update({
        "revision.revise_ns_per_call": (per(total_ns("revision.revise"),
                                            calls("revision.revise")), "ns"),
        "revision.revise_calls": (calls("revision.revise"), "count"),
        "ranking.models_built": (calls("ranking.RankedModel"), "count"),
        "ranking.model_build_us": (per(total_ns("ranking.RankedModel"),
                                       calls("ranking.RankedModel")) / 1e3, "us"),
        "ranking.disbelief_degree_ns_per_call": (per(total_ns("ranking.disbelief_degree"),
                                                     calls("ranking.disbelief_degree")), "ns"),
        "ranking.ranks_calls": (counts.get("ranking.ranks", 0), "count"),
        "worlds.props_built": (props, "count"),
        "worlds.props_per_case": (per(props, all_cases), "ratio"),
        "verify.cases": (all_cases, "count"),
    })
    for axiom in AXIOMS:
        m[f"verify.{axiom}.ns_per_case"] = (per(total_ns(f"verify.{axiom}"), cases[axiom]), "ns")
        m[f"verify.{axiom}.cases"] = (cases[axiom], "count")
    m.update({
        "verify.enumerate.models": (models, "count"),
        "verify.enumerate.us_per_model": (per(enumerate_ns, models) / 1e3, "us"),
        "verify.successors.ms_per_call": (per(total_ns("verify.successors"),
                                              calls("verify.successors")) / 1e6, "ms"),
        "verify.successors.scanned": (scanned, "count"),
        "verify.successors.results": (results, "count"),
        "verify.successors.scanned_per_result": (per(scanned, results), "ratio"),
        "verify.represent.ms_per_call": (per(total_ns("verify.represent"),
                                             calls("verify.represent")) / 1e6, "ms"),
        "verify.represent.models_scanned": (pulled.get("verify.represent", 0), "count"),
    })
    # Counts repeat exactly from pass to pass, so their per-pass means are whole.
    return {name: (int(value) if unit == "count" and value == int(value) else value, unit)
            for name, (value, unit) in m.items()}
