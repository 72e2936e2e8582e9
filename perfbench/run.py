"""Benchmark for the rankrev CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload check-8w --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client drives the CLI in a closed loop, one child process at a time, as
``python -m rankrev.cli`` with the checkout's ``src`` on the path.  Set-up
copies ``src/rankrev`` into a fresh build directory, writes the seeded
inputs, and makes one warm-up call that compiles the bytecode; it is
repeated several times and ``setup_s`` is the median.

Times are CPU seconds (user + system) of the benchmark and its children, as
``time`` reports them: on a shared virtual machine they leave out the time
the virtual CPU was not running, which wall-clock time counts.  The record
line also gives the wall-clock figures.

``--trace 0`` repeats the workload's job list, in alternating order, until
``--seconds`` have passed and at least three passes are done, and reports
the end-to-end metrics.  ``--trace 1`` replays the same job list in-process
through ``rankrev.cli.main``, alternating untraced and traced passes, and
reports the per-layer metrics of ``tracing.py``.  Every output,
traced or not, is checked against the oracles of ``oracles.py``.

The last line of stdout is the result as JSON; the line before it records
the environment, the seed, the input hashes and further detail.  Run
``python3 perfbench/selftest.py`` to see every oracle reject a corrupted
output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "rankrev"
GOLDEN = ROOT / "tests" / "golden" / "counterexample.txt"
WORK = HERE / "work"

SETUPS = 9              # set-ups per run; setup_s is their median
MIN_PASSES = 3          # every job's median is over at least this many runs
STARTUP_SAMPLES = 7     # fresh imports timed for cli.startup_ms
JOB_TIMEOUT_S = 150
WARM_UP = ("enumerate", "--worlds", "1")


class Setup:
    """A built copy of the program plus one workload's generated inputs."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.root = root
        self.src = root / "src"
        self.inputs = root / "inputs"
        shutil.rmtree(root, ignore_errors=True)
        (self.src / "rankrev").mkdir(parents=True)
        for path in SOURCE.glob("*.py"):
            shutil.copyfile(path, self.src / "rankrev" / path.name)
        self.workload = workloads.build(workload, seed)
        self.inputs.mkdir()
        for name, text in self.workload.files.items():
            (self.inputs / name).write_text(text, encoding="utf-8")
        code = self.run(WARM_UP)[2]
        if code != 0:
            raise RuntimeError(f"warm-up call exited with {code}")

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                            "PYTHONSTARTUP", "PYTHONINSPECT")}
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONHASHSEED"] = "0"
        return env

    def run(self, argv, module_args=("-m", "rankrev.cli")):
        """One child process; returns (wall seconds, CPU seconds, exit code, stdout)."""
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *module_args, *argv], cwd=self.inputs,
                              env=self.env(), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
        wall = time.perf_counter() - t0
        return (wall, children_cpu() - cpu0, proc.returncode,
                proc.stdout.decode("utf-8", errors="replace"))


def children_cpu() -> float:
    """User + system CPU seconds of all finished children of this process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_now() -> float:
    """User + system CPU seconds of this process and its finished children."""
    return time.process_time() + children_cpu()


def set_up(workload: str, seed: int) -> tuple[Setup, list[float], list[float]]:
    """Set up SETUPS times from scratch; return the last set-up and the CPU and
    wall seconds of each."""
    cpu, wall = [], []
    for i in range(SETUPS):
        root = WORK / workload / f"setup{i}"
        shutil.rmtree(root, ignore_errors=True)
        c0, t0 = cpu_now(), time.perf_counter()
        setup = Setup(workload, seed, root)
        cpu.append(cpu_now() - c0)
        wall.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(WORK / workload / f"setup{i - 1}", ignore_errors=True)
    return setup, cpu, wall


def expectations(setup: Setup) -> list[oracles.Expectation]:
    golden = GOLDEN.read_text(encoding="utf-8")
    return [workloads.expect(job, golden) for job in setup.workload.jobs]


def latency_figures(ms: list[float], per_job: list[list[float]], units: float) -> dict:
    """pass seconds, p50 and p90 of all invocations, and work per second."""
    one_pass = sum(statistics.median(times) for times in per_job) / 1e3
    return {"pass_s": one_pass, "p50": statistics.median(ms),
            "p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "work_per_s": units / one_pass}


def timed_run(setup: Setup, seconds: float,
              setup_cpu: list[float], setup_wall: list[float]) -> tuple[dict, dict, int, int]:
    """Repeat the job list until ``seconds`` pass and MIN_PASSES are done;
    end-to-end metrics and detail.

    Odd passes run the list backwards, so a slow spell of the machine does not
    always fall on the same jobs.  ``pass_cpu_s`` sums each job's median over
    the passes; the percentiles are over every invocation of the run.
    """
    jobs, expected = setup.workload.jobs, expectations(setup)
    cpu = [[] for _ in jobs]
    wall = [[] for _ in jobs]
    passes, units, failed = 0, 0, 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        order = range(len(jobs)) if passes % 2 == 0 else reversed(range(len(jobs)))
        for j in order:
            elapsed, used, code, stdout = setup.run(jobs[j].argv)
            wall[j].append(elapsed * 1e3)
            cpu[j].append(used * 1e3)
            problem = oracles.verify(expected[j], code, stdout)
            if problem is None:
                units += expected[j].units
            else:
                failed += 1
                print(f"mismatch: {' '.join(jobs[j].argv)}: {problem}", file=sys.stderr)
        passes += 1
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cpu_ms = [t for times in cpu for t in times]
    by_cpu = latency_figures(cpu_ms, cpu, units / passes)
    by_wall = latency_figures([t for times in wall for t in times], wall, units / passes)
    metrics = {
        "pass_cpu_s": (by_cpu["pass_s"], "s"),
        "job_cpu_ms_p50": (by_cpu["p50"], "ms"),
        "job_cpu_ms_p90": (by_cpu["p90"], "ms"),
        "work_per_cpu_s": (by_cpu["work_per_s"], "1/s"),
        "setup_s": (statistics.median(setup_cpu), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    invocations = passes * len(jobs)
    detail = {
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "invocations": invocations,
        "invocations_beyond_cpu_p90": sum(1 for t in cpu_ms if t > by_cpu["p90"]),
        "work_unit": workloads.WORK_UNIT[setup.workload.name],
        "work_per_pass": units / passes,
        "fail_ratio": failed / invocations,
        "wall": {"pass_s": by_wall["pass_s"], "job_ms_p50": by_wall["p50"],
                 "job_ms_p90": by_wall["p90"], "work_per_s": by_wall["work_per_s"],
                 "setup_s": statistics.median(setup_wall)},
    }
    return metrics, detail, invocations, failed


def traced_run(setup: Setup, seconds: float) -> tuple[dict, dict, int, int]:
    """Alternate untraced and traced in-process passes; per-layer metrics and detail."""
    import tracing

    startup = [setup.run((), ("-c", "import rankrev.cli"))[1] * 1e3
               for _ in range(STARTUP_SAMPLES)]
    sys.path.insert(0, str(setup.src))
    import rankrev
    import rankrev.cli

    jobs, expected = setup.workload.jobs, expectations(setup)
    tracer = tracing.Tracer()
    main = tracer.timed("cli.main", rankrev.cli.main)
    total = {"spans": {}, "counts": {}, "pulled": {}}
    plain, traced, signatures, failed, attempted = [], [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, bad = tracing.replay(rankrev.cli.main, jobs, expected, setup.inputs)
        plain.append(wall)
        failed += bad
        tracer.reset()
        tracer.install(rankrev)
        try:
            wall, bad = tracing.replay(main, jobs, expected, setup.inputs, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failed += bad
        attempted += 2 * len(jobs)
        part = tracer.summary()
        tracing.merge(total, part)
        signatures.append(({k: v[0] for k, v in part["spans"].items()},
                           part["counts"], part["pulled"]))
        if signatures[-1] != signatures[0]:
            failed += 1
            print(f"mismatch: traced pass {len(traced)} counted other work than pass 1",
                  file=sys.stderr)
    tracer.write(setup.root / "trace.spans")
    metrics = {"cli.startup_ms": (statistics.median(startup), "ms")}
    metrics.update(tracing.layer_metrics(total, len(traced), len(jobs)))
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    detail = {
        "passes": len(traced),
        "spans_file": str((setup.root / "trace.spans").relative_to(ROOT)),
    }
    return metrics, detail, attempted, failed


def cpu_probe_ms() -> dict:
    """Wall and CPU time of a fixed pure-Python loop: shows how fast this
    machine ran just now, and how much of that time the CPU was elsewhere."""
    t0, c0 = time.perf_counter(), time.process_time()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return {"wall": (time.perf_counter() - t0) * 1e3, "cpu": (time.process_time() - c0) * 1e3}


def environment(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "cpu_probe_ms_start": cpu_probe_ms(),
        "rankrev_commit": commit,
        "rankrev_source_sha256": digest.hexdigest(),
    }


def input_hashes(files: dict[str, str]) -> dict:
    hashes = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in sorted(files.items())}
    combined = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in hashes.items()).encode())
    return {"all": combined.hexdigest(), "files": hashes}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    record = {"env": environment(workload, seed)}
    setup, setup_cpu, setup_wall = set_up(workload, seed)
    record["inputs"] = input_hashes(setup.workload.files)
    if trace:
        metrics, detail, attempted, failed = traced_run(setup, seconds)
    else:
        metrics, detail, attempted, failed = timed_run(setup, seconds, setup_cpu, setup_wall)
    record["env"]["loadavg_1m_end"] = os.getloadavg()[0]
    record["env"]["cpu_probe_ms_end"] = cpu_probe_ms()
    record["detail"] = detail
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; prints a table and returns the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise SystemExit(f"{workload}: benchmark exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{workload}: {result['failed']}/{result['attempted']} jobs failed")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SOURCE / "cli.py", GOLDEN):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a rankrev checkout",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
