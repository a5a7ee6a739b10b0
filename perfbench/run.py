"""Benchmark of the coinvest CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each invocation of the workload is a
fresh ``python3 -m coinvest.cli`` process, as a user runs it, with
``PYTHONPATH=src`` and the CLI's default single worker.  Every process
the benchmark starts runs under an address-space cap (``RLIMIT_AS``), so
a memory blow-up fails that invocation instead of exhausting the host.

``--trace 0`` alternates a set-up probe and the workload for S seconds
(at least five times), and reports the end-to-end metrics of
``BENCHMARK.json`` as medians over the run:

    wall_s        spawn to exit of one invocation
    setup_s       spawn until ``import coinvest`` and ``load_config`` are
                  done, from ``child.py setup`` probes
    cpu_s         user + system CPU time of the invocation (its rusage)
    peak_rss_mb   ``ru_maxrss`` of the invocation
    units_per_s   work units / wall_s: realizations settled (simulate),
                  periods x realizations (payback), CSV rows (plan)
    ok_frac       invocations that passed / attempted

``--trace 1`` runs pairs of untraced (``child.py run``) and traced
(``child.py trace``) invocations for S seconds, the two in alternating
order, and reports the per-layer metrics of ``layers.py`` as medians over
the traced ones, plus ``trace.overhead_s``, the median over pairs of
traced minus untraced ``wall_s``.

An invocation fails on a nonzero exit (a ``MemoryError`` under the cap
included), on any check of ``checks.py``, on a mismatch with
``reference.json``, or when its CSV and sidecar bytes differ from the
run's first invocation.  The last line of standard output is the JSON
result; the samples, checks and environment go to
``perfbench/_work/record-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import layers
from workloads import WORKLOADS, config_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SRC = os.path.join(ROOT, "src")

MIN_INVOCATIONS = 5
DEADLINE_S = 165.0  # every child is killed by then; the contract allows 180 s
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "units_per_s": "1/s",
    "ok_frac": "ratio",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Exit:
    rc: int
    start: float
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts the benchmark's child processes, each capped and reaped."""

    def __init__(self, cap_mb: int, started: float):
        self.cap = cap_mb << 20
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "COINVEST_THREADS"}
        self.env["PYTHONPATH"] = SRC

    def _limit(self):
        resource.setrlimit(resource.RLIMIT_AS, (self.cap, self.cap))

    def run(self, argv: list, tag: str) -> Exit:
        timeout = max(1.0, DEADLINE_S - (now() - self.started))
        out_path = os.path.join(WORK, tag + ".stdout")
        err_path = os.path.join(WORK, tag + ".stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = now()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err, preexec_fn=self._limit
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return Exit(
            proc.returncode, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout, stderr
        )

    def cli(self, args: list, tag: str) -> Exit:
        return self.run([sys.executable, "-m", "coinvest.cli", *args], tag)

    def child(self, args: list, tag: str) -> Exit:
        return self.run([sys.executable, os.path.join(HERE, "child.py"), *args], tag)

    def setup_probe(self, config: str, tag: str):
        """Seconds from spawn until the scenario is ready, or None."""
        e = self.child(["setup", config], tag)
        if e.rc != 0:
            return None
        return float(e.stdout.split()[-1]) - e.start


class Judge:
    """Checks invocation outputs; identical bytes are checked once."""

    def __init__(self, workload, seed: int, facts: dict, reference: dict):
        self.workload = workload
        self.seed = seed
        self.facts = facts
        self.reference = reference
        self.first_digest = None
        self.verdicts = {}
        self.values = None

    def __call__(self, e: Exit, csv_path: str) -> list:
        if e.rc != 0:
            tail = e.stderr.strip().splitlines()[-1:] or [""]
            cause = "memory cap" if "MemoryError" in e.stderr else "nonzero exit"
            return [f"{cause}: exit {e.rc}: {tail[0]}"]
        sidecar_path = os.path.splitext(csv_path)[0] + ".json"
        try:
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            with open(sidecar_path, "rb") as fh:
                sidecar_bytes = fh.read()
        except OSError as exc:
            return [f"missing output: {exc}"]
        digest = hashlib.sha256(csv_bytes + b"\0" + sidecar_bytes).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(csv_bytes, sidecar_bytes)
        problems = list(self.verdicts[digest])
        if digest != self.first_digest:
            problems.append("CSV or sidecar bytes differ from the run's first invocation")
        return problems

    def _check(self, csv_bytes: bytes, sidecar_bytes: bytes) -> list:
        try:
            sidecar = json.loads(sidecar_bytes)
            csv_text = csv_bytes.decode()
        except ValueError as exc:
            return [f"unreadable output: {exc}"]
        problems = checks.check_outputs(self.workload, self.facts, csv_text, sidecar)
        if problems:
            return problems
        values = checks.reference_values(self.workload, sidecar)
        if self.values is None:
            self.values = values
        return checks.compare_reference(self.workload, self.seed, values, self.reference)


def environment(seed: int, runner: Runner) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "coinvest")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workers": 1,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "mem_cap_mb": runner.cap >> 20,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def summary_line(name: str, values: list, unit: str, count: str = "") -> str:
    """``name median unit n=... min=... max=...``; ``count`` overrides n."""
    if not values:
        return f"{name:<40} n=0"
    return (
        f"{name:<40} {median(values):>14.6g} {unit:<6} n={count or len(values)}"
        f" min={min(values):.6g} max={max(values):.6g}"
    )


def run_untraced(runner, workload, config, seed, seconds, judge, record) -> tuple:
    out = os.path.join(WORK, f"{workload.name}.csv")
    samples, setup, cycles = [], [], []
    loop_start = now()
    while len(cycles) < MIN_INVOCATIONS or now() - loop_start + median(cycles) <= seconds:
        if now() - runner.started > DEADLINE_S:
            break
        cycle_start = now()
        # Probes are spread over the run like the invocations: on a shared
        # host the speed can step by half within seconds, and a block of
        # probes would sample one step.  A probe right after a workload
        # invocation is not slower than one right after a probe (paired
        # median difference -3 ms, 15 pairs each after bounded-plan and
        # bounded-sim, 2 vCPUs of a shared Xeon).
        value = runner.setup_probe(config, f"setup{len(cycles)}")
        if value is not None:
            setup.append(value)
        e = runner.cli(workload.cli_args(config, out, seed), f"cli{len(samples)}")
        problems = judge(e, out)
        samples.append(
            {"rc": e.rc, "wall_s": e.wall_s, "cpu_s": e.cpu_s, "peak_rss_mb": e.maxrss_mb, "problems": problems}
        )
        cycles.append(now() - cycle_start)
    if not setup:
        raise RuntimeError("no set-up probe succeeded; see perfbench/_work/setup*.stderr")
    record["setup_s"] = setup
    record["invocations"] = samples
    good = [s for s in samples if not s["problems"]] or samples
    series = {
        "wall_s": [s["wall_s"] for s in good],
        "setup_s": setup,
        "cpu_s": [s["cpu_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
        "units_per_s": [workload.units() / s["wall_s"] for s in good],
    }
    failed = sum(bool(s["problems"]) for s in samples)
    for name, values in series.items():
        print(summary_line(name, values, UNITS[name]))
    metrics = {name: median(values) for name, values in series.items()}
    metrics["ok_frac"] = (len(samples) - failed) / len(samples)
    print(summary_line("ok_frac", [metrics["ok_frac"]], "ratio", f"{len(samples)} invocations"))
    return metrics, len(samples), failed


def run_traced(runner, workload, config, seed, seconds, judge, record) -> tuple:
    out = os.path.join(WORK, f"{workload.name}.csv")
    traced_out = os.path.join(WORK, f"{workload.name}-traced.csv")
    trace_json = os.path.join(WORK, f"{workload.name}-trace.json")
    overhead, per_layer, samples = [], [], []

    def invoke(trace: bool) -> tuple:
        if trace:
            path, argv = traced_out, ["trace", trace_json]
        else:
            path, argv = out, ["run"]
        e = runner.child([*argv, *workload.cli_args(config, path, seed)], f"{argv[0]}{len(samples)}")
        problems = judge(e, path)
        samples.append({"traced": trace, "rc": e.rc, "wall_s": e.wall_s, "problems": problems})
        return problems, e.wall_s

    loop_start = now()
    pair = []
    while not pair or now() - loop_start + median(pair) <= seconds:
        if now() - runner.started > DEADLINE_S:
            break
        pair_start = now()
        # Each side goes first in every other pair.
        order = (True, False) if len(pair) % 2 else (False, True)
        result = {trace: invoke(trace) for trace in order}
        pair.append(now() - pair_start)
        (problems, traced_s), (untraced_problems, untraced_s) = result[True], result[False]
        if not problems and not untraced_problems:
            overhead.append(traced_s - untraced_s)
        if problems:
            continue
        with open(trace_json) as fh:
            trace = json.load(fh)
        with open(traced_out, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        output_bytes = os.path.getsize(traced_out) + os.path.getsize(os.path.splitext(traced_out)[0] + ".json")
        per_layer.append(layers.layer_metrics(trace["spans"], trace["counts"], rows, output_bytes))
    record["invocations"] = samples
    failed = sum(bool(s["problems"]) for s in samples)
    metrics = {name: median([m[name] for m in per_layer]) for name in layers.UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = median(overhead)
    for name in layers.UNITS:
        values = overhead if name == "trace.overhead_s" else [m[name] for m in per_layer]
        print(summary_line(name, values or [metrics[name]], layers.UNITS[name], f"{len(values)} traced"))
    if per_layer:
        top = layers.dominant(metrics)
        predicted = layers.PREDICTED_DOMINANT[workload.name]
        verdict = "confirmed" if top == predicted else f"NOT confirmed: {predicted} = {metrics[predicted]:.4g} s"
        print(f"dominant self time: {top} = {metrics[top]:.4g} s; predicted {predicted}: {verdict}")
        record["dominant"] = {"measured": top, "predicted": predicted}
    return metrics, len(samples), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = now()
    if not os.path.isfile(os.path.join(SRC, "coinvest", "cli.py")):
        print(f"error: no coinvest sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(workload.mem_cap_mb, started)
    config = config_path(workload, args.seed, WORK)
    reference_path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(reference_path):
        with open(reference_path) as fh:
            reference = json.load(fh)
    # The first probe compiles bytecode in a fresh checkout; it is not timed.
    if runner.setup_probe(config, "warmup") is None:
        print("error: coinvest does not import or load the config; see perfbench/_work/warmup.stderr", file=sys.stderr)
        return 1
    facts = checks.scenario_facts(workload, config)
    judge = Judge(workload, args.seed, facts, reference)
    record = {
        "workload": workload.name,
        "cli_args": workload.cli_args(config, "OUT.csv", args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, runner),
    }
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    measure = run_traced if args.trace else run_untraced
    metrics, attempted, failed = measure(runner, workload, config, args.seed, args.seconds, judge, record)
    units = layers.UNITS if args.trace else UNITS
    problems = sorted({p for s in record["invocations"] for p in s["problems"]})
    record.update(metrics=metrics, reference_values=judge.values, problems=problems)
    with open(os.path.join(WORK, f"record-{workload.name}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems[:10]:
        print(f"problem: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
