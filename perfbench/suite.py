"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--trace]
                               [--out FILE] [--record-reference]

For every workload (by default those of BENCHMARK.json) and seed it runs ``run.py`` for BENCHMARK.json's
``run_seconds`` and prints, per end-to-end metric, the median over the
seeds, the quartiles, the spread (q3 - q1) / median beside the metric's
bound, and the number of runs.  ``--trace`` adds one traced run per
workload on the first seed.  ``--out`` writes the table and the
environment as JSON (``baseline.json`` is such a file).

``--record-reference`` instead runs each workload once per seed, checks
its outputs and adds its sidecar numbers to ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import checks
from run import Runner, now
from workloads import WORKLOADS, config_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")


def seeds(raw: str) -> list:
    out = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("problem", "dominant")):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    with open(os.path.join(HERE, "_work", f"record-{workload}-{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def spread_table(results: list, bounds: dict) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        table[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
            "unit": results[0]["metrics"][name]["unit"],
            "runs": len(values),
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: those of BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seed_list = seeds(args.seeds)
    if args.record_reference:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        for name in names:
            record_reference(WORKLOADS[name], seed_list)
        return 0
    report = {"run_seconds": seconds, "seeds": seed_list, "workloads": {}, "per_layer": {}}
    for name in names:
        results = [run(name, s, seconds, 0) for s in seed_list]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        table = spread_table(results, bounds)
        report["workloads"][name] = {"attempted": attempted, "failed": failed, "metrics": table}
        report.setdefault("environment", record(name, seed_list[0], 0)["environment"])
        print(f"{name}: {len(results)} runs, {attempted} invocations, {failed} failed")
        for metric, row in table.items():
            ratio = f"{row['spread'] / row['bound']:.2f} of bound {row['bound']}" if row["bound"] else ""
            print(
                f"  {metric:<12} {row['median']:>14.6g} {row['unit']:<6} q1={row['q1']:.6g} q3={row['q3']:.6g}"
                f" spread={row['spread']:.4f} {ratio} runs={row['runs']}"
            )
        if args.trace:
            traced = run(name, seed_list[0], seconds, 1)
            report["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def record_reference(workload, seed_list: list):
    """Run the workload once per seed and merge its sidecar numbers into reference.json."""
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    entry = reference.setdefault(workload.name, {})
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"reference-{workload.name}.csv")
    if workload.command == "plan":  # takes no seed
        seed_list = seed_list[:1]
    for seed in seed_list:
        config = config_path(workload, seed, WORK)
        e = Runner(workload.mem_cap_mb, now()).cli(workload.cli_args(config, out, seed), f"reference{seed}")
        if e.rc != 0:
            sys.exit(f"{workload.name} seed {seed}: exit {e.rc}\n{e.stderr}")
        with open(out) as fh:
            csv_text = fh.read()
        with open(os.path.splitext(out)[0] + ".json") as fh:
            sidecar = json.load(fh)
        problems = checks.check_outputs(workload, checks.scenario_facts(workload, config), csv_text, sidecar)
        if problems:
            sys.exit(f"{workload.name} seed {seed}: {problems[0]}")
        free, per_seed = checks.split_reference(workload, checks.reference_values(workload, sidecar))
        if entry.setdefault("seed_free", free) != free:
            sys.exit(f"{workload.name} seed {seed}: seed-free values differ between seeds")
        if per_seed:
            entry.setdefault("per_seed", {})[str(seed)] = per_seed
        print(f"{workload.name} seed {seed}: recorded {len(free) + len(per_seed)} values")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
