"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import BOUNDED_CONFIG, WORKLOADS, wide_config  # noqa: E402


def test_self_time_subtracts_direct_children_on_the_same_thread():
    spans = [
        ["a", 1, 0.0, 10.0, None],
        ["b", 1, 2.0, 5.0, 0],
        ["c", 1, 3.0, 4.0, 1],
        ["d", 2, 1.0, 9.0, None],  # another thread: not a child of a
        ["e", 1, 6.0, 7.0, 0],
    ]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 8.0, 1.0]


def test_layer_metrics_from_spans():
    spans = [
        ["cli.main", 1, 0.0, 10.0, None],
        ["cli.load_config", 1, 0.0, 0.5, 0],
        ["montecarlo.simulate", 1, 1.0, 8.0, 0],
        ["traffic.sample_loads", 1, 1.0, 3.0, 2],
        ["traffic.sample_loads", 1, 3.0, 4.0, 2],
        ["traffic.expected_load_matrix", 1, 4.0, 4.5, 2],
        ["allocation.closed_form", 1, 8.0, 8.5, 0],
        ["allocation.closed_form", 1, 8.5, 9.0, 0],
    ]
    counts = {"montecarlo.realizations": 2, "allocation.closed_form_rejects": 1}
    m = layers.layer_metrics(spans, counts, rows=1000, output_bytes=5)
    assert m["cli.self_s"] == 10.0 - 0.5 - 7.0 - 1.0
    assert m["cli.us_per_row"] == m["cli.self_s"] / 1000 * 1e6
    assert m["montecarlo.simulate_s"] == 7.0
    assert m["montecarlo.settle_self_s"] == 7.0 - 3.0 - 0.5
    assert m["montecarlo.settle_us_per_realization"] == 3.5 / 2 * 1e6
    assert m["traffic.draws"] == 2 and m["traffic.draw_s"] == 3.0
    assert m["traffic.draw_ms_p50"] == 1500.0
    assert m["allocation.closed_form_calls"] == 2
    assert m["allocation.closed_form_hit_ratio"] == 0.5
    assert m["allocation.numeric_calls"] == 0 and m["allocation.numeric_ms_p50"] == 0.0
    assert layers.dominant(m) == "montecarlo.settle_self_s"
    assert set(m) == set(layers.UNITS) - {"trace.overhead_s"}


def test_tracer_keeps_a_span_stack_per_thread():
    tracer = child.Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    worker = threading.Thread(target=mod.inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    names_parents = [(s[0], s[4]) for s in tracer.spans]
    assert names_parents == [("outer", None), ("inner", 0), ("inner", None)]
    assert all(s[2] <= s[3] for s in tracer.spans)


def _simulate(workload, seed):
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, "test-sim.csv")
    runner = run.Runner(workload.mem_cap_mb, run.now())
    return runner.cli(workload.cli_args(BOUNDED_CONFIG, out, seed), "test-sim"), out


def test_corrupted_output_csv_counts_as_failure():
    workload = dataclasses.replace(WORKLOADS["bounded-sim"], realizations=5)
    facts = checks.scenario_facts(workload, os.path.join(ROOT, BOUNDED_CONFIG))
    exit_, out = _simulate(workload, seed=3)
    assert exit_.rc == 0, exit_.stderr
    judge = run.Judge(workload, 3, facts, reference={})
    assert judge(exit_, out) == []

    with open(out) as fh:
        lines = fh.read().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[3] = repr(float(fields[3]) * 1.001)  # one payment off by 0.1 %
    lines[2] = ",".join(fields)
    with open(out, "w") as fh:
        fh.writelines(lines)
    problems = judge(exit_, out)
    assert any("payments sum" in p for p in problems)
    assert any("differ from the run's first invocation" in p for p in problems)

    with open(out, "w") as fh:
        fh.writelines(lines[:-1])  # a truncated table
    assert any("CSV rows" in p for p in run.Judge(workload, 3, facts, {})(exit_, out))

    failed = run.Exit(1, 0.0, 0.0, 0.0, 0.0, "", "Traceback\nMemoryError: Unable to allocate")
    assert run.Judge(workload, 3, facts, {})(failed, out) == [
        "memory cap: exit 1: MemoryError: Unable to allocate"
    ]


def test_payback_checks_catch_bad_rows():
    workload = dataclasses.replace(WORKLOADS["fbm-payback"], realizations=2, periods=(1,))
    facts = {"slot_hours": 1.0}
    header = ",".join(checks.HEADERS["payback"]) + "\n"
    sidecar = {"periods": [{"investment_years": 1.0, "censored": 1}]}
    good = header + "1,0,876,0.10000000000000001,0\n1,1,,,1\n"
    assert checks.check_outputs(workload, facts, good, sidecar) == []
    bad_years = header + "1,0,876,0.2,0\n1,1,,,1\n"
    assert checks.check_outputs(workload, facts, bad_years, sidecar)
    censored_with_slot = header + "1,0,876,0.10000000000000001,0\n1,1,5,,1\n"
    assert checks.check_outputs(workload, facts, censored_with_slot, sidecar)


def test_reference_mismatch_is_reported():
    workload = WORKLOADS["bounded-sim"]
    values = {"grand_value": 10.0, "delta": 2.0, "stability_frequency": 0.5}
    free, per_seed = checks.split_reference(workload, values)
    assert free == {"grand_value": 10.0, "delta": 2.0}
    reference = {workload.name: {"seed_free": free, "per_seed": {"4": per_seed}}}
    assert checks.compare_reference(workload, 4, values, reference) == []
    assert checks.compare_reference(workload, 4, dict(values, stability_frequency=0.6), reference)
    # An unrecorded seed is held to the seed-free values only.
    assert checks.compare_reference(workload, 5, dict(values, stability_frequency=0.6), reference) == []
    assert checks.compare_reference(workload, 5, dict(values, grand_value=10.1), reference)


def test_wide_config_seeds_vary_the_data_not_the_work():
    from coinvest.cli import load_config
    from coinvest.game import build_value_table

    workload = WORKLOADS["wide-sim"]
    shapes = []
    for seed in (1, 2):
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"test-wide-{seed}.json")
        with open(path, "w") as fh:
            json.dump(wide_config(seed), fh)
        scenario, _ = load_config(path)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        numeric = sum(p.method == "numeric" for p in table.plans)
        shapes.append((scenario.n_players, scenario.horizon, len(table.plans), numeric))
    assert shapes[0] == shapes[1] == (workload.n_players, workload.slots, workload.coalitions, 0)
    assert workload.csv_rows() == workload.realizations * workload.n_players
    assert wide_config(1) != wide_config(2)
    assert wide_config(1) == wide_config(1)
