"""Checks on the CSV and sidecar one CLI invocation writes.

Every check returns a list of problems; an invocation with any problem
counts as failed.  ``reference_values`` flattens the sidecar numbers that
are compared with ``reference.json``.
"""

from __future__ import annotations

import csv
import io
import math

SUM_REL = 1e-9  # budget balance per realization, as the CLI contract states
YEARS_REL = 1e-12  # payback_years against slot * slot_hours / 8760
REFERENCE_REL = 1e-9  # sidecar numbers against reference.json
HOURS_PER_YEAR = 8760.0

HEADERS = {
    "simulate": ["omega", "player", "collected", "payment", "reward", "shapley_payoff", "deviation"],
    "payback": ["investment_years", "omega", "payback_slot", "payback_years", "censored"],
    "plan": ["coalition", "capacity_vcores", "player", "slot", "share_vcores"],
}
SEED_FREE = ("grand_value", "delta", "capacity_vcores")


def close(got: float, want: float, rel: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want), scale)


def scenario_facts(workload, config: str) -> dict:
    """Player names, slot length and, for ``simulate``, the installed cost.

    The installed cost is the grand coalition's planned capacity times
    the unit capacity cost, from the library on expected loads.
    """
    from coinvest.allocation import optimal_plan
    from coinvest.cli import load_config
    from coinvest.economics import cost
    from coinvest.players import PlayerSet

    scenario, _ = load_config(config)
    facts = {"names": list(scenario.player_names), "slot_hours": scenario.params.slot_hours}
    if workload.command == "simulate":
        n = scenario.n_players
        plan = optimal_plan(PlayerSet((1 << n) - 1, n), scenario.expected_loads(), scenario.params)
        facts["installed_cost"] = cost(scenario.params, plan.capacity)
    return facts


def check_outputs(workload, facts: dict, csv_text: str, sidecar: dict) -> list:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != HEADERS[workload.command]:
        return [f"CSV header {rows[0] if rows else None!r}"]
    body = rows[1:]
    if len(body) != workload.csv_rows():
        return [f"{len(body)} CSV rows, expected {workload.csv_rows()}"]
    try:
        if workload.command == "simulate":
            return _check_simulate(workload, facts, body, sidecar)
        if workload.command == "payback":
            return _check_payback(workload, facts, body, sidecar)
        return _check_plan(workload, body, sidecar)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]


def _check_simulate(workload, facts, body, sidecar) -> list:
    names = facts["names"]
    cost = facts["installed_cost"]
    problems = []
    for omega in range(workload.realizations):
        block = body[omega * len(names) : (omega + 1) * len(names)]
        if [int(r[0]) for r in block] != [omega] * len(names) or [r[1] for r in block] != names:
            problems.append(f"realization {omega}: rows out of order")
            continue
        collected, payments, rewards = ([float(r[c]) for r in block] for c in (2, 3, 4))
        if not all(map(math.isfinite, collected + payments + rewards)):
            problems.append(f"realization {omega}: non-finite value")
            continue
        scale = max(map(abs, payments))
        if not close(math.fsum(payments), cost, SUM_REL, scale):
            problems.append(f"realization {omega}: payments sum {math.fsum(payments)!r}, installed cost {cost!r}")
        scale = max(map(abs, rewards + collected))
        if not close(math.fsum(rewards), math.fsum(collected), SUM_REL, scale):
            problems.append(f"realization {omega}: rewards do not sum to collected")
    if sidecar.get("realizations") != workload.realizations:
        problems.append("sidecar realizations")
    return problems


def _check_payback(workload, facts, body, sidecar) -> list:
    problems = []
    slot_hours = facts["slot_hours"]
    r = workload.realizations
    for k, row in enumerate(body):
        years, omega = workload.periods[k // r], k % r
        if float(row[0]) != years or int(row[1]) != omega:
            problems.append(f"row {k}: period or realization out of order")
        elif row[4] == "1":
            if row[2] or row[3]:
                problems.append(f"row {k}: censored row carries a payback")
        elif row[4] != "0":
            problems.append(f"row {k}: censored flag {row[4]!r}")
        else:
            slot = int(row[2])
            horizon = years * HOURS_PER_YEAR / slot_hours
            if not 0 <= slot < horizon:
                problems.append(f"row {k}: payback slot {slot} outside the horizon")
            if not close(float(row[3]), slot * slot_hours / HOURS_PER_YEAR, YEARS_REL):
                problems.append(f"row {k}: payback_years {row[3]} for slot {slot}")
    meta = sidecar.get("periods", [])
    if [p.get("investment_years") for p in meta] != [float(y) for y in workload.periods]:
        problems.append("sidecar periods")
    for i, p in enumerate(meta):
        censored = sum(row[4] == "1" for row in body[i * r : (i + 1) * r])
        if p.get("censored") != censored:
            problems.append(f"sidecar period {i}: censored {p.get('censored')}, CSV {censored}")
    return problems


def _check_plan(workload, body, sidecar) -> list:
    problems = []
    capacity = {}
    slot_sums = {}
    for k, (label, cap, _player, slot, share) in enumerate(body):
        cap, slot, share = float(cap), int(slot), float(share)
        if capacity.setdefault(label, cap) != cap:
            problems.append(f"row {k}: capacity differs within coalition {label}")
        if not share >= 0.0:
            problems.append(f"row {k}: share {share!r}")
        key = (label, slot)
        slot_sums[key] = slot_sums.get(key, 0.0) + share
    for (label, slot), total in slot_sums.items():
        if total > capacity[label] * (1.0 + SUM_REL) + SUM_REL:
            problems.append(f"{label} slot {slot}: shares sum {total!r} above capacity {capacity[label]!r}")
    meta = sidecar.get("coalitions", [])
    if len(meta) != workload.coalitions:
        problems.append(f"sidecar lists {len(meta)} coalitions, expected {workload.coalitions}")
    for c in meta:
        if c.get("coalition") in capacity and capacity[c["coalition"]] != c.get("capacity_vcores"):
            problems.append(f"sidecar capacity of {c['coalition']}")
    return problems


def reference_values(workload, sidecar: dict) -> dict:
    """Flat ``{name: number}`` of the sidecar numbers ``reference.json`` pins."""
    out = {}

    def quantiles(prefix, q):
        for key, value in (q or {}).items():
            out[f"{prefix}payback_slot_quantiles.{key}"] = value

    if workload.command == "simulate":
        for key in ("grand_value", "delta", "stability_frequency"):
            out[key] = sidecar[key]
        quantiles("", sidecar["payback_slot_quantiles"])
    elif workload.command == "payback":
        for p in sidecar["periods"]:
            prefix = f"{p['investment_years']:g}y."
            out[prefix + "capacity_vcores"] = p["capacity_vcores"]
            out[prefix + "grand_value"] = p["grand_value"]
            out[prefix + "censored"] = p["censored"]
            quantiles(prefix, p["payback_slot_quantiles"])
    else:
        for c in sidecar["coalitions"]:
            out[f"{c['coalition']}.capacity_vcores"] = c["capacity_vcores"]
    return out


def compare_reference(workload, seed: int, values: dict, reference: dict) -> list:
    """Problems with ``values`` against the recorded ones for this workload.

    Seed-free numbers (``SEED_FREE`` suffixes, for workloads on a shipped
    config) are compared at every seed; the rest only at recorded seeds.
    """
    ref = reference.get(workload.name, {})
    expected = dict(ref.get("seed_free", {}))
    expected.update(ref.get("per_seed", {}).get(str(seed), {}))
    problems = []
    for key, want in expected.items():
        got = values.get(key)
        if got is None or not close(got, want, REFERENCE_REL):
            problems.append(f"reference {key}: got {got!r}, recorded {want!r}")
    return problems


def split_reference(workload, values: dict):
    """Split extracted values into (seed-free, seed-dependent) parts."""
    if workload.name == "wide-sim":  # its config comes from the seed
        return {}, dict(values)
    free = {k: v for k, v in values.items() if k.endswith(SEED_FREE)}
    return free, {k: v for k, v in values.items() if k not in free}
