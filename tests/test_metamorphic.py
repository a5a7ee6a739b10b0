"""Relations that follow from the paper's model alone, checked end to end through ``cli.main``.

Every run is on a shipped config, edge-bounded over 0.05 years (438 slots)
and edge-fbm over 0.5 years (4 380 slots), and every relation holds to
round-off, 1e-12 relative, with both sides solved afresh.  edge-fbm's
expected load grows as t^H from 0, so over 0.05 years every coalition plans
capacity 0; every plan run asserts that some coalition's capacity is above 0,
so that no relation compares only zeros.

Price scale: doubling ``capacity_price``, ``maintenance_price`` and every
``benefit`` doubles the planning objective, so capacity and shares stay
put while every value, Shapley payoff, sigma-hat and delta-hat doubles;
the utility ranges double too, so every Hoeffding bound stays put.  In
``simulate`` every realized value doubles with them, so the payoffs
double and the stability and profitability frequencies stay put.  Both
configs are checked through ``plan`` and ``simulate``, edge-bounded also
through ``stability``.

SP order: reversing ``players`` permutes every per-SP result, matches
each coalition's capacity by its member set and leaves delta-hat put, also
when the two SPs' benefits differ.  ``simulate`` is exempt, since its
substreams are keyed by SP index.

Null SP: an SP with no expected load adds nothing to any coalition, so
every coalition's plan and value stay put with or without it (edge-fbm,
through ``plan``), its Shapley payoff is zero and the others' stay put.  The singleton coalition
of the null SP then has a surplus of zero, so delta-hat is zero and the
joint Hoeffding bound is 0: the bound's limit at AC11's lopsided case.
"""

import copy
import csv
import json
import pathlib

import pytest

from coinvest.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
REL = 1e-12


def rel(a, b):
    """Relative difference of ``a`` and ``b``, 0 when they are equal (zeros included)."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


YEARS = {"edge-bounded": 0.05, "edge-fbm": 0.5}


def shipped(name="edge-bounded", benefits=None):
    """The shipped config ``name`` over ``YEARS[name]``, with the SPs' ``benefits`` when given."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["economics"]["investment_years"] = YEARS[name]
    if benefits:
        for player, benefit in zip(cfg["players"], benefits, strict=True):
            player["benefit"] = benefit
    return cfg


def doubled(cfg):
    """``cfg`` at twice its prices and benefits."""
    double = copy.deepcopy(cfg)
    double["economics"]["capacity_price"] *= 2.0
    double["economics"]["maintenance_price"] *= 2.0
    for player in double["players"]:
        player["benefit"] *= 2.0
    return double


def run(tmp_path_factory, cfg, command, *flags):
    """``(sidecar, CSV rows)`` of ``coinvest command`` on ``cfg``."""
    root = tmp_path_factory.mktemp(command)
    (root / "scenario.json").write_text(json.dumps(cfg))
    assert main([command, str(root / "scenario.json"), *flags, "--out", str(root / "out.csv")]) == 0
    sidecar = json.loads((root / "out.json").read_text())
    if command == "plan":  # a plan of zeros only would make every relation on it vacuous
        assert max(c["capacity_vcores"] for c in sidecar["coalitions"]) > 0.0
    return sidecar, list(csv.reader((root / "out.csv").read_text().splitlines()))


@pytest.fixture(scope="module")
def price_scale_runs(tmp_path_factory):
    """``(plan sidecar, plan rows, stability sidecar)`` on edge-bounded at the shipped prices and at twice them."""
    runs = []
    for cfg in (shipped(), doubled(shipped())):
        plan, rows = run(tmp_path_factory, cfg, "plan", "--all-coalitions")
        stab, _ = run(tmp_path_factory, cfg, "stability", "--sweep", "0.1,0.15,0.2,0.25,0.3")
        runs.append((plan, rows, stab))
    return runs


def assert_same_capacity_and_shares(plan, rows, plan2, rows2):
    for b, d in zip(plan["coalitions"], plan2["coalitions"], strict=True):
        assert rel(b["capacity_vcores"], d["capacity_vcores"]) <= REL, b["coalition"]
    assert len(rows) == 1 + 2 * 4 * plan["horizon_slots"] and rows[0] == rows2[0]
    for b, d in zip(rows[1:], rows2[1:], strict=True):  # coalition, capacity, player, slot, share
        assert (b[0], b[2], b[3]) == (d[0], d[2], d[3]) and rel(float(b[4]), float(d[4])) <= REL, b


def assert_doubled_values(plan, plan2):
    for b, d in zip(plan["coalitions"], plan2["coalitions"], strict=True):
        assert rel(2.0 * b["expected_value"], d["expected_value"]) <= REL, b["coalition"]
        assert rel(2.0 * b["cost"], d["cost"]) <= REL, b["coalition"]


def test_doubling_prices_keeps_capacity_and_shares(price_scale_runs):
    (plan, rows, _), (plan2, rows2, _) = price_scale_runs
    assert plan["horizon_slots"] == 438
    assert_same_capacity_and_shares(plan, rows, plan2, rows2)


def test_doubling_prices_doubles_values_payoffs_sigma_and_delta(price_scale_runs):
    (plan, _, stab), (plan2, _, stab2) = price_scale_runs
    assert_doubled_values(plan, plan2)
    for key in ("grand_value", "sigma_hat", "delta"):
        assert rel(2.0 * stab[key], stab2[key]) <= REL, key
    for name, payoff in stab["expected_payoff"].items():
        assert rel(2.0 * payoff, stab2["expected_payoff"][name]) <= REL, name


def test_doubling_prices_keeps_every_stability_bound(price_scale_runs):
    (_, _, stab), (_, _, stab2) = price_scale_runs
    assert all(0.0 < s["nu_lb"] < 1.0 for s in stab["sweep"])  # no bound here is trivially 0 or 1
    for b, d in zip(stab["sweep"], stab2["sweep"], strict=True):
        assert b["spread"] == d["spread"] and rel(b["nu_lb"], d["nu_lb"]) <= REL, b["spread"]
        for name, bound in b["player_bounds"].items():
            assert rel(bound, d["player_bounds"][name]) <= REL, (b["spread"], name)


def test_doubling_prices_on_edge_fbm_keeps_capacity_and_shares_and_doubles_values(tmp_path_factory):
    cfg = shipped("edge-fbm")
    (plan, rows), (plan2, rows2) = (run(tmp_path_factory, c, "plan", "--all-coalitions") for c in (cfg, doubled(cfg)))
    assert plan["horizon_slots"] == 4380
    assert_same_capacity_and_shares(plan, rows, plan2, rows2)
    assert_doubled_values(plan, plan2)


@pytest.fixture(scope="module", params=(0.3, 1.0, None), ids=("spread-0.3", "spread-1", "edge-fbm"))
def price_scale_simulations(request, tmp_path_factory):
    """``(simulate sidecar, simulate rows)`` at the shipped prices and at twice them.

    On edge-bounded at the shipped spread, 0.3, every realization is stable and profitable; at
    spread 1, 9 of 20 are stable, so the stability frequency can move.  On edge-fbm both the
    stability and the joint profit frequency are 0 at either price, so there only the payoffs'
    relation carries information.
    """
    if request.param is None:
        cfg = shipped("edge-fbm")
    else:
        cfg = shipped()
        cfg["uncertainty"]["spread"] = request.param
    flags = ("--realizations", "20", "--seed", "3")
    return [run(tmp_path_factory, c, "simulate", *flags) for c in (cfg, doubled(cfg))]


def test_doubling_prices_keeps_simulated_frequencies(price_scale_simulations):
    (sim, _), (sim2, _) = price_scale_simulations
    if sim["config"]["uncertainty"].get("spread") == 1.0:
        assert 0.0 < sim["stability_frequency"] < 1.0  # not trivially 0 or 1
    for key in ("stability_frequency", "joint_profit_probability", "profit_probability"):
        assert sim[key] == sim2[key], key


def test_doubling_prices_doubles_simulated_payoffs(price_scale_simulations):
    (sim, rows), (sim2, rows2) = price_scale_simulations
    assert len(rows) == 1 + 20 * 3 and rows[0] == rows2[0]
    assert any(float(b[5]) != 0.0 for b in rows[1:])  # not only zeros
    for b, d in zip(rows[1:], rows2[1:], strict=True):  # omega, player, ..., shapley_payoff, deviation
        assert b[:2] == d[:2] and rel(2.0 * float(b[5]), float(d[5])) <= REL, b[:2]
    for name, quantiles in sim["payoff_quantiles"].items():
        for label, q in quantiles.items():
            assert rel(2.0 * q, sim2["payoff_quantiles"][name][label]) <= REL, (name, label)


def members(label):
    return frozenset(label.split("+"))


def shares_by_members(rows):
    """``{(coalition members, player, slot): share}`` of plan rows."""
    return {(members(c), player, slot): float(share) for c, _, player, slot, share in rows[1:]}


def assert_close(mine, theirs, what):
    """Dicts of floats with the same keys, every value within ``REL`` relative."""
    assert mine.keys() == theirs.keys(), what
    for key, value in mine.items():
        assert rel(value, theirs[key]) <= REL, (what, key)


def reversed_players(cfg):
    flipped = copy.deepcopy(cfg)
    flipped["players"].reverse()
    return flipped


# Unequal benefits, so that the reversal moves a benefit with its SP.
UNEQUAL = (6e-6, 9e-6)


@pytest.fixture(
    scope="module",
    params=(("edge-bounded", None), ("edge-fbm", None), ("edge-bounded", UNEQUAL)),
    ids=("edge-bounded", "edge-fbm", "edge-bounded-unequal-benefits"),
)
def order_runs(request, tmp_path_factory):
    """``(plan sidecar, plan rows)`` of ``plan --all-coalitions`` in the shipped and in the reversed SP order."""
    cfg = shipped(*request.param)
    return [run(tmp_path_factory, c, "plan", "--all-coalitions") for c in (cfg, reversed_players(cfg))]


def test_reversing_players_permutes_the_plan(order_runs):
    (plan, rows), (flipped, flipped_rows) = order_runs
    assert plan["players"][1:] == flipped["players"][:0:-1]
    slots = plan["horizon_slots"]
    assert len(rows) == len(flipped_rows) == 1 + 2 * 4 * slots and rows[0] == flipped_rows[0]
    assert_close(shares_by_members(rows), shares_by_members(flipped_rows), "share")
    for key in ("capacity_vcores", "expected_value"):
        by_members = [{members(c["coalition"]): c[key] for c in p["coalitions"]} for p in (plan, flipped)]
        assert_close(*by_members, key)


def assert_stability_reverses(tmp_path_factory, cfg):
    flags = ("--sweep", "0.1,0.3")
    stab, flipped = (run(tmp_path_factory, c, "stability", *flags)[0] for c in (cfg, reversed_players(cfg)))
    for key in ("grand_value", "sigma_hat", "delta"):
        assert rel(stab[key], flipped[key]) <= REL, key
    assert_close(stab["expected_payoff"], flipped["expected_payoff"], "expected_payoff")
    for b, d in zip(stab["sweep"], flipped["sweep"], strict=True):
        assert b["spread"] == d["spread"] and rel(b["nu_lb"], d["nu_lb"]) <= REL, b["spread"]
        assert_close(b["player_bounds"], d["player_bounds"], b["spread"])


def test_reversing_players_permutes_payoffs_and_bounds_and_keeps_delta(tmp_path_factory):
    assert_stability_reverses(tmp_path_factory, shipped())


def test_reversing_players_with_unequal_benefits_permutes_payoffs_and_bounds(tmp_path_factory):
    assert_stability_reverses(tmp_path_factory, shipped(benefits=UNEQUAL))


def test_a_null_sp_gets_nothing_and_zeroes_the_joint_bound(tmp_path_factory):
    cfg = shipped()
    with_null = copy.deepcopy(cfg)
    with_null["players"].append({"name": "idle", "benefit": 6e-06, "profile": {"base_rate": 0.0, "period": 24}})
    stab, null = (run(tmp_path_factory, c, "stability")[0] for c in (cfg, with_null))
    payoff = null["expected_payoff"]
    assert abs(payoff.pop("idle")) <= 1e-12 * max(map(abs, payoff.values()))
    assert_close(stab["expected_payoff"], payoff, "expected_payoff")
    assert 0.0 <= null["delta"] <= 1e-12 * null["grand_value"]
    assert stab["sweep"][0]["nu_lb"] > 0.0 and null["sweep"][0]["nu_lb"] == 0.0


def test_a_null_sp_on_edge_fbm_leaves_every_plan_put(tmp_path_factory):
    cfg = shipped("edge-fbm")
    with_null = copy.deepcopy(cfg)
    with_null["players"].append({"name": "idle", "benefit": 6e-06, "profile": {"base_rate": 0.0, "period": 24}})
    plan, null = (run(tmp_path_factory, c, "plan", "--all-coalitions")[0] for c in (cfg, with_null))
    assert len(null["coalitions"]) == 2 * len(plan["coalitions"])
    for key in ("capacity_vcores", "expected_value"):
        mine = {members(c["coalition"]) - {"none"}: c[key] for c in plan["coalitions"]}
        for c in null["coalitions"]:  # each coalition with or without the null SP is the one without
            assert rel(c[key], mine[members(c["coalition"]) - {"none", "idle"}]) <= REL, (key, c["coalition"])
