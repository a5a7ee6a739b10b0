"""Relations that follow from the paper's model alone, checked end to end through ``cli.main``.

Price scale: doubling ``capacity_price``, ``maintenance_price`` and every
``benefit`` doubles the planning objective, so capacity and shares stay
put while every value, Shapley payoff, sigma-hat and delta-hat doubles;
the utility ranges double too, so every Hoeffding bound stays put.  Both
sides are solved afresh and agree to round-off, 1e-12 relative.
"""

import copy
import csv
import json
import pathlib

import pytest

from coinvest.cli import main

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "edge-bounded.json"
REL = 1e-12


def rel(a, b):
    """Relative difference of ``a`` and ``b``, 0 when they are equal (zeros included)."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


@pytest.fixture(scope="module")
def price_scale_runs(tmp_path_factory):
    """``(plan sidecar, plan rows, stability sidecar)`` on edge-bounded over 0.05 years
    (438 slots), at the shipped prices and at twice them."""
    base = json.loads(CONFIG.read_text())
    base["economics"]["investment_years"] = 0.05
    double = copy.deepcopy(base)
    double["economics"]["capacity_price"] *= 2.0
    double["economics"]["maintenance_price"] *= 2.0
    for player in double["players"]:
        player["benefit"] *= 2.0
    runs = []
    for cfg in (base, double):
        root = tmp_path_factory.mktemp("prices")
        (root / "scenario.json").write_text(json.dumps(cfg))
        path = str(root / "scenario.json")
        assert main(["plan", path, "--all-coalitions", "--out", str(root / "p.csv")]) == 0
        assert main(["stability", path, "--sweep", "0.1,0.15,0.2,0.25,0.3", "--out", str(root / "s.csv")]) == 0
        rows = list(csv.reader((root / "p.csv").read_text().splitlines()))
        runs.append((json.loads((root / "p.json").read_text()), rows, json.loads((root / "s.json").read_text())))
    return runs


def test_doubling_prices_keeps_capacity_and_shares(price_scale_runs):
    (plan, rows, _), (plan2, rows2, _) = price_scale_runs
    for b, d in zip(plan["coalitions"], plan2["coalitions"], strict=True):
        assert rel(b["capacity_vcores"], d["capacity_vcores"]) <= REL, b["coalition"]
    assert len(rows) == 1 + 2 * 4 * 438 and rows[0] == rows2[0]
    for b, d in zip(rows[1:], rows2[1:], strict=True):  # coalition, capacity, player, slot, share
        assert (b[0], b[2], b[3]) == (d[0], d[2], d[3]) and rel(float(b[4]), float(d[4])) <= REL, b


def test_doubling_prices_doubles_values_payoffs_sigma_and_delta(price_scale_runs):
    (plan, _, stab), (plan2, _, stab2) = price_scale_runs
    for b, d in zip(plan["coalitions"], plan2["coalitions"], strict=True):
        assert rel(2.0 * b["expected_value"], d["expected_value"]) <= REL, b["coalition"]
        assert rel(2.0 * b["cost"], d["cost"]) <= REL, b["coalition"]
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
