"""Command-line front end.

Subcommands: ``plan`` (capacity and shares), ``stability`` (analytic
lower bounds), ``simulate`` (Monte Carlo settlement), ``payback``
(payback distribution across investment lengths).  Tables go to the CSV
named by ``--out``; machine-readable context goes to a JSON sidecar at
the same path with extension ``.json``, so ``--out`` must not end in
``.json``.  ``main`` loads the config and checks the flags once; each
command does all of its numeric work, then streams its rows into a temp
file in the output directory, renamed into place on success, so memory
does not grow with the row count.  Exit codes: 0 success, 1
configuration problem, 2 numeric failure, 3 command/model mismatch.

``COINVEST_THREADS`` caps simulation workers; output is byte-identical
at any setting.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

from .allocation import optimal_plan
from .economics import EconomicParams, HOURS_PER_YEAR
from .economics import cost as capacity_cost
from .game import (
    build_value_table,
    deviation_threshold,
    shapley,
    stability_lower_bound,
    stability_value_hat,
    utility_ranges,
)
from .montecarlo import PAYMENT_MODES, simulate, summarize
from .players import PlayerSet
from .scenario import Scenario
from .traffic import MAX_FBM_SLOTS, BoundedLoadModel, FbmLoadModel, RateProfile

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_MISMATCH = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class CommandMismatch(RuntimeError):
    """The command does not apply to the configured demand model."""


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    return obj[key]


def _check_keys(obj, path: str, allowed):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed and not key.startswith("_"):
            raise ConfigError(f"{path}.{key}: unknown field")


def _number(obj: dict, key: str, path: str, minimum=None, maximum=None, above=None):
    value = _require(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}: must be at most {maximum}")
    if above is not None and value <= above:
        raise ConfigError(f"{path}.{key}: must be greater than {above}")
    return value


def _profile(obj, path: str) -> RateProfile:
    _check_keys(obj, path, {"base_rate", "period", "components"})
    base = _number(obj, "base_rate", path, minimum=0.0)
    period = _require(obj, "period", path)
    if isinstance(period, bool) or not isinstance(period, int):
        raise ConfigError(f"{path}.period: expected an integer number of slots")
    if period > MAX_FBM_SLOTS:
        raise ConfigError(f"{path}.period: {period} slots exceeds the ceiling of {MAX_FBM_SLOTS}")
    components = obj.get("components", [])
    if not isinstance(components, list):
        raise ConfigError(f"{path}.components: expected a list of [amplitude, phase] pairs")
    pairs = []
    for k, comp in enumerate(components):
        if (
            not isinstance(comp, list)
            or len(comp) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in comp)
        ):
            raise ConfigError(f"{path}.components[{k}]: expected an [amplitude, phase] number pair")
        if not all(math.isfinite(v) for v in comp):
            raise ConfigError(f"{path}.components[{k}]: amplitude and phase must be finite")
        pairs.append((float(comp[0]), float(comp[1])))
    try:
        return RateProfile(base_rate=base, components=tuple(pairs), period=period)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str):
    """Parse and validate a scenario config; returns (scenario, normalized)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(cfg, "config", {"schema_version", "economics", "saturation", "uncertainty", "players"})

    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

    econ = _require(cfg, "economics", "config")
    _check_keys(econ, "economics", {"capacity_price", "maintenance_price", "investment_years", "slot_hours"})
    capacity_price = _number(econ, "capacity_price", "economics", minimum=0.0)
    maintenance_price = _number(econ, "maintenance_price", "economics", minimum=0.0)
    investment_years = _number(econ, "investment_years", "economics", above=0.0)
    slot_hours = _number(econ, "slot_hours", "economics", above=0.0)
    saturation = _number(cfg, "saturation", "config", above=0.0)

    unc = _require(cfg, "uncertainty", "config")
    kind = _require(unc, "kind", "uncertainty")
    if kind == "bounded":
        _check_keys(unc, "uncertainty", {"kind", "spread"})
        spread = _number(unc, "spread", "uncertainty", minimum=0.0, maximum=1.0)
        normalized_unc = {"kind": "bounded", "spread": spread}
    elif kind == "fbm":
        _check_keys(unc, "uncertainty", {"kind", "alpha", "hurst"})
        alpha = _number(unc, "alpha", "uncertainty", minimum=0.0, maximum=1.0)
        hurst = _number(unc, "hurst", "uncertainty", above=0.0)
        if hurst >= 1.0:
            raise ConfigError("uncertainty.hurst: must be below 1")
        normalized_unc = {"kind": "fbm", "alpha": alpha, "hurst": hurst}
    else:
        raise ConfigError(f"uncertainty.kind: expected 'bounded' or 'fbm', got {kind!r}")

    players = _require(cfg, "players", "config")
    if not isinstance(players, list) or not players:
        raise ConfigError("players: expected a nonempty list of SP descriptors")
    slot_seconds = slot_hours * 3600.0
    names, benefits, models, normalized_players = [], [], [], []
    for i, sp in enumerate(players):
        path = f"players[{i}]"
        _check_keys(sp, path, {"name", "benefit", "profile"})
        name = _require(sp, "name", path)
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path}.name: expected a nonempty string")
        if name == "InP":
            raise ConfigError(f"{path}.name: 'InP' is reserved for the infrastructure provider")
        if name in names:
            raise ConfigError(f"{path}.name: duplicate SP name {name!r}")
        benefit = _number(sp, "benefit", path, above=0.0)
        profile = _profile(_require(sp, "profile", path), f"{path}.profile")
        names.append(name)
        benefits.append(benefit)
        if kind == "bounded":
            models.append(BoundedLoadModel(profile, spread, slot_seconds))
        else:
            models.append(FbmLoadModel(profile, alpha, hurst, slot_seconds))
        normalized_players.append(
            {
                "name": name,
                "benefit": benefit,
                "profile": {
                    "base_rate": profile.base_rate,
                    "period": profile.period,
                    "components": [list(c) for c in profile.components],
                },
            }
        )

    try:
        params = EconomicParams(
            capacity_price=capacity_price,
            maintenance_price=maintenance_price,
            investment_hours=investment_years * HOURS_PER_YEAR,
            slot_hours=slot_hours,
            benefits=tuple(benefits),
            saturation=saturation,
        )
        scenario = Scenario(sp_names=tuple(names), models=tuple(models), params=params)
    except ValueError as exc:
        raise ConfigError(f"economics: {exc}") from exc

    normalized = {
        "schema_version": SCHEMA_VERSION,
        "economics": {
            "capacity_price": capacity_price,
            "maintenance_price": maintenance_price,
            "investment_years": investment_years,
            "slot_hours": slot_hours,
        },
        "saturation": saturation,
        "uncertainty": normalized_unc,
        "players": normalized_players,
    }
    return scenario, normalized


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text file handle on a temp file next to ``path``, renamed into place on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".coinvest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        # mkstemp creates 0600; give the output the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict):
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_outputs(out: str, header, rows, sidecar: dict):
    """Stream ``rows`` under ``header`` to the CSV ``out``, then write its sidecar."""
    with _atomic_open(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_json(_sidecar_path(out), {"schema_version": SCHEMA_VERSION, **sidecar})


def _sidecar_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".json"


def _check_output_paths(args):
    """Refuse an --out or --dump-config that one of the other outputs would overwrite."""
    out, sidecar = (os.path.realpath(p) for p in (args.out, _sidecar_path(args.out)))
    if out == sidecar:
        raise ConfigError(f"--out: {args.out} ends in .json, so its JSON sidecar would overwrite it")
    if args.dump_config and os.path.realpath(args.dump_config) in (out, sidecar):
        raise ConfigError(f"--dump-config: {args.dump_config} is the --out table or its JSON sidecar")


def _workers() -> int:
    raw = os.environ.get("COINVEST_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"COINVEST_THREADS: expected a positive integer, got {raw!r}")
    if value < 1:
        raise ConfigError("COINVEST_THREADS: expected a positive integer")
    return value


def _per_player(names, values, convert=float) -> dict:
    return {name: convert(v) for name, v in zip(names, values)}


def _quantiles(values):
    """Quantile dict of a summary row, or None when it has no values."""
    if values is None:
        return None
    return {k: float(v) for k, v in zip(("min", "p25", "p50", "p75", "max"), values)}


def cmd_plan(args, scenario: Scenario) -> int:
    loads = scenario.expected_loads()
    n = scenario.n_players
    names = scenario.player_names
    grand = (1 << n) - 1
    coalitions = [PlayerSet(bits, n) for bits in (range(grand + 1) if args.all_coalitions else [grand])]
    plans = [optimal_plan(coalition, loads, scenario.params) for coalition in coalitions]
    labels = [coalition.label(list(names)) for coalition in coalitions]

    def rows():
        for coalition, label, plan in zip(coalitions, labels, plans):
            capacity = _fmt(plan.capacity)
            for player in coalition.members:
                if player == 0:
                    continue  # the InP holds no shares
                for slot, share in enumerate(plan.shares[player - 1].tolist()):
                    yield label, capacity, names[player], slot, _fmt(share)

    coalition_meta = [
        {
            "coalition": label,
            "bits": coalition.bits,
            "capacity_vcores": plan.capacity,
            "expected_value": plan.objective,
            "cost": capacity_cost(scenario.params, plan.capacity),
            "method": plan.method,
        }
        for coalition, label, plan in zip(coalitions, labels, plans)
    ]
    _write_outputs(
        args.out,
        ["coalition", "capacity_vcores", "player", "slot", "share_vcores"],
        rows(),
        {"horizon_slots": scenario.horizon, "players": list(names), "coalitions": coalition_meta},
    )
    return EXIT_OK


def _parse_float_list(raw: str, flag: str):
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}")
    if not values:
        raise ConfigError(f"{flag}: expected a comma-separated list of numbers")
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"{flag}: {v} is not a finite number")
    return values


def _check_fbm_horizon(scenario: Scenario, source: str):
    """Refuse an fBm horizon the sampler cannot draw, before any planning."""
    if scenario.kind == "fbm" and scenario.horizon > MAX_FBM_SLOTS:
        raise ConfigError(
            f"{source}: fBm horizon of {scenario.horizon} slots exceeds the ceiling of {MAX_FBM_SLOTS}"
        )


def cmd_stability(args, scenario: Scenario) -> int:
    if scenario.kind != "bounded":
        raise CommandMismatch(
            "stability bounds require the bounded demand model; this config uses fBm"
        )
    if args.sweep is None:
        sweep = [scenario.models[0].spread]
    else:
        sweep = _parse_float_list(args.sweep, "--sweep")
        for s in sweep:
            if not 0.0 <= s <= 1.0:
                raise ConfigError(f"--sweep: spread {s} outside [0, 1]")

    table = build_value_table(scenario.expected_loads(), scenario.params)
    payoff = shapley(table)
    sigma = stability_value_hat(table, payoff)
    delta = deviation_threshold(table, sigma)
    grand_plan = table.plan(table.grand_bits)
    names = scenario.player_names

    bounds = []
    for s in sweep:
        models = tuple(replace(m, spread=s) for m in scenario.models)
        spans = utility_ranges(grand_plan, models, scenario.params)
        bounds.append((s, *stability_lower_bound(delta, spans)))

    def rows():
        for s, probs, joint in bounds:
            yield from ((_fmt(s), name, _fmt(prob)) for name, prob in zip(names, probs))
            yield _fmt(s), "nu_lb", _fmt(joint)

    _write_outputs(
        args.out,
        ["sigma", "player", "p_lb"],
        rows(),
        {
            "grand_value": table.grand_value,
            "degenerate": table.grand_value <= 0.0,
            "expected_payoff": _per_player(names, payoff),
            "sigma_hat": sigma,
            "delta": delta,
            "sweep": [
                {"spread": s, "player_bounds": _per_player(names, probs), "nu_lb": joint}
                for s, probs, joint in bounds
            ],
        },
    )
    return EXIT_OK


def cmd_simulate(args, scenario: Scenario) -> int:
    if args.realizations < 1:
        raise ConfigError("--realizations: must be at least 1")
    _check_fbm_horizon(scenario, "economics.investment_years")
    table = build_value_table(scenario.expected_loads(), scenario.params)
    payoff = shapley(table)
    delta = deviation_threshold(table, stability_value_hat(table, payoff))
    outcomes = simulate(
        scenario,
        table,
        args.realizations,
        args.seed,
        payment_mode=args.payment_mode,
        workers=args.workers,
    )
    summary = summarize(outcomes, delta)
    names = scenario.player_names

    def rows():
        for o in outcomes:
            columns = (o.collected, o.payments, o.rewards, o.payoffs, o.deviations)
            for player, name in enumerate(names):
                yield (o.index, name, *(_fmt(column[player]) for column in columns))

    _write_outputs(
        args.out,
        ["omega", "player", "collected", "payment", "reward", "shapley_payoff", "deviation"],
        rows(),
        {
            "seed": args.seed,
            "realizations": args.realizations,
            "payment_mode": args.payment_mode,
            "grand_value": table.grand_value,
            "delta": delta,
            "expected_payoff": _per_player(names, payoff),
            "profit_probability": _per_player(names, summary.player_profit_prob),
            "joint_profit_probability": summary.joint_profit_prob,
            "stability_frequency": summary.stability_frequency,
            "payoff_quantiles": _per_player(names, summary.payoff_quantiles, _quantiles),
            "payment_quantiles": _per_player(names, summary.payment_quantiles, _quantiles),
            "reward_quantiles": _per_player(names, summary.reward_quantiles, _quantiles),
            "payback_slot_quantiles": _quantiles(summary.payback_quantiles),
            "payback_censored": summary.payback_censored,
        },
    )
    return EXIT_OK


def cmd_payback(args, scenario: Scenario) -> int:
    periods = _parse_float_list(args.periods, "--periods")
    if args.realizations < 1:
        raise ConfigError("--realizations: must be at least 1")
    subs = []
    for y in periods:
        if y <= 0.0:
            raise ConfigError(f"--periods: investment length {y} must be positive")
        try:
            params = replace(scenario.params, investment_hours=y * HOURS_PER_YEAR)
        except ValueError as exc:
            raise ConfigError(f"--periods: {y} years: {exc}") from exc
        sub = Scenario(scenario.sp_names, scenario.models, params)
        _check_fbm_horizon(sub, f"--periods: {y} years")
        subs.append((y, sub))

    paybacks = []
    period_meta = []
    for y, sub in subs:
        table = build_value_table(sub.expected_loads(), sub.params)
        outcomes = simulate(sub, table, args.realizations, args.seed, workers=args.workers)
        paybacks.append((y, [(o.index, o.payback_slot) for o in outcomes]))
        summary = summarize(outcomes)
        period_meta.append(
            {
                "investment_years": y,
                "capacity_vcores": table.plan(table.grand_bits).capacity,
                "grand_value": table.grand_value,
                "payback_slot_quantiles": _quantiles(summary.payback_quantiles),
                "censored": summary.payback_censored,
            }
        )
    slot_hours = scenario.params.slot_hours

    def rows():
        for y, slots in paybacks:
            years = _fmt(y)
            for omega, slot in slots:
                if slot is None:
                    yield years, omega, "", "", 1
                else:
                    yield years, omega, slot, _fmt(slot * slot_hours / HOURS_PER_YEAR), 0

    _write_outputs(
        args.out,
        ["investment_years", "omega", "payback_slot", "payback_years", "censored"],
        rows(),
        {"seed": args.seed, "periods": period_meta},
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("config", help="scenario config (JSON)")
    common.add_argument("--out", required=True, help="output CSV path, not *.json (JSON sidecar next to it)")
    common.add_argument("--seed", type=int, default=0, help="master seed for demand sampling")
    common.add_argument("--dump-config", metavar="PATH", help="write the normalized config here and continue")

    parser = _Parser(prog="coinvest", description="Coalitional co-investment analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[common], help="optimal capacity and per-slot shares")
    p.add_argument("--all-coalitions", action="store_true", help="plan every coalition, not just the grand one")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("stability", parents=[common], help="analytic stability lower bounds")
    p.add_argument("--sweep", help="comma-separated demand spreads to evaluate")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo settlement")
    p.add_argument("--realizations", type=int, default=1000)
    p.add_argument("--payment-mode", choices=list(PAYMENT_MODES), default="ex-post")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("payback", parents=[common], help="payback distribution per investment length")
    p.add_argument("--periods", default="1,3,5,10", help="comma-separated investment lengths in years")
    p.add_argument("--realizations", type=int, default=200)
    p.set_defaults(func=cmd_payback)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ConfigError(f"--seed: expected a nonnegative integer, got {args.seed}")
        args.workers = _workers()
        _check_output_paths(args)
        scenario, normalized = load_config(args.config)
        if args.dump_config:
            _write_json(args.dump_config, normalized)
        return args.func(args, scenario)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CommandMismatch):
            return EXIT_MISMATCH
        return EXIT_NUMERIC if isinstance(exc, RuntimeError) else EXIT_CONFIG

if __name__ == "__main__":
    sys.exit(main())
