"""Command-line front end.

Subcommands: ``plan`` (capacity and shares), ``stability`` (analytic
lower bounds), ``simulate`` (Monte Carlo settlement), ``payback``
(payback distribution across investment lengths).  Tables go to the CSV
named by ``--out``; machine-readable context, ending with the normalized
config the run read (``"config"``), goes to a JSON sidecar at the same
path with extension ``.json``, so ``--out`` must not end in ``.json``.
``main`` checks the output path first: it is not empty, its directory
exists, and neither file is a directory or resolves to the other file or
to the config.  Then it loads the config, whose numeric sections
``load_config`` parses from one field table each (``_ECONOMICS``, and
``_DEMAND`` per ``uncertainty.kind``), the same tables that build the
demand models and the normalized config.  A rule on a built value is its
class's alone (``RateProfile``: a profile's values; ``Scenario``: repeated
names, overflows; ``BoundedLoadModel``: a swept spread; ``EconomicParams``:
a period), and ``_built`` prefixes a refusal with the field or flag the
value came from (``players[i].profile``, ``economics``, and through
``_variants``, which builds the ``Scenario`` of each value of a list flag,
``--sweep: spread <s>`` and ``--periods: <y> years``).  The CLI refuses
only what precedes any object: JSON shapes, section bounds in schema order,
the SP count, the tables' labels as names, the fBm horizon before planning.
A refusal starts with the field it names, a top-level field by its key.
Each command checks its flags, computes, and returns a header, a generator
of CSV text and a sidecar.  Only then does ``main`` write, in one commit:
it serializes the sidecar, streams the table into a temp file beside
``--out``, writes the sidecar into a second, both in UTF-8 as the config is
read, and renames both into place once both are written.  So a
failed run writes nothing and leaves the earlier pair of files as it
was.  ``stability``, ``simulate`` and ``payback`` yield one line per
row; ``plan`` formats each distinct share bit pattern of a series (one
coalition's shares for one SP) once and yields the series in slabs of
``_SLAB_SLOTS`` rows, one string per slab, so its text takes a few times
the memory of one share row.  Exit codes:
0 success, 1 configuration problem, 2 numeric failure (results not
finite and out of memory included), 3 command/model mismatch.

Only ``simulate`` and ``payback`` take ``--seed`` and ``--realizations``.  No setting
chooses their threads (``montecarlo`` does), and the output is the same at any count.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set, so a CLI
process starts numpy without OpenBLAS's thread pool: coinvest's BLAS calls
are too small to use it, and starting it costs each process tens of
milliseconds.  ``import coinvest`` alone changes no BLAS setting.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import tempfile
from dataclasses import replace

# One BLAS thread unless the user chose otherwise; set before numpy loads, since
# OpenBLAS sizes its thread pool at load.  coinvest's only BLAS call is
# ``values @ shapley_matrix(n)`` (2**n x n, n <= 16), too small for a pool to
# pay for its start-up.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

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
from .montecarlo import PAYMENT_MODES, QUANTILES, payback_quantiles, payback_slots, simulate, summarize
from .players import MAX_PLAYERS, PlayerSet, all_coalitions
from .scenario import Scenario
from .traffic import MAX_FBM_SLOTS, BoundedLoadModel, FbmLoadModel, RateProfile, _is_finite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_MISMATCH = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class CommandMismatch(RuntimeError):
    """The command does not apply to the configured demand model."""


# Rows of one series (a coalition's shares for one SP) that ``cmd_plan`` joins into one string.
_SLAB_SLOTS = 4096


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class _Echo:
    """File stand-in whose ``write`` returns the line it is given."""

    write = staticmethod(str)


_LINE = csv.writer(_Echo())


def _record(fields) -> str:
    """``fields`` as one CSV line, exactly as ``csv.writer`` writes it (excel dialect, ``\\r\\n``)."""
    return _LINE.writerow(fields)  # writerow returns what the file's write returns


def _at(path: str, key: str) -> str:
    """The path of field ``key`` of the object at ``path``; a top-level field (``path`` empty) is its key."""
    return f"{path}.{key}" if path else key


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in obj:
        raise ConfigError(f"{_at(path, key)}: missing required field")
    return obj[key]


def _check_keys(obj, path: str, allowed):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed and not key.startswith("_"):
            raise ConfigError(f"{_at(path, key)}: unknown field")


def _number(obj: dict, key: str, path: str, minimum=None, maximum=None, above=None, below=None):
    value, field = _require(obj, key, path), _at(path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number")
    if not _is_finite(value):  # an int too large for a float included
        raise ConfigError(f"{field}: must be finite")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{field}: must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{field}: must be at most {maximum}")
    if above is not None and value <= above:
        raise ConfigError(f"{field}: must be greater than {above}")
    if below is not None and value >= below:
        raise ConfigError(f"{field}: must be below {below}")
    return value


# The numeric fields of a config section, in their normalized order, with their ``_number`` bounds.
_ECONOMICS = {
    "capacity_price": {"minimum": 0.0},
    "maintenance_price": {"minimum": 0.0},
    "investment_years": {"above": 0.0},
    "slot_hours": {"above": 0.0},
}
# Each ``uncertainty.kind``: its model, built as ``model(profile, **fields)``, and its fields.
# hurst's bound is the integer 1, so that its refusal reads "must be below 1".
_DEMAND = {
    "bounded": (BoundedLoadModel, {"spread": {"minimum": 0.0, "maximum": 1.0}}),
    "fbm": (FbmLoadModel, {"alpha": {"minimum": 0.0, "maximum": 1.0}, "hurst": {"above": 0.0, "below": 1}}),
}

# Names an SP may not take, because the tables already use them as labels; "+" joins coalition labels.
_RESERVED_NAMES = {
    "InP": "the infrastructure provider",
    "none": "the empty coalition's label",
    "nu_lb": "stability's joint-bound row",
}


def _section(obj, path: str, fields: dict, *others) -> dict:
    """The numbers of ``obj`` that ``fields`` names, checked and in its order; keys outside
    ``fields`` and ``others`` are refused first."""
    _check_keys(obj, path, {*fields, *others})
    return {key: _number(obj, key, path, **bounds) for key, bounds in fields.items()}


def _built(prefix: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a library constructor; its ``ValueError`` becomes a ``ConfigError``
    that ``prefix`` leads, naming the field or flag the refused value came from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _profile(obj, path: str):
    """``(RateProfile, normalized profile)`` of the profile ``obj``: shapes here, values in ``RateProfile``."""
    normalized = _section(obj, path, {"base_rate": {}}, "period", "components")
    period = _require(obj, "period", path)
    components = obj.get("components", [])
    if not isinstance(components, list):
        raise ConfigError(f"{path}.components: expected a list of [amplitude, phase] pairs")
    for k, comp in enumerate(components):
        if (
            not isinstance(comp, list)
            or len(comp) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in comp)
        ):
            raise ConfigError(f"{path}.components[{k}]: expected an [amplitude, phase] number pair")
    profile = _built(f"{path}: ", RateProfile, normalized["base_rate"], components, period)
    normalized.update(period=period, components=[list(pair) for pair in profile.components])
    return profile, normalized


def load_config(path: str):
    """Parse and validate a scenario config; returns (scenario, normalized)."""
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8, whatever the locale
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax, bytes that are not UTF-8, an integer past int's digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(cfg, "", {"schema_version", "economics", "saturation", "uncertainty", "players"})

    version = cfg.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1, and 1.0 == 1
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {json.dumps(version)}")

    economics = _section(_require(cfg, "economics", ""), "economics", _ECONOMICS)
    saturation = _number(cfg, "saturation", "", above=0.0)

    unc = _require(cfg, "uncertainty", "")
    kind = _require(unc, "kind", "uncertainty")
    if not isinstance(kind, str) or kind not in _DEMAND:  # a list or an object is no table key
        raise ConfigError(f"uncertainty.kind: expected {' or '.join(map(repr, _DEMAND))}, got {kind!r}")
    model, fields = _DEMAND[kind]
    demand = _section(unc, "uncertainty", fields, "kind")

    players = _require(cfg, "players", "")
    if not isinstance(players, list) or not players:
        raise ConfigError("players: expected a nonempty list of SP descriptors")
    if len(players) > MAX_PLAYERS - 1:
        raise ConfigError(f"players: at most {MAX_PLAYERS - 1} SPs are supported, got {len(players)}")
    models, normalized_players = [], []
    for i, sp in enumerate(players):
        path = f"players[{i}]"
        _check_keys(sp, path, {"name", "benefit", "profile"})
        name = _require(sp, "name", path)
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path}.name: expected a nonempty string")
        if name in _RESERVED_NAMES:
            raise ConfigError(f"{path}.name: {name!r} is reserved for {_RESERVED_NAMES[name]}")
        if "+" in name:
            raise ConfigError(f"{path}.name: {name!r} contains '+', which joins the names in coalition labels")
        benefit = _number(sp, "benefit", path, above=0.0)
        profile, normalized_profile = _profile(_require(sp, "profile", path), f"{path}.profile")
        models.append(model(profile, **demand))  # the parser rules out every refusal of the model
        normalized_players.append({"name": name, "benefit": benefit, "profile": normalized_profile})

    params = _built(
        "economics: ",
        EconomicParams,
        **{key: value for key, value in economics.items() if key != "investment_years"},
        investment_hours=economics["investment_years"] * HOURS_PER_YEAR,
        benefits=tuple(sp["benefit"] for sp in normalized_players),
        saturation=saturation,
    )
    # a repeated name, or a load or revenue that overflows, names its SP
    names = tuple(sp["name"] for sp in normalized_players)
    scenario = _built("", Scenario, sp_names=names, models=tuple(models), params=params)
    normalized = {
        "schema_version": SCHEMA_VERSION,
        "economics": economics,
        "saturation": saturation,
        "uncertainty": {"kind": kind, **demand},
        "players": normalized_players,
    }
    return scenario, normalized


def _write_outputs(out: str, header, chunks, sidecar: dict):
    """Write the CSV text ``chunks`` under ``header`` to ``out`` and ``sidecar`` beside it, in one commit.

    Both files go to temp files in ``out``'s directory and are renamed into
    place only once both are written; on any error every temp file is removed.
    """
    try:  # before the table, so that results that are not finite write nothing
        text = json.dumps({"schema_version": SCHEMA_VERSION, **sidecar}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"results are not finite ({exc}); nothing was written") from exc
    directory = os.path.dirname(os.path.abspath(out))
    umask = os.umask(0)
    os.umask(umask)
    temps = []
    try:
        for lines in (itertools.chain([_record(header)], chunks), [text + "\n"]):
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".coinvest-", suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; give the mode open() would
        os.replace(temps[0], out)
        os.replace(temps[1], _sidecar_path(out))
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _sidecar_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".json"


def _check_output_paths(out: str, config: str):
    """Refuse an --out whose table or sidecar cannot be written, or would overwrite the other or ``config``."""
    if not out:
        raise ConfigError("--out: expected a file path, got an empty string")
    sidecar = _sidecar_path(out)
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise ConfigError(f"--out: {out}: directory {directory} does not exist")
    for path in (out, sidecar):
        if os.path.isdir(path):
            raise ConfigError(f"--out: {path} is a directory")
    if os.path.realpath(out) == os.path.realpath(sidecar):
        raise ConfigError(f"--out: {out} ends in .json, so its JSON sidecar would overwrite it")
    for path in (out, sidecar):
        if os.path.realpath(path) == os.path.realpath(config):
            raise ConfigError(f"--out: {path} would overwrite the config {config}")


def _per_player(names, values, convert=float) -> dict:
    return {name: convert(v) for name, v in zip(names, values)}


def _quantiles(values):
    """Quantile dict of a summary row, or None when it has no values."""
    if values is None:
        return None
    return {label: float(v) for label, v in zip(QUANTILES, values)}


def cmd_plan(args, scenario: Scenario):
    loads = scenario.expected_loads()
    n = scenario.n_players
    names = scenario.player_names
    coalitions = list(all_coalitions(n)) if args.all_coalitions else [PlayerSet.grand(n)]
    plans = [optimal_plan(coalition, loads, scenario.params) for coalition in coalitions]
    labels = [coalition.label(list(names)) for coalition in coalitions]

    def slabs():
        slots = [f"{slot}," for slot in range(scenario.horizon)]  # after planning, shared by every series
        for coalition, label, plan in zip(coalitions, labels, plans):
            capacity = _fmt(plan.capacity)
            for player in coalition.members:
                if player == 0:
                    continue  # the InP holds no shares
                prefix = _record((label, capacity, names[player], ""))[:-2]
                # keyed on bit patterns: 0.0 == -0.0, but they format as "0" and "-0"
                bits, inverse = np.unique(plan.shares[player - 1].view(np.int64), return_inverse=True)
                texts = [f"{v:.17g}\r\n" for v in bits.view(np.float64).tolist()]
                for lo in range(0, len(slots), _SLAB_SLOTS):
                    slab = slots[lo : lo + _SLAB_SLOTS]
                    fields = [prefix] * (3 * len(slab))  # prefix, "slot,", "share\r\n" per row
                    fields[1::3] = slab
                    fields[2::3] = map(texts.__getitem__, inverse[lo : lo + _SLAB_SLOTS].tolist())
                    yield "".join(fields)

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
    return (
        ["coalition", "capacity_vcores", "player", "slot", "share_vcores"],
        slabs(),
        {"horizon_slots": scenario.horizon, "players": list(names), "coalitions": coalition_meta},
    )


def _variants(raw: str, flag: str, label: str, build) -> list:
    """``(value, build(value))`` per distinct number of the list flag ``raw``, each built under ``_built``
    with the prefix ``<flag>: <label>: ``; ``label`` names one value, e.g. ``"{} years"``."""
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}")
    if not values:
        raise ConfigError(f"{flag}: expected a comma-separated list of numbers")
    sources = [f"{flag}: {label.format(str(v).removesuffix('.0'))}" for v in values]  # 1 for 1.0
    for k, v in enumerate(values):
        if v in values[:k]:  # a repeat would write the same table keys twice
            raise ConfigError(f"{sources[k]} is listed twice")
    return [(v, _built(f"{source}: ", build, v)) for v, source in zip(values, sources)]


def _check_fbm_horizon(scenario: Scenario, horizon: int):
    """Refuse an fBm ``horizon`` the sampler cannot draw, before any planning."""
    if scenario.kind == "fbm" and horizon > MAX_FBM_SLOTS:
        raise ValueError(f"fBm horizon of {horizon} slots exceeds the ceiling of {MAX_FBM_SLOTS}")


def cmd_stability(args, scenario: Scenario):
    if scenario.kind != "bounded":
        raise CommandMismatch(
            "stability bounds require the bounded demand model; this config uses fBm"
        )
    sweep = [(scenario.models[0].spread, scenario)]
    if args.sweep is not None:  # built before planning: a model refuses its spread, a scenario its overflow
        sweep = _variants(
            args.sweep,
            "--sweep",
            "spread {}",
            lambda s: replace(scenario, models=[replace(m, spread=s) for m in scenario.models]),
        )

    table = build_value_table(scenario.expected_loads(), scenario.params)
    payoff = shapley(table)
    sigma = stability_value_hat(table, payoff)
    delta = deviation_threshold(table, sigma)
    grand_plan = table.plans[table.grand_bits]
    names = scenario.player_names

    bounds = []
    for s, sub in sweep:
        spans = utility_ranges(grand_plan, sub)
        bounds.append((s, *stability_lower_bound(delta, spans)))

    def rows():
        for s, probs, joint in bounds:
            yield from (_record((_fmt(s), name, _fmt(prob))) for name, prob in zip(names, probs))
            yield _record((_fmt(s), "nu_lb", _fmt(joint)))

    return (
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


def cmd_simulate(args, scenario: Scenario):
    _built("economics.investment_years: ", _check_fbm_horizon, scenario, scenario.horizon)
    table = build_value_table(scenario.expected_loads(), scenario.params)
    payoff = shapley(table)
    delta = deviation_threshold(table, stability_value_hat(table, payoff))
    outcomes = simulate(scenario, table, args.realizations, args.seed, payment_mode=args.payment_mode)
    summary = summarize(outcomes, delta)
    names = scenario.player_names

    def rows():
        for omega, o in enumerate(outcomes):
            columns = (o.collected, o.payments, o.rewards, o.payoffs, o.deviations)
            for player, name in enumerate(names):
                yield _record((omega, name, *(_fmt(column[player]) for column in columns)))

    return (
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


def cmd_payback(args, scenario: Scenario):
    def period(years: float) -> Scenario:
        params = replace(scenario.params, investment_hours=years * HOURS_PER_YEAR)
        _check_fbm_horizon(scenario, params.horizon)  # the ceiling before the load bound
        return replace(scenario, params=params)

    grand = PlayerSet.grand(scenario.n_players)
    paybacks = []
    period_meta = []
    for y, sub in _variants(args.periods, "--periods", "{} years", period):  # all built before any planning
        plan = optimal_plan(grand, sub.expected_loads(), sub.params)
        slots = payback_slots(sub, plan, args.realizations, args.seed)
        paybacks.append((y, slots))
        quantiles, censored = payback_quantiles(slots)
        period_meta.append(
            {
                "investment_years": y,
                "capacity_vcores": plan.capacity,
                "grand_value": plan.objective,
                "payback_slot_quantiles": _quantiles(quantiles),
                "censored": censored,
            }
        )
    slot_hours = scenario.params.slot_hours

    def rows():
        for y, slots in paybacks:
            years = _fmt(y)
            for omega, slot in enumerate(slots):
                if slot is None:
                    yield _record((years, omega, "", "", 1))
                else:
                    yield _record((years, omega, slot, _fmt(slot * slot_hours / HOURS_PER_YEAR), 0))

    return (
        ["investment_years", "omega", "payback_slot", "payback_years", "censored"],
        rows(),
        {"seed": args.seed, "periods": period_meta},
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    def draw_flags(p, realizations: int):  # only simulate and payback draw demand
        p.add_argument("--seed", type=int, default=0, help="master seed for demand sampling")
        p.add_argument("--realizations", type=int, default=realizations)

    common = _Parser(add_help=False)
    common.add_argument("config", help="scenario config (JSON)")
    common.add_argument("--out", required=True, help="output CSV path, not *.json (JSON sidecar next to it)")

    parser = _Parser(prog="coinvest", description="Coalitional co-investment analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[common], help="optimal capacity and per-slot shares")
    p.add_argument("--all-coalitions", action="store_true", help="plan every coalition, not just the grand one")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("stability", parents=[common], help="analytic stability lower bounds")
    p.add_argument("--sweep", help="comma-separated demand spreads to evaluate")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo settlement")
    draw_flags(p, 1000)
    p.add_argument("--payment-mode", choices=list(PAYMENT_MODES), default="ex-post")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("payback", parents=[common], help="payback distribution per investment length")
    draw_flags(p, 200)
    p.add_argument("--periods", default="1,3,5,10", help="comma-separated investment lengths in years")
    p.set_defaults(func=cmd_payback)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "seed" in args:  # only simulate and payback take draw settings
            if args.seed < 0:
                raise ConfigError(f"--seed: expected a nonnegative integer, got {args.seed}")
            if args.realizations < 1:
                raise ConfigError("--realizations: must be at least 1")
        _check_output_paths(args.out, args.config)
        scenario, normalized = load_config(args.config)
        header, rows, sidecar = args.func(args, scenario)
        _write_outputs(args.out, header, rows, {**sidecar, "config": normalized})
        return EXIT_OK
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CommandMismatch):
            return EXIT_MISMATCH
        return EXIT_NUMERIC if isinstance(exc, RuntimeError) else EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory (MemoryError: {exc})", file=sys.stderr)
        return EXIT_NUMERIC

if __name__ == "__main__":
    sys.exit(main())
