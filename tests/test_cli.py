"""Command-line surface: config validation, CSV contracts, exit codes."""

import copy
import csv
import io
import json
import math
import os
import pathlib
import re
import resource
import stat
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from coinvest import Scenario, build_value_table, shapley
from coinvest import allocation, cli, montecarlo
from coinvest.allocation import AllocationError, AllocationPlan, optimal_plan
from coinvest.cli import ConfigError, load_config, main
from coinvest.players import PlayerSet, all_coalitions
from coinvest.traffic import MAX_FBM_SLOTS, LoadMatrix, RateProfile

REPO = pathlib.Path(__file__).resolve().parent.parent


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "economics": {
            "capacity_price": 60.0,
            "maintenance_price": 0.5,
            "investment_years": 24.0 / 8760.0,
            "slot_hours": 1.0,
        },
        "saturation": 0.03,
        "uncertainty": {"kind": "bounded", "spread": 0.3},
        "players": [
            {
                "name": "east",
                "benefit": 6e-6,
                "profile": {"base_rate": 50000.0, "period": 24, "components": [[10000.0, 3.0]]},
            },
            {
                "name": "west",
                "benefit": 6e-6,
                "profile": {"base_rate": 35000.0, "period": 24, "components": [[7000.0, 9.0]]},
            },
        ],
    }
    cfg.update(overrides)
    return cfg


def fbm_config():
    return base_config(
        economics={
            "capacity_price": 10.94,
            "maintenance_price": 16.25,
            "investment_years": 1.0,
            "slot_hours": 1.0,
        },
        uncertainty={"kind": "fbm", "alpha": 0.5, "hurst": 0.7},
        players=[
            {
                "name": "metro",
                "benefit": 6e-6,
                "profile": {"base_rate": 600.0, "period": 24, "components": [[120.0, 5.0]]},
            }
        ],
    )


@pytest.fixture
def write_config(tmp_path):
    def _write(cfg, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


@pytest.fixture
def no_planning(monkeypatch):
    """Fail the test if the command builds a value table or plans a coalition."""

    def refuse(*args, **kwargs):
        raise AssertionError("planning started before the inputs were checked")

    monkeypatch.setattr(cli, "build_value_table", refuse)
    monkeypatch.setattr(cli, "optimal_plan", refuse)


def shipped_config(name):
    return json.loads((REPO / "configs" / name).read_text())


def field_paths(node, path=()):
    """Key paths of every field below ``node``, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def field_name(path) -> str:
    """A key path as refusals name it: ``("players", 0, "profile")`` is ``players[0].profile``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def names_the_field(message: str, path) -> bool:
    """Whether ``message`` starts with the field at ``path``, a field below it, or an object above it."""
    field = field_name(path)
    above = tuple(field_name(path[:k]) + ": " for k in range(1, len(path)))
    return message.startswith((field + ":", field + ".", field + "[", *above))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigLoading:
    def test_valid_config_round_trips(self, write_config):
        path = write_config(base_config())
        scenario, normalized = load_config(path)
        assert scenario.n_sp == 2
        assert scenario.kind == "bounded"
        assert scenario.horizon == 24
        repath = write_config(normalized, "normalized.json")
        scenario2, normalized2 = load_config(repath)
        assert scenario == scenario2
        assert normalized == normalized2

    def test_spread_out_of_range_names_the_field(self, write_config, capsys):
        cfg = base_config(uncertainty={"kind": "bounded", "spread": 1.5})
        assert main(["stability", write_config(cfg), "--out", "x.csv"]) == 1
        assert "uncertainty.spread" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "uncertainty, message",
        [
            ({"kind": "fbm", "alpha": 0.5, "hurst": 1}, "uncertainty.hurst: must be below 1"),
            ({"kind": "fbm", "alpha": 0.5, "hurst": 1.5}, "uncertainty.hurst: must be below 1"),
            ({"kind": "fbm", "alpha": 0.5, "hurst": 0}, "uncertainty.hurst: must be greater than 0.0"),
            ({"kind": "fbm", "alpha": 2, "hurst": 2}, "uncertainty.alpha: must be at most 1.0"),
            ({"kind": "fbm", "alpha": 0.5, "spread": 0.3}, "uncertainty.spread: unknown field"),
            ({"kind": "bounded"}, "uncertainty.spread: missing required field"),
            ({"kind": [], "spread": 0.3}, "uncertainty.kind: expected 'bounded' or 'fbm', got []"),
            ({"kind": {}, "x": 1}, "uncertainty.kind: expected 'bounded' or 'fbm', got {}"),
            ({"kind": "normal"}, "uncertainty.kind: expected 'bounded' or 'fbm', got 'normal'"),
        ],
        ids=repr,
    )
    def test_uncertainty_refusals_name_the_field(self, write_config, uncertainty, message):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(base_config(uncertainty=uncertainty)))
        assert str(exc.value) == message

    def test_first_fault_in_check_order_is_reported(self, write_config):
        # economics before saturation before uncertainty before players; keys before numbers
        cfg = base_config(saturation=0, uncertainty={"kind": []}, players=[])
        cfg["economics"].update(capacity_price=-1, slot_hours=0)
        with pytest.raises(ConfigError, match=r"^economics\.capacity_price: must be at least 0\.0$"):
            load_config(write_config(cfg))
        cfg["economics"].update(capacity_price=1, discount_rate=0.05)
        with pytest.raises(ConfigError, match=r"^economics\.discount_rate: unknown field$"):
            load_config(write_config(cfg))

    def test_normalized_config_keeps_the_schema_order(self, write_config):
        cfg = base_config()
        cfg["economics"] = dict(reversed(cfg["economics"].items()))
        cfg["uncertainty"] = {"spread": 0.3, "kind": "bounded"}
        cfg["players"][0]["profile"] = dict(reversed(cfg["players"][0]["profile"].items()))
        _, normalized = load_config(write_config(cfg))
        assert list(normalized) == ["schema_version", "economics", "saturation", "uncertainty", "players"]
        assert list(normalized["economics"]) == ["capacity_price", "maintenance_price", "investment_years", "slot_hours"]
        assert list(normalized["uncertainty"]) == ["kind", "spread"]
        assert list(normalized["players"][0]) == ["name", "benefit", "profile"]
        assert list(normalized["players"][0]["profile"]) == ["base_rate", "period", "components"]

    def test_unknown_key_rejected(self, write_config, capsys):
        cfg = base_config()
        cfg["economics"]["discount_rate"] = 0.05
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert "discount_rate" in capsys.readouterr().err

    def test_missing_field_names_the_path(self, write_config, capsys):
        cfg = base_config()
        del cfg["players"][1]["benefit"]
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert "players[1]" in capsys.readouterr().err

    def test_duplicate_names_rejected(self, write_config, capsys):
        cfg = base_config()
        cfg["players"][1]["name"] = "east"
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_reserved_provider_name_rejected(self, write_config, capsys):
        cfg = base_config()
        cfg["players"][0]["name"] = "InP"
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert "reserved" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, names, bad",
        [
            ("stability", ["nu_lb", "west"], 0),  # a second nu_lb row per spread beside the joint bound
            ("plan --all-coalitions", ["a", "b", "a+b"], 2),  # {InP, a, b} and {InP, a+b} share one label
            ("plan --all-coalitions", ["east", "none"], 1),  # the empty coalition's label, twice in the sidecar
            ("plan", ["east", "+"], 1),
        ],
    )
    def test_names_that_clash_with_table_labels_are_refused(
        self, write_config, tmp_path, capsys, command, names, bad
    ):
        cfg = base_config()
        sp = cfg["players"][0]
        cfg["players"] = [{**sp, "name": name} for name in names]
        name, *flags = command.split()
        assert main([name, write_config(cfg), "--out", str(tmp_path / "x.csv"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: players[{bad}].name: {names[bad]!r} ")
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_negative_amplitude_profile_rejected(self, write_config, capsys):
        cfg = base_config()
        cfg["players"][0]["profile"]["components"] = [[999999.0, 0.0]]
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert "players[0].profile" in err

    @pytest.mark.parametrize("component", [[math.nan, 13.0], [120.0, math.inf]])
    def test_non_finite_profile_component_rejected(self, write_config, tmp_path, capsys, component):
        cfg = fbm_config()
        cfg["players"][0]["profile"]["components"] = [[50.0, 1.0], component]
        out = tmp_path / "plan.csv"
        assert main(["plan", write_config(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: players[0].profile: components[1]: amplitude and phase must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("period", [10**12, MAX_FBM_SLOTS + 1])
    def test_period_past_the_ceiling_names_the_field(self, write_config, tmp_path, capsys, period):
        cfg = base_config()
        cfg["players"][1]["profile"]["period"] = period
        start = time.perf_counter()
        assert main(["plan", write_config(cfg), "--out", str(tmp_path / "plan.csv")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == f"error: players[1].profile: period of {period} slots exceeds the ceiling of {MAX_FBM_SLOTS}\n"

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_too_many_sps_names_the_field(self, write_config, tmp_path, capsys, no_planning, command):
        sp = base_config()["players"][0]
        players = [{**sp, "name": f"sp{i}"} for i in range(16)]
        path = write_config(base_config(players=players))
        assert main([command, path, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: players: at most 15 SPs are supported, got 16")

    def test_overflowing_profile_names_the_field(self, write_config, capsys):
        # a phase of 1e308 overflows the sine's argument, so the rate is NaN
        cfg = base_config()
        cfg["players"][0]["profile"]["components"] = [[10000.0, 1e308]]
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: players[0].profile: ") and "not finite" in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "command", ["plan", "stability", "simulate --realizations 5", "payback --periods 1 --realizations 5"]
    )
    def test_overflowing_load_band_names_the_player(self, write_config, tmp_path, capsys, no_planning, command):
        # 4e304 requests/s x 3600 s x (1 + spread) overflows the band's top
        cfg = shipped_config("edge-bounded.json")
        cfg["economics"]["investment_years"] = 24.0 / 8760.0
        cfg["players"][0]["profile"]["base_rate"] = 4e304
        name, *flags = command.split()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([name, write_config(cfg), "--out", str(tmp_path / "x.csv"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: players[0]: load band overflows") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["plan", "simulate --realizations 5"])
    def test_profile_nonnegative_over_its_period_runs(self, write_config, tmp_path, command):
        # this profile's lowest rate over slots 0..2 is 2.8e-17 requests/s; evaluated afresh at each
        # slot it dipped below zero later on, so a run the config check accepted failed unnamed
        cfg = shipped_config("edge-bounded.json")
        cfg["players"][0]["profile"] = {
            "base_rate": 0.22830472747718866,
            "period": 3,
            "components": [[0.26362359173243805, 0.5]],
        }
        name, *flags = command.split()
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([name, write_config(cfg), "--out", str(out), *flags]) == 0
        assert out.exists() and out.with_suffix(".json").exists()

    def test_swept_band_overflow_names_the_spread_and_player(self, write_config, tmp_path, capsys, no_planning):
        # 3e304 requests/s x 3600 s x (1 + 0.3) fits; x (1 + 1) overflows the band's top
        cfg = shipped_config("edge-bounded.json")
        cfg["economics"]["investment_years"] = 24.0 / 8760.0
        cfg["players"][0]["profile"] = {"base_rate": 3e304, "period": 24, "components": []}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["stability", write_config(cfg), "--out", str(tmp_path / "x.csv"), "--sweep", "0.3,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep: spread 1: players[0]: load band overflows")
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    @pytest.mark.parametrize(
        "command", ["plan", "stability", "simulate --realizations 5", "payback --periods 1 --realizations 5"]
    )
    def test_overflowing_fbm_load_names_the_player(self, write_config, tmp_path, capsys, no_planning, command):
        # 4e304 requests/s x 23**0.7 / sqrt(2*pi) x 3600 s overflows the expected load at 24 slots
        cfg = shipped_config("edge-fbm.json")
        cfg["economics"]["investment_years"] = 24.0 / 8760.0
        cfg["players"][0]["profile"]["base_rate"] = 4e304
        name, *flags = command.split()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([name, write_config(cfg), "--out", str(tmp_path / "x.csv"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: players[0]: expected load overflows") and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_fbm_load_overflowing_over_a_period_names_the_period(self, write_config, tmp_path, capsys, no_planning):
        # 4e303 requests/s fits 24 slots, but not the 8 760 of one year
        cfg = shipped_config("edge-fbm.json")
        cfg["economics"]["investment_years"] = 24.0 / 8760.0
        cfg["players"][0]["profile"]["base_rate"] = 4e303
        args = ["payback", write_config(cfg), "--out", str(tmp_path / "x.csv"), "--periods", "1", "--realizations", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --periods: 1 years: players[0]: expected load overflows")
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    # The one refusal that names no field on the mutated path: the revenue bound names the first SP
    # at which it overflows, and states the max(1, saturation) factor that a huge saturation enters by.
    REVENUE_OVERFLOW = (("saturation",), 1e308, r"^players\[0\]: revenue overflows at 43800 slots: max\(1, saturation\) ")

    @pytest.mark.parametrize(
        "value", [5, "kind", [], {}, None, True, -1, 0, 1e308, [1], "x", 10**30], ids=repr
    )
    @pytest.mark.parametrize("name", ["edge-bounded.json", "edge-fbm.json"])
    def test_any_field_set_to_any_value_loads_or_names_an_error(self, write_config, name, value):
        base = shipped_config(name)
        overflow_path, overflow_value, overflow = self.REVENUE_OVERFLOW
        failures = []
        for path in field_paths(base):
            cfg = copy.deepcopy(base)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    load_config(write_config(cfg))
                except ConfigError as exc:
                    if (path, value) == (overflow_path, overflow_value):
                        if not re.match(overflow, str(exc)):
                            failures.append(f"{path}: not the revenue overflow: {exc}")
                    elif not names_the_field(str(exc), path):
                        failures.append(f"{path}: names no field on the path: {exc}")
                except Exception as exc:
                    failures.append(f"{path}: {type(exc).__name__}: {exc}")
        assert failures == []

    def test_missing_file_and_bad_json(self, tmp_path, capsys):
        assert main(["plan", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", str(bad), "--out", "x.csv"]) == 1
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        capsys.readouterr()
        assert main(["plan", str(listed), "--out", "x.csv"]) == 1
        assert capsys.readouterr().err == "error: top level: expected an object\n"

    def test_wrong_schema_version(self, write_config, capsys):
        assert main(["plan", write_config(base_config(schema_version=2)), "--out", "x.csv"]) == 1
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize("version, shown", [(True, "true"), (1.0, "1.0"), ("1", '"1"')])
    def test_schema_version_must_be_the_integer_one(self, write_config, tmp_path, capsys, version, shown):
        path = write_config(base_config(schema_version=version))
        assert main(["plan", path, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: schema_version: expected 1, got {shown}\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_slot_longer_than_the_horizon_names_economics(self, write_config, capsys, no_planning):
        cfg = shipped_config("edge-bounded.json")
        cfg["economics"]["slot_hours"] = 1e308
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: economics: ")

    def test_slot_past_a_float_in_seconds_names_economics(self, write_config, capsys, no_planning):
        # one slot of 1e305 hours is a valid horizon, but 3.6e308 seconds overflows
        cfg = shipped_config("edge-bounded.json")
        cfg["economics"].update(slot_hours=1e305, investment_years=1e305 / 8760.0)
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert capsys.readouterr().err == "error: economics: slot_seconds must be finite\n"

    @pytest.mark.parametrize("slot_hours", (1e-300, 5e-324))
    def test_slot_count_beyond_an_index_names_economics(self, write_config, capsys, no_planning, slot_hours):
        cfg = shipped_config("edge-bounded.json")
        cfg["economics"]["slot_hours"] = slot_hours
        assert main(["plan", write_config(cfg), "--out", "x.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: economics: investment_hours / slot_hours = ")

    def test_period_shorter_than_a_slot_names_periods(self, write_config, tmp_path, capsys, no_planning):
        out = str(tmp_path / "pb.csv")
        assert main(["payback", write_config(base_config()), "--out", out, "--periods", "1,1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: --periods: 1e-300 years: ")

    def test_missing_out_flag_is_usage_error(self, write_config):
        assert main(["plan", write_config(base_config())]) == 1

    def test_unknown_subcommand(self, write_config):
        assert main(["optimize", write_config(base_config()), "--out", "x.csv"]) == 1


class TestSidecarConfig:
    """Every sidecar ends with the normalized config the run read."""

    def test_sidecar_config_reruns_to_the_same_sidecar(self, write_config, tmp_path):
        path = write_config(base_config())
        assert main(["plan", path, "--out", str(tmp_path / "a.csv")]) == 0
        config = json.loads((tmp_path / "a.json").read_text())["config"]
        rerun = write_config(config, "normalized.json")
        assert main(["plan", rerun, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_loaded_once(self, write_config, tmp_path, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_config(path)

        monkeypatch.setattr(cli, "load_config", counting)
        path = write_config(base_config())
        assert main(["plan", path, "--out", str(tmp_path / "plan.csv")]) == 0
        assert calls == [path]
        assert json.loads((tmp_path / "plan.json").read_text())["config"]["schema_version"] == 1

    @pytest.mark.parametrize(
        "command", ["plan", "stability", "simulate --realizations 2", "payback --periods 1 --realizations 2"]
    )
    def test_every_sidecar_ends_with_the_normalized_config(self, write_config, tmp_path, command):
        cfg = base_config()
        cfg["_note"] = "comments are dropped"
        path = write_config(cfg)
        name, *flags = command.split()
        assert main([name, path, "--out", str(tmp_path / "t.csv"), *flags]) == 0
        sidecar = json.loads((tmp_path / "t.json").read_text())
        assert list(sidecar)[0] == "schema_version" and list(sidecar)[-1] == "config"
        assert sidecar["config"] == load_config(path)[1]


class TestOutputPaths:
    """An output that another output of the same run would overwrite is refused up front."""

    def test_out_ending_in_json_is_refused(self, write_config, tmp_path, capsys, no_planning):
        out = tmp_path / "clash.json"
        assert main(["stability", write_config(base_config()), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert not out.exists()

    def test_failed_flag_check_writes_nothing(self, write_config, tmp_path, capsys):
        path = write_config(base_config())
        out = str(tmp_path / "s.csv")
        assert main(["simulate", path, "--out", out, "--realizations", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: --realizations: ")
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_missing_directory_names_the_flag(self, write_config, tmp_path, capsys, monkeypatch, no_planning):
        monkeypatch.chdir(tmp_path)
        path = write_config(base_config())
        assert main(["simulate", path, "--out", "nodir/x.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    @pytest.fixture
    def no_loading(self, monkeypatch):
        """Fail the test if the config is loaded."""

        def refuse(path):
            raise AssertionError("the config was loaded before --out was checked")

        monkeypatch.setattr(cli, "load_config", refuse)

    @pytest.mark.parametrize(
        "config_name, out_name, link",
        [
            ("scen.json", "scen.csv", None),  # the sidecar is the config
            ("scen.csv", "scen.csv", None),  # the table is the config
            ("scen.json", "link.csv", "link.json"),  # the sidecar is a link to the config
        ],
    )
    def test_out_that_would_overwrite_the_config_is_refused(
        self, write_config, tmp_path, capsys, no_loading, config_name, out_name, link
    ):
        path = write_config(base_config(), config_name)
        before = pathlib.Path(path).read_bytes()
        if link:
            os.symlink(path, tmp_path / link)
        assert main(["stability", path, "--out", str(tmp_path / out_name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and "would overwrite the config" in err
        assert pathlib.Path(path).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == sorted(filter(None, [config_name, link]))

    def test_empty_out_is_refused(self, write_config, tmp_path, capsys, monkeypatch, no_loading):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        path = write_config(base_config())
        assert main(["stability", path, "--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out: expected a file path, got an empty string\n"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json", "work"]
        assert os.listdir(work) == []

    @pytest.mark.parametrize("directory", ["s.csv", "s.json"])
    def test_out_or_sidecar_naming_a_directory_is_refused(
        self, write_config, tmp_path, capsys, no_planning, directory
    ):
        (tmp_path / directory).mkdir()
        path = write_config(base_config())
        assert main(["simulate", path, "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert sorted(os.listdir(tmp_path)) == sorted(["scenario.json", directory])


class TestRevenueBound:
    """Each config whose revenue bound overflows is refused by ``Scenario`` before planning: exit 1,
    nothing written, no warning."""

    COMMANDS = ["plan", "stability", "simulate --realizations 5", "payback --periods 1 --realizations 5"]

    def refuse(self, cfg, command, tmp_path, capsys, write_config):
        name, *flags = command.split()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([name, write_config(cfg), "--out", str(tmp_path / "x.csv"), *flags]) == 1
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("config", ["edge-bounded.json", "edge-fbm.json"])
    def test_huge_benefit(self, write_config, tmp_path, capsys, no_planning, config, command):
        cfg = shipped_config(config)
        cfg["players"][0]["benefit"] = 1e300
        err = self.refuse(cfg, command, tmp_path, capsys, write_config)
        assert err == (
            "error: players[0]: revenue overflows at 43800 slots: max(1, saturation) * "
            "sum of benefit * horizon * load bound over players[0..i] is not finite\n"
        )

    def test_longer_period(self, write_config, tmp_path, capsys, no_planning):
        # a band top of 1.9e307 requests per slot fits five years of revenue, not 300
        cfg = shipped_config("edge-bounded.json")
        cfg["players"][0]["profile"]["base_rate"] = 4e303
        err = self.refuse(cfg, "payback --periods 300 --realizations 2", tmp_path, capsys, write_config)
        assert err.startswith("error: --periods: 300 years: players[0]: revenue overflows at 2628000 slots: ")

    @pytest.mark.parametrize(
        "config, base_rate", [("edge-bounded.json", 1e300), ("edge-fbm.json", None)], ids=["bounded", "fbm"]
    )
    def test_huge_saturation(self, write_config, tmp_path, capsys, no_planning, config, base_rate):
        cfg = shipped_config(config)
        cfg["saturation"] = 1e300
        if base_rate is not None:
            cfg["players"][0]["profile"]["base_rate"] = base_rate
        err = self.refuse(cfg, "plan", tmp_path, capsys, write_config)
        assert err.startswith("error: players[0]: revenue overflows at 43800 slots: ")

    def test_swept_spread(self, write_config, tmp_path, capsys, no_planning):
        # 7e299 requests/s x 3600 s x 43 800 slots x (1 + spread) fits at spread 0.3, not at 1
        cfg = shipped_config("edge-bounded.json")
        cfg["players"][0]["benefit"] = 1.0
        cfg["players"][0]["profile"]["base_rate"] = 7e299
        err = self.refuse(cfg, "stability --sweep 0.3,1", tmp_path, capsys, write_config)
        assert err.startswith("error: --sweep: spread 1: players[0]: revenue overflows at 43800 slots: ")


class TestStreamingWriter:
    """A failed command or writer leaves earlier outputs alone and no temp file behind."""

    def test_numeric_failure_keeps_previous_outputs(self, write_config, tmp_path, capsys, monkeypatch):
        path = write_config(base_config())
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out), "--all-coalitions"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = cli.optimal_plan
        calls = []

        def planner(*args):
            calls.append(args[0])
            if len(calls) == 3:
                raise AllocationError("third coalition failed")
            return real(*args)

        monkeypatch.setattr(cli, "optimal_plan", planner)
        assert main(["plan", path, "--out", str(out), "--all-coalitions"]) == 2
        assert "third coalition failed" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failing_rows_leave_no_file(self, tmp_path):
        out = tmp_path / "table.csv"

        def rows():
            yield "1,a\r\n"
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            cli._write_outputs(str(out), ["n", "name"], rows(), {})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, earlier, limit",
        [
            ("stability edge-bounded.json", "--sweep 0.2", 300),
            ("simulate edge-bounded.json --realizations 1", "--seed 1", 1000),
            ("payback edge-fbm.json --periods 1 --realizations 2", "--seed 1", 300),
        ],
    )
    def test_failed_sidecar_write_keeps_the_earlier_pair(self, tmp_path, command, earlier, limit):
        # A file-size limit between the table's size and the sidecar's fails the sidecar's write (EFBIG).
        name, config, *flags = command.split()
        out = tmp_path / "t.csv"
        run = [sys.executable, "-m", "coinvest.cli", name, str(REPO / "configs" / config), "--out", str(out), *flags]
        subprocess.run(run + earlier.split(), check=True)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["t.csv", "t.json"] and len(before["t.json"]) > limit

        def cap_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        proc = subprocess.run(run, capture_output=True, text=True, preexec_fn=cap_file_size)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_non_finite_results_write_nothing(self, write_config, tmp_path, capsys, monkeypatch):
        # Scenario refuses the configs whose revenue overflows (TestRevenueBound), so a command's
        # results stand in for a run that still ends with a number that is not finite
        monkeypatch.setattr(cli, "cmd_plan", lambda args, scenario: (["x"], iter(["1\r\n"]), {"v": math.nan}))
        assert main(["plan", write_config(base_config()), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: results are not finite")
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    @pytest.mark.parametrize(
        "command", ["plan 1e6", "simulate 5 --realizations 100000", "payback 5 --periods 100000"]
    )
    def test_out_of_memory_writes_nothing(self, tmp_path, command):
        # Under a 1 GiB address-space cap each run needs more than it may map.
        name, years, *flags = command.split()
        cfg = json.loads((REPO / "configs" / "edge-bounded.json").read_text())
        cfg["economics"]["investment_years"] = float(years)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "coinvest.cli", name, str(path), "--out", str(tmp_path / "x.csv"), *flags],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out of memory (MemoryError: ")
        assert "Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["big.json"]


class TestTextRecords:
    """Every command writes the bytes ``csv.writer`` would write for its rows."""

    NAMES = ['res,"idential', "line\nbreak", "  spaced"]

    def quoted_config(self, slots=24):
        cfg = base_config()
        cfg["economics"]["investment_years"] = slots / 8760.0
        cfg["players"].append(copy.deepcopy(cfg["players"][1]))
        for sp, name in zip(cfg["players"], self.NAMES):
            sp["name"] = name
        return cfg

    @staticmethod
    def rewritten(path):
        """The table at ``path`` parsed and written again by ``csv.writer``."""
        buf = io.StringIO(newline="")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        csv.writer(buf).writerows(rows)
        return buf.getvalue().encode(), rows

    @staticmethod
    def per_row_csv(scenario, plan=optimal_plan):
        """``plan --all-coalitions``'s table as ``csv.writer.writerows`` writes its row tuples."""
        names, loads = scenario.player_names, scenario.expected_loads()
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["coalition", "capacity_vcores", "player", "slot", "share_vcores"])
        for coalition in all_coalitions(scenario.n_players):  # InP-less ones plan all-zero shares
            result = plan(coalition, loads, scenario.params)
            writer.writerows(
                (coalition.label(list(names)), f"{result.capacity:.17g}", names[p], slot, f"{share:.17g}")
                for p in coalition.members
                if p != 0
                for slot, share in enumerate(result.shares[p - 1].tolist())
            )
        return buf.getvalue().encode()

    @pytest.mark.parametrize(
        "kind, offset",
        [(kind, offset) for kind in ("bounded", "fbm") for offset in (None, -1, 0, 1, "many")],
        ids=[
            f"{kind}{horizon}"
            for kind in ("", "fbm-")
            for horizon in ("1", "slab-1", "slab", "slab+1", "many-slabs")
        ],
    )
    def test_plan_matches_the_per_row_writer(self, write_config, tmp_path, monkeypatch, kind, offset):
        if offset == "many":  # four whole slabs and a partial one per series
            monkeypatch.setattr(cli, "_SLAB_SLOTS", 5)
            slots = 4 * cli._SLAB_SLOTS + 2
        else:
            slots = 1 if offset is None else cli._SLAB_SLOTS + offset
        cfg = self.quoted_config(slots)
        if kind == "fbm":  # slot 0 has zero load, so exact zeros mix with distinct numeric shares
            cfg["uncertainty"] = fbm_config()["uncertainty"]
        path = write_config(cfg)
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out), "--all-coalitions"]) == 0

        scenario, _ = load_config(path)
        assert scenario.horizon == slots
        assert out.read_bytes() == self.per_row_csv(scenario)
        if kind == "fbm" and slots > 1:  # one fBm slot has no load, so nothing is solved numerically
            methods = {c["method"] for c in json.loads((tmp_path / "plan.json").read_text())["coalitions"]}
            assert "numeric" in methods

    def test_plan_keys_shares_on_bit_patterns(self, write_config, tmp_path, monkeypatch):
        x = 0.1
        pattern = np.array([0.0, -0.0, x, np.nextafter(x, np.inf), 5e-324, -2.5e-310, 1 / 3, -0.0, 0.0])
        monkeypatch.setattr(cli, "_SLAB_SLOTS", 10)  # every slab holds the whole pattern
        slots = 3 * cli._SLAB_SLOTS + 3
        row = np.resize(pattern, slots)  # the same values in every slab of a series, boundaries included
        assert np.signbit(row[cli._SLAB_SLOTS - 1 : cli._SLAB_SLOTS + 1]).tolist() == [False, True]  # 0, -0

        def fake_plan(coalition, loads, params):
            shares = np.stack([np.roll(row, i) for i in range(params.n_sp)])
            return AllocationPlan(1.5, shares, 2.0, "closed-form")

        monkeypatch.setattr(cli, "optimal_plan", fake_plan)
        path = write_config(self.quoted_config(slots))
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out), "--all-coalitions"]) == 0
        scenario, _ = load_config(path)
        written = out.read_bytes()
        assert written == self.per_row_csv(scenario, fake_plan)
        assert b",-0\r\n" in written and b",0\r\n" in written

    @pytest.mark.parametrize(
        "command, column",
        [
            ("stability --sweep 0.1,0.5", 1),
            ("simulate --realizations 4", 1),
            (f"payback --periods {24 / 8760},{48 / 8760} --realizations 4", None),
        ],
        ids=["stability", "simulate", "payback"],
    )
    def test_other_commands_match_the_csv_writer(self, write_config, tmp_path, command, column):
        name, *flags = command.split()
        out = tmp_path / "t.csv"
        assert main([name, write_config(self.quoted_config()), "--out", str(out), *flags]) == 0
        expected, rows = self.rewritten(out)
        assert out.read_bytes() == expected
        if column is not None:
            assert set(self.NAMES) <= {row[column] for row in rows}


class TestPlan:
    def test_grand_plan_csv_shape(self, write_config, tmp_path):
        out = tmp_path / "plan.csv"
        assert main(["plan", write_config(base_config()), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["coalition", "capacity_vcores", "player", "slot", "share_vcores"]
        assert len(rows) == 2 * 24  # two SPs, 24 slots
        capacities = {r[1] for r in rows}
        assert len(capacities) == 1
        assert float(capacities.pop()) > 0.0
        sidecar = json.loads((tmp_path / "plan.json").read_text())
        assert sidecar["schema_version"] == 1
        assert len(sidecar["coalitions"]) == 1

    def test_outputs_follow_the_umask(self, write_config, tmp_path):
        out = tmp_path / "plan.csv"
        previous = os.umask(0o022)
        try:
            assert main(["plan", write_config(base_config()), "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        for path in (out, tmp_path / "plan.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_all_coalitions_enumerated(self, write_config, tmp_path):
        out = tmp_path / "plan.csv"
        assert main(
            ["plan", write_config(base_config()), "--out", str(out), "--all-coalitions"]
        ) == 0
        sidecar = json.loads((tmp_path / "plan.json").read_text())
        assert len(sidecar["coalitions"]) == 8  # 2^3 subsets incl. empty
        by_label = {c["coalition"]: c for c in sidecar["coalitions"]}
        for label, meta in by_label.items():
            if "InP" not in label:
                assert meta["capacity_vcores"] == 0.0
        grand = by_label["InP+east+west"]
        assert grand["expected_value"] > 0.0
        assert grand["cost"] > 0.0

    def test_huge_saturation_plans_without_overflow(self):
        # exp of the first core's log marginal revenue overflows at this saturation.  The CLI refuses
        # the config (TestRevenueBound), so the solver plans the config's expected loads directly.
        scenario, _ = load_config(str(REPO / "configs" / "edge-fbm.json"))
        params = replace(scenario.params, saturation=1e300)
        grand = optimal_plan(PlayerSet.grand(scenario.n_players), scenario.expected_loads(), params)
        assert grand.method == "numeric"
        assert grand.capacity == pytest.approx(6.965862711954428e-298, rel=1e-9)
        assert grand.objective == pytest.approx(401804802.7105423, rel=1e-9)

    def test_share_columns_match_library(self, write_config, tmp_path):
        path = write_config(base_config())
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out)]) == 0
        scenario, _ = load_config(path)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        plan = table.plans[table.grand_bits]
        _, rows = read_csv(out)
        for row in rows:
            sp = {"east": 0, "west": 1}[row[2]]
            slot = int(row[3])
            assert float(row[4]) == pytest.approx(plan.shares[sp, slot], rel=1e-15)


class TestStability:
    def test_sweep_rows_and_monotone_bound(self, write_config, tmp_path):
        out = tmp_path / "stab.csv"
        code = main(
            [
                "stability",
                write_config(base_config()),
                "--out",
                str(out),
                "--sweep",
                "0.001,0.25,0.5",
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["sigma", "player", "p_lb"]
        nu_rows = [r for r in rows if r[1] == "nu_lb"]
        assert len(nu_rows) == 3
        joints = [float(r[2]) for r in nu_rows]
        assert joints[0] >= joints[1] >= joints[2]
        # player rows: InP + 2 SPs per sweep point
        assert len(rows) == 3 * (3 + 1)
        sidecar = json.loads((tmp_path / "stab.json").read_text())
        assert sidecar["sigma_hat"] > 0.0
        assert sidecar["delta"] > 0.0
        assert not sidecar["degenerate"]

    def test_zero_spread_certain(self, write_config, tmp_path):
        out = tmp_path / "stab.csv"
        assert main(
            ["stability", write_config(base_config()), "--out", str(out), "--sweep", "0"]
        ) == 0
        _, rows = read_csv(out)
        nu = [float(r[2]) for r in rows if r[1] == "nu_lb"]
        assert nu == [1.0]

    def test_huge_base_rate_bounds_without_overflow(self, write_config, tmp_path):
        # the squared utility range overflows; its limit gives that SP p = 0
        cfg = shipped_config("edge-bounded.json")
        cfg["players"][0]["profile"]["base_rate"] = 1e300
        out = tmp_path / "stab.csv"
        assert main(["stability", write_config(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [(r[1], float(r[2])) for r in rows] == [
            ("InP", 1.0), ("residential", 0.0), ("business", 0.0), ("nu_lb", 0.0)
        ]

    def test_fbm_model_refused(self, write_config, tmp_path, capsys):
        out = tmp_path / "stab.csv"
        assert main(["stability", write_config(fbm_config()), "--out", str(out)]) == 3
        assert "bounded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spread, shown", [("2", "2"), ("-0.5", "-0.5"), ("1e308", "1e+308"), ("nan", "nan"), ("inf", "inf")]
    )
    def test_spread_outside_the_unit_interval_is_the_model_refusal(
        self, write_config, tmp_path, capsys, no_planning, spread, shown
    ):
        out = tmp_path / "stab.csv"
        assert main(["stability", write_config(base_config()), "--out", str(out), "--sweep", spread]) == 1
        assert capsys.readouterr().err == f"error: --sweep: spread {shown}: spread must lie in [0, 1]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_sweep_validation(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = str(tmp_path / "stab.csv")
        assert main(["stability", cfg, "--out", out, "--sweep", "0.2,oops"]) == 1
        assert main(["stability", cfg, "--out", out, "--sweep", "1.7"]) == 1

    def test_out_of_range_spread_is_named_as_a_number(self, write_config, tmp_path, capsys, no_planning):
        out = tmp_path / "stab.csv"
        assert main(["stability", write_config(base_config()), "--out", str(out), "--sweep", "0.5,2.0"]) == 1
        assert capsys.readouterr().err == "error: --sweep: spread 2: spread must lie in [0, 1]\n"

    @pytest.mark.parametrize("sweep", ["0.3,0.3", "0.1,0.3,0.30"])
    def test_repeated_spread_is_refused(self, write_config, tmp_path, capsys, no_planning, sweep):
        out = tmp_path / "stab.csv"
        assert main(["stability", write_config(base_config()), "--out", str(out), "--sweep", sweep]) == 1
        assert capsys.readouterr().err == "error: --sweep: spread 0.3 is listed twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


class TestSimulate:
    def test_csv_contract_and_nominal_payoffs(self, write_config, tmp_path):
        cfg = base_config(uncertainty={"kind": "bounded", "spread": 0.0})
        path = write_config(cfg)
        out = tmp_path / "sim.csv"
        assert main(
            ["simulate", path, "--out", str(out), "--realizations", "1", "--seed", "5"]
        ) == 0
        header, rows = read_csv(out)
        assert header == [
            "omega",
            "player",
            "collected",
            "payment",
            "reward",
            "shapley_payoff",
            "deviation",
        ]
        assert len(rows) == 3  # one realization, three players
        scenario, _ = load_config(path)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        expected = shapley(table)
        for row, want in zip(rows, expected):
            assert float(row[5]) == pytest.approx(want, rel=1e-9)
            assert abs(float(row[6])) < 1e-6

    def test_summary_invariants(self, write_config, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(
            [
                "simulate",
                write_config(base_config()),
                "--out",
                str(out),
                "--realizations",
                "200",
                "--seed",
                "11",
            ]
        ) == 0
        sidecar = json.loads((tmp_path / "sim.json").read_text())
        probs = list(sidecar["profit_probability"].values())
        assert sidecar["joint_profit_probability"] <= min(probs) + 1e-12
        assert 0.0 <= sidecar["stability_frequency"] <= 1.0
        assert sidecar["payback_censored"] + 0 >= 0
        q = sidecar["payoff_quantiles"]["east"]
        assert q["min"] <= q["p50"] <= q["max"]

    def test_thread_count_is_invisible(self, write_config, tmp_path, pool):
        path = write_config(base_config())
        args = ["simulate", path, "--realizations", "40", "--seed", "3"]
        pool(1)
        a = tmp_path / "a.csv"
        assert main(args + ["--out", str(a)]) == 0
        pool(2)
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_fbm_thread_count_is_invisible(self, write_config, tmp_path, pool):
        cfg = fbm_config()
        cfg["economics"]["investment_years"] = 48.0 / 8760.0
        args = ["simulate", write_config(cfg), "--realizations", "515", "--seed", "4"]
        pool(1)
        a = tmp_path / "a.csv"
        assert main(args + ["--out", str(a)]) == 0
        pool(3)
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_payment_mode_flag(self, write_config, tmp_path):
        path = write_config(base_config())
        out = tmp_path / "sim.csv"
        assert main(
            [
                "simulate",
                path,
                "--out",
                str(out),
                "--realizations",
                "10",
                "--payment-mode",
                "ex-ante",
            ]
        ) == 0
        _, rows = read_csv(out)
        # ex-ante payments are identical across realizations per player
        per_player = {}
        for row in rows:
            per_player.setdefault(row[1], set()).add(row[3])
        assert all(len(v) == 1 for v in per_player.values())

    def test_realization_count_validated(self, write_config, tmp_path):
        path = write_config(base_config())
        assert main(
            ["simulate", path, "--out", str(tmp_path / "s.csv"), "--realizations", "0"]
        ) == 1

    def test_unwritable_output_is_config_error(self, write_config, tmp_path):
        path = write_config(base_config())
        missing = tmp_path / "no-such-dir" / "sim.csv"
        assert main(["simulate", path, "--out", str(missing), "--realizations", "1"]) == 1


class TestRealizedOverflow:
    """A drawn path whose loads or revenue overflow a float ends ``simulate`` and ``payback`` with
    exit 2, naming the realization and the SP: nothing written, no warning, at any worker count."""

    def run(self, cfg, command, workers, tmp_path, capsys, write_config, pool):
        """``command``'s stderr on ``cfg`` at seed 0, and the first of its 20 realizations that
        overflows in the engine's own draws: one SP, so only the grand plan installs and earns."""
        pool(workers)
        name, *flags = command.split()
        path = write_config(cfg)
        scenario, _ = load_config(path)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        omega = reference.first_overflow(scenario, [table.plans[table.grand_bits]], 0, 20)
        assert 0 < omega < 19  # refused mid-run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([name, path, "--out", str(tmp_path / "x.csv"), *flags]) == 2
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]
        return capsys.readouterr().err, omega

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["payback --periods 5 --realizations 20", "simulate --realizations 20"])
    def test_infinite_loads(self, write_config, tmp_path, capsys, pool, command, workers):
        # load_bound(43800, 3600) is half the largest float; drawn paths reach twice the envelope
        cfg = shipped_config("edge-fbm.json")
        cfg["uncertainty"]["alpha"] = 1
        cfg["economics"]["investment_years"] = 5
        cfg["players"][0]["profile"] = {"base_rate": 3.527345993044867e301, "period": 24, "components": []}
        err, omega = self.run(cfg, command, workers, tmp_path, capsys, write_config, pool)
        assert err == f"error: realization {omega}: players[0]: realized loads are not finite\n"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["payback --periods 0.1 --realizations 20", "simulate --realizations 20"])
    def test_finite_loads_whose_revenue_overflows(self, write_config, tmp_path, capsys, pool, command, workers):
        # a revenue bound of 0.99 of the largest float over 876 slots, with loads far below it
        cfg = shipped_config("edge-fbm.json")
        cfg["uncertainty"]["alpha"] = 1
        cfg["economics"]["investment_years"] = 0.1
        cfg["players"][0]["benefit"] = 1.0
        base = 0.99 * sys.float_info.max / (875**0.7 / math.sqrt(2.0 * math.pi) * 3600.0 * 876)
        cfg["players"][0]["profile"] = {"base_rate": base, "period": 24, "components": []}
        err, omega = self.run(cfg, command, workers, tmp_path, capsys, write_config, pool)
        assert err == f"error: realization {omega}: players[0]: realized revenue over players[0..0] is not finite\n"


class TestPayback:
    def test_zero_cost_scenario_pays_back_at_once(self, write_config, tmp_path):
        cfg = base_config()
        cfg["economics"]["capacity_price"] = 1e12  # nothing worth installing
        cfg["uncertainty"] = {"kind": "bounded", "spread": 0.2}
        out = tmp_path / "pb.csv"
        code = main(
            [
                "payback",
                write_config(cfg),
                "--out",
                str(out),
                "--periods",
                str(24.0 / 8760.0),
                "--realizations",
                "5",
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert row[4] == "0"  # not censored
            assert float(row[3]) == 0.0

    def test_zero_spread_single_payback_value(self, write_config, tmp_path):
        cfg = base_config(uncertainty={"kind": "bounded", "spread": 0.0})
        out = tmp_path / "pb.csv"
        assert main(
            [
                "payback",
                write_config(cfg),
                "--out",
                str(out),
                "--periods",
                str(24.0 / 8760.0),
                "--realizations",
                "6",
            ]
        ) == 0
        _, rows = read_csv(out)
        values = {row[3] for row in rows}
        assert len(values) == 1

    def test_longer_horizon_pays_back_relatively_earlier(self, write_config, tmp_path):
        out = tmp_path / "pb.csv"
        code = main(
            [
                "payback",
                write_config(fbm_config()),
                "--out",
                str(out),
                "--periods",
                "5,10",
                "--realizations",
                "40",
                "--seed",
                "33",
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        relative = {}
        for years in ("5", "10"):
            vals = []
            for row in rows:
                if float(row[0]) == float(years):
                    vals.append(float(years) if row[4] == "1" else float(row[3]))
            relative[years] = float(np.median(vals)) / float(years)
        assert relative["10"] < relative["5"]
        sidecar = json.loads((tmp_path / "pb.json").read_text())
        assert len(sidecar["periods"]) == 2

    def test_plans_only_the_grand_coalition(self, write_config, tmp_path, monkeypatch):
        path = write_config(fbm_config())
        args = ["payback", path, "--periods", "0.5,1", "--realizations", "30", "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("payback needs only the grand plan")

        for name in ("build_value_table", "simulate", "shapley"):
            monkeypatch.setattr(cli, name, refuse)
        planned = []
        real = cli.optimal_plan

        def planner(coalition, *rest):
            planned.append(coalition.bits)
            return real(coalition, *rest)

        monkeypatch.setattr(cli, "optimal_plan", planner)
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert planned == [0b11, 0b11]  # InP and the one SP, once per period
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "period, message",
        [
            ("-1", "-1 years: investment_hours must be positive"),
            ("0", "0 years: investment_hours must be positive"),
            ("1e-9", "1e-09 years: investment_hours must be an integer number of slots"),
            ("1e308", "1e+308 years: investment_hours must be finite"),
            ("nan", "nan years: investment_hours must be finite"),
            ("1,-inf", "-inf years: investment_hours must be finite"),
        ],
    )
    def test_period_is_refused_by_the_economic_params(
        self, write_config, tmp_path, capsys, no_planning, period, message
    ):
        out = tmp_path / "pb.csv"
        args = ["payback", write_config(base_config()), "--out", str(out), "--periods", period]
        assert main(args + ["--realizations", "3"]) == 1
        assert capsys.readouterr().err == f"error: --periods: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_period_validation(self, write_config, tmp_path):
        path = write_config(base_config())
        out = str(tmp_path / "pb.csv")
        assert main(["payback", path, "--out", out, "--periods", "-1"]) == 1
        assert main(["payback", path, "--out", out, "--periods", ""]) == 1
        assert main(["payback", path, "--out", out, "--periods", "1,nan"]) == 1
        assert main(["payback", path, "--out", out, "--periods", "1,-inf"]) == 1

    @pytest.mark.parametrize("periods", ["1,1", "1,3,1.0"])
    def test_repeated_period_is_refused(self, write_config, tmp_path, capsys, no_planning, periods):
        out = tmp_path / "pb.csv"
        args = ["payback", write_config(base_config()), "--out", str(out), "--periods", periods]
        assert main(args + ["--realizations", "3"]) == 1
        assert capsys.readouterr().err == "error: --periods: 1 years is listed twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_infinite_period_names_the_flag(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(fbm_config()))
        proc = subprocess.run(
            [sys.executable, "-m", "coinvest.cli", "payback", str(cfg), "--out", str(tmp_path / "pb.csv"),
             "--periods", "inf"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: --periods: ")
        assert "Traceback" not in proc.stderr


class TestAllCensored:
    """No realization recovers its cost when every drawn load is 0: quantiles are null, all censored."""

    @pytest.fixture(autouse=True)
    def zero_loads(self, monkeypatch):
        real = montecarlo.sample_loads
        monkeypatch.setattr(montecarlo, "sample_loads", lambda *args: LoadMatrix(np.zeros_like(real(*args).values)))

    def test_simulate(self, write_config, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", write_config(base_config()), "--out", str(out), "--realizations", "4"]) == 0
        sidecar = json.loads((tmp_path / "sim.json").read_text())
        assert sidecar["payback_slot_quantiles"] is None
        assert sidecar["payback_censored"] == 4

    def test_payback(self, write_config, tmp_path):
        out = tmp_path / "pb.csv"
        args = ["payback", write_config(fbm_config()), "--out", str(out), "--periods", "0.5,1", "--realizations", "3"]
        assert main(args) == 0
        sidecar = json.loads((tmp_path / "pb.json").read_text())
        assert [(p["payback_slot_quantiles"], p["censored"]) for p in sidecar["periods"]] == [(None, 3)] * 2
        _, rows = read_csv(out)
        assert rows == [[years, str(omega), "", "", "1"] for years in ("0.5", "1") for omega in range(3)]


class TestNewtonCap:
    """A Newton search that reaches its step cap is an AllocationError, and the CLI exits 2 on it."""

    @pytest.fixture(autouse=True)
    def one_step(self, monkeypatch):
        monkeypatch.setattr(allocation, "_NEWTON_STEPS", 1)

    def test_numeric_solver_raises(self):
        scenario, _ = load_config(str(REPO / "configs" / "edge-fbm.json"))
        grand = PlayerSet.grand(scenario.n_players)
        with pytest.raises(AllocationError, match="^Newton capacity search did not converge$"):
            allocation.optimal_plan_numeric(grand, scenario.expected_loads(), scenario.params)

    def test_plan_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["plan", str(REPO / "configs" / "edge-fbm.json"), "--out", str(out)]) == 2
        assert "Newton capacity search did not converge" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestFbmCeiling:
    """Horizons past MAX_FBM_SLOTS fail by name before any planning."""

    def test_simulate_names_investment_years(self, write_config, tmp_path, capsys, no_planning):
        cfg = fbm_config()
        cfg["economics"]["investment_years"] = 300.0
        path = write_config(cfg)
        start = time.perf_counter()
        code = main(["simulate", path, "--out", str(tmp_path / "s.csv"), "--realizations", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "economics.investment_years" in err and "ceiling" in err

    def test_payback_names_periods(self, write_config, tmp_path, capsys, no_planning):
        path = write_config(fbm_config())
        out = str(tmp_path / "pb.csv")
        start = time.perf_counter()
        code = main(["payback", path, "--out", out, "--periods", "1,300", "--realizations", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --periods: 300 years: ") and "ceiling" in err

    def test_ceiling_is_reported_before_the_load_overflow(self, write_config, tmp_path, capsys, no_planning):
        # 4e303 requests/s fits the config's 24 slots; 300 years pass both the ceiling and a float
        cfg = fbm_config()
        cfg["economics"]["investment_years"] = 24.0 / 8760.0
        cfg["players"][0]["profile"]["base_rate"] = 4e303
        args = ["payback", write_config(cfg), "--out", str(tmp_path / "pb.csv"), "--periods", "300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*args, "--realizations", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --periods: 300 years: fBm horizon of 2628000 slots exceeds the ceiling")

    def test_plan_still_accepts_long_fbm_horizons(self, write_config, tmp_path, capsys, monkeypatch):
        # plan draws nothing, so it goes on to the planner; stop it there
        def planner(*args):
            raise RuntimeError("planner reached")

        monkeypatch.setattr(cli, "optimal_plan", planner)
        cfg = fbm_config()
        cfg["economics"]["investment_years"] = 300.0
        assert main(["plan", write_config(cfg), "--out", str(tmp_path / "p.csv")]) == 2
        assert "planner reached" in capsys.readouterr().err


class TestSeed:
    def test_negative_seed_names_the_flag(self, write_config, tmp_path, capsys):
        path = write_config(base_config())
        assert main(["simulate", path, "--out", str(tmp_path / "s.csv"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: --seed: ")


class TestDrawSettings:
    """Only simulate and payback draw demand; plan and stability take no draw settings."""

    @pytest.mark.parametrize("command", ["plan", "stability"])
    @pytest.mark.parametrize("flag", ["--seed", "--realizations"])
    def test_planning_commands_refuse_draw_flags(self, write_config, tmp_path, capsys, no_planning, command, flag):
        args = [command, write_config(base_config()), "--out", str(tmp_path / "t.csv"), flag, "1"]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_each_drawing_command_keeps_its_realization_default(self):
        parser = cli.build_parser()
        assert parser.parse_args(["simulate", "c.json", "--out", "s.csv"]).realizations == 1000
        assert parser.parse_args(["payback", "c.json", "--out", "p.csv"]).realizations == 200


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config()))
        out = tmp_path / "plan.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "coinvest.cli", "plan", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()


# Past float's range: float() of it raises OverflowError.
BIG = 10**400


class TestIntegersPastFloat:
    """A JSON integer too large for a float is refused by the field it sits in, with exit 1."""

    @pytest.mark.parametrize(
        "where, value",
        [
            (("saturation",), BIG),
            (("economics", "capacity_price"), BIG),
            (("economics", "maintenance_price"), -BIG),
            (("players", 0, "benefit"), BIG),
            (("players", 1, "profile", "base_rate"), BIG),
        ],
        ids=("saturation", "capacity_price", "maintenance_price", "benefit", "base_rate"),
    )
    def test_a_number_field_is_refused_as_not_finite(self, write_config, tmp_path, capsys, where, value):
        cfg = base_config()
        node = cfg
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        out = tmp_path / "plan.csv"
        assert main(["plan", write_config(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {field_name(where)}: must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("component", [[BIG, 3.0], [10000.0, -BIG]], ids=("amplitude", "phase"))
    def test_a_profile_component_is_refused_as_not_finite(self, write_config, tmp_path, capsys, component):
        cfg = base_config()
        cfg["players"][0]["profile"]["components"] = [component]
        assert main(["plan", write_config(cfg), "--out", str(tmp_path / "plan.csv")]) == 1
        assert capsys.readouterr().err == "error: players[0].profile: components[0]: amplitude and phase must be finite\n"

    def test_an_integer_past_the_digit_limit_names_the_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_config(saturation="DIGITS")).replace('"DIGITS"', "1" + "0" * 5000))
        assert main(["plan", str(path), "--out", str(tmp_path / "plan.csv")]) == 1
        err = capsys.readouterr().err
        if hasattr(sys, "set_int_max_str_digits"):  # since Python 3.11, int() refuses a string past the limit
            assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit")
        else:
            assert err == "error: saturation: must be finite\n"


class TestEncoding:
    """A config is read, and a table and sidecar written, as UTF-8 under any locale (JSON is UTF-8, RFC 8259)."""

    def test_a_config_that_is_not_utf8_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(json.dumps(base_config(), ensure_ascii=False).replace("east", "café").encode("latin-1"))
        assert main(["plan", str(path), "--out", str(tmp_path / "plan.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xe9")

    def test_the_bytes_do_not_depend_on_the_locale(self, tmp_path):
        cfg = base_config()
        cfg["players"][0]["name"] = "café"
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        default = {**os.environ, "PYTHONPATH": path}
        ascii_locale = {**default, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        for name, env in (("default", default), ("ascii", ascii_locale)):
            proc = subprocess.run(
                [sys.executable, "-m", "coinvest.cli", "plan", str(config), "--out", str(tmp_path / f"{name}.csv")],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        for ext in (".csv", ".json"):
            assert (tmp_path / f"ascii{ext}").read_bytes() == (tmp_path / f"default{ext}").read_bytes()
        assert b"InP+caf\xc3\xa9+west," in (tmp_path / "default.csv").read_bytes()
