"""Command-line surface: config validation, CSV contracts, exit codes."""

import csv
import json
import math
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from coinvest import Scenario, build_value_table, shapley
from coinvest import cli
from coinvest.allocation import AllocationError
from coinvest.cli import load_config, main
from coinvest.traffic import MAX_FBM_SLOTS


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
    """Fail the test if the command builds a value table."""

    def refuse(*args, **kwargs):
        raise AssertionError("value table built before the inputs were checked")

    monkeypatch.setattr(cli, "build_value_table", refuse)


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
        assert "players[0].profile.components[1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period", [10**12, MAX_FBM_SLOTS + 1])
    def test_period_past_the_ceiling_names_the_field(self, write_config, tmp_path, capsys, period):
        cfg = base_config()
        cfg["players"][1]["profile"]["period"] = period
        start = time.perf_counter()
        assert main(["plan", write_config(cfg), "--out", str(tmp_path / "plan.csv")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: players[1].profile.period: ") and "ceiling" in err

    def test_missing_file_and_bad_json(self, tmp_path, capsys):
        assert main(["plan", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", str(bad), "--out", "x.csv"]) == 1

    def test_wrong_schema_version(self, write_config, capsys):
        assert main(["plan", write_config(base_config(schema_version=2)), "--out", "x.csv"]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_missing_out_flag_is_usage_error(self, write_config):
        assert main(["plan", write_config(base_config())]) == 1

    def test_unknown_subcommand(self, write_config):
        assert main(["optimize", write_config(base_config()), "--out", "x.csv"]) == 1


class TestDumpConfig:
    def test_dump_idempotent(self, write_config, tmp_path):
        path = write_config(base_config())
        out = tmp_path / "plan.csv"
        dump1 = tmp_path / "norm1.json"
        dump2 = tmp_path / "norm2.json"
        assert main(["plan", path, "--out", str(out), "--dump-config", str(dump1)]) == 0
        assert main(["plan", str(dump1), "--out", str(out), "--dump-config", str(dump2)]) == 0
        assert dump1.read_bytes() == dump2.read_bytes()

    def test_config_loaded_once(self, write_config, tmp_path, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_config(path)

        monkeypatch.setattr(cli, "load_config", counting)
        path = write_config(base_config())
        dump = tmp_path / "norm.json"
        assert main(["plan", path, "--out", str(tmp_path / "plan.csv"), "--dump-config", str(dump)]) == 0
        assert calls == [path]
        assert json.loads(dump.read_text())["schema_version"] == 1


class TestOutputPaths:
    """An output that another output of the same run would overwrite is refused up front."""

    def test_out_ending_in_json_is_refused(self, write_config, tmp_path, capsys, no_planning):
        out = tmp_path / "clash.json"
        assert main(["stability", write_config(base_config()), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["stab.csv", "stab.json", "./stab.json"])
    def test_dump_config_onto_an_output_is_refused(
        self, write_config, tmp_path, capsys, monkeypatch, no_planning, target
    ):
        monkeypatch.chdir(tmp_path)
        path = write_config(base_config())
        assert main(["stability", path, "--out", "stab.csv", "--dump-config", target]) == 1
        assert capsys.readouterr().err.startswith("error: --dump-config: ")
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


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
            yield (1, "a")
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            cli._write_outputs(str(out), ["n", "name"], rows(), {})
        assert os.listdir(tmp_path) == []


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

    def test_share_columns_match_library(self, write_config, tmp_path):
        path = write_config(base_config())
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out)]) == 0
        scenario, _ = load_config(path)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        plan = table.plan(table.grand_bits)
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

    def test_fbm_model_refused(self, write_config, tmp_path, capsys):
        out = tmp_path / "stab.csv"
        assert main(["stability", write_config(fbm_config()), "--out", str(out)]) == 3
        assert "bounded" in capsys.readouterr().err

    def test_sweep_validation(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out = str(tmp_path / "stab.csv")
        assert main(["stability", cfg, "--out", out, "--sweep", "0.2,oops"]) == 1
        assert main(["stability", cfg, "--out", out, "--sweep", "1.7"]) == 1


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

    def test_thread_count_is_invisible(self, write_config, tmp_path, monkeypatch):
        path = write_config(base_config())
        args = ["simulate", path, "--realizations", "40", "--seed", "3"]
        monkeypatch.setenv("COINVEST_THREADS", "1")
        a = tmp_path / "a.csv"
        assert main(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("COINVEST_THREADS", "2")
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_thread_env_validated(self, write_config, tmp_path, monkeypatch, capsys, no_planning):
        path = write_config(base_config())
        out = str(tmp_path / "sim.csv")
        for bad in ("zero", "0"):
            monkeypatch.setenv("COINVEST_THREADS", bad)
            assert main(["simulate", path, "--out", out, "--realizations", "1"]) == 1
            assert capsys.readouterr().err.startswith("error: COINVEST_THREADS: ")
            assert main(["payback", path, "--out", out, "--periods", "1", "--realizations", "1"]) == 1
            assert capsys.readouterr().err.startswith("error: COINVEST_THREADS: ")

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

    def test_period_validation(self, write_config, tmp_path):
        path = write_config(base_config())
        out = str(tmp_path / "pb.csv")
        assert main(["payback", path, "--out", out, "--periods", "-1"]) == 1
        assert main(["payback", path, "--out", out, "--periods", ""]) == 1
        assert main(["payback", path, "--out", out, "--periods", "1,nan"]) == 1
        assert main(["payback", path, "--out", out, "--periods", "1,-inf"]) == 1

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
        assert err.startswith("error: --periods: 300.0 years: ") and "ceiling" in err

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
