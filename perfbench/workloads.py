"""The benchmark's workloads: CLI argument lists, sizes and memory caps.

Every workload is one ``coinvest`` CLI invocation on one config.  The
shipped configs are read from ``configs/``; ``wide-sim`` writes its
config from the benchmark seed with ``wide_config``.  Sizes are fixed
here so that one invocation takes 1-3 s on a 2-core box and a run of
``run_seconds`` holds 15-25 of them: the run's median then rides out the
seconds-long slow phases a shared host goes through.

Only ``fbm-payback`` and ``bounded-plan`` are workloads of BENCHMARK.json.
``bounded-sim`` and ``wide-sim`` are run by ``suite.py --workloads ...``
but by no gate, because their time did not repeat within the 0.25 bound
on 2 vCPUs of a shared Xeon.  Over ten 30-s runs the quartile spread of
``bounded-sim``'s ``wall_s`` was 0.30 of its median.  ``wide-sim``
streams its 54 MB of coalition weights once per realization; over 12
minutes its per-minute median ``wall_s`` swung between 0.91x and 1.90x
its overall median, while the other workloads stayed within 0.89x-1.22x.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

BOUNDED_CONFIG = os.path.join("configs", "edge-bounded.json")
FBM_CONFIG = os.path.join("configs", "edge-fbm.json")

# Shipped prices (configs/edge-bounded.json); wide-sim keeps them.
CAPACITY_PRICE = 10.94
MAINTENANCE_PRICE = 16.25
HOURS_PER_YEAR = 8760

WIDE_SPS = 6
WIDE_YEARS = 1
BOUNDED_REALIZATIONS = 250
WIDE_REALIZATIONS = 250
PAYBACK_PERIODS = (1,)
PAYBACK_REALIZATIONS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    n_sp: int
    slots: int  # horizon of the (longest) scenario
    realizations: int  # realizations settled per invocation; 0 for plan
    periods: tuple = ()
    mem_cap_mb: int = 0  # RLIMIT_AS of each child process

    @property
    def n_players(self) -> int:
        return self.n_sp + 1

    @property
    def coalitions(self) -> int:
        return 1 << self.n_players

    def cli_args(self, config: str, out: str, seed: int) -> list:
        """Arguments after ``coinvest``, as a user types them."""
        if self.command == "plan":
            return ["plan", config, "--all-coalitions", "--out", out]
        args = [self.command, config, "--realizations", str(self.realizations), "--seed", str(seed), "--out", out]
        if self.command == "payback":
            args[2:2] = ["--periods", ",".join(str(p) for p in self.periods)]
        return args

    def units(self) -> int:
        """Work units per invocation for ``units_per_s``.

        Realizations settled for ``simulate``, periods x realizations
        for ``payback``, CSV rows written for ``plan``.
        """
        if self.command == "simulate":
            return self.realizations
        if self.command == "payback":
            return len(self.periods) * self.realizations
        return self.csv_rows()

    def csv_rows(self) -> int:
        """Data rows (header excluded) one invocation writes."""
        if self.command == "simulate":
            return self.realizations * self.n_players
        if self.command == "payback":
            return len(self.periods) * self.realizations
        # plan --all-coalitions: one row per member SP and slot, summed
        # over coalitions; each SP belongs to half of them.
        return self.n_sp * (self.coalitions // 2) * self.slots


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounded-sim", "simulate", 2, 5 * HOURS_PER_YEAR, BOUNDED_REALIZATIONS, mem_cap_mb=1536),
        Workload(
            "fbm-payback",
            "payback",
            2,
            max(PAYBACK_PERIODS) * HOURS_PER_YEAR,
            PAYBACK_REALIZATIONS,
            periods=PAYBACK_PERIODS,
            mem_cap_mb=1024,
        ),
        Workload("wide-sim", "simulate", WIDE_SPS, WIDE_YEARS * HOURS_PER_YEAR, WIDE_REALIZATIONS, mem_cap_mb=1024),
        Workload("bounded-plan", "plan", 2, 5 * HOURS_PER_YEAR, 0, mem_cap_mb=1024),
    )
}


def wide_config(seed: int) -> dict:
    """Scenario for ``wide-sim``: 6 SPs, hourly slots over one year.

    The seed varies the data, not the work: bases are uniform in
    40-50 k requests/s, one daily harmonic with amplitude 0.1-0.3 x base
    and phase 12-14 h.  Profiles this narrow keep every coalition on the
    closed-form planning path.
    """
    rng = random.Random(seed)
    players = []
    for i in range(WIDE_SPS):
        base = rng.uniform(40_000.0, 50_000.0)
        amplitude = rng.uniform(0.1, 0.3) * base
        phase = rng.uniform(12.0, 14.0)
        players.append(
            {
                "name": f"sp{i + 1}",
                "benefit": 6e-06,
                "profile": {"base_rate": base, "period": 24, "components": [[amplitude, phase]]},
            }
        )
    return {
        "schema_version": 1,
        "economics": {
            "capacity_price": CAPACITY_PRICE,
            "maintenance_price": MAINTENANCE_PRICE,
            "investment_years": float(WIDE_YEARS),
            "slot_hours": 1.0,
        },
        "saturation": 0.03,
        "uncertainty": {"kind": "bounded", "spread": 0.3},
        "players": players,
    }


def config_path(workload: Workload, seed: int, work_dir: str) -> str:
    """Config file of one workload; writes the generated one for wide-sim."""
    if workload.name == "fbm-payback":
        return FBM_CONFIG
    if workload.name != "wide-sim":
        return BOUNDED_CONFIG
    path = os.path.join(work_dir, f"wide-{seed}.json")
    with open(path, "w") as fh:
        json.dump(wide_config(seed), fh, indent=2)
    return path
