"""The eight CI demos, made small, against their recorded outputs.

Each demo runs in process through ``cli.main`` on a shipped config whose
horizon is cut to ``SMALL_YEARS`` (payback demos take short ``--periods``
instead), with fewer realizations than in CI.  ``recorded.json`` holds,
per demo, the sha256 of its CSV and of its sidecar and the sidecar
itself, recorded under the numpy version it names.  Under that version
every byte must match.  Under another, the bounded demos' sidecar
numbers must agree to ``REL`` relative (``ABS`` absolute near zero), and
the fBm demos are skipped: their loads go through numpy's power and,
when drawn, its FFT, whose round-off across versions can move an
integer payback slot.

To record again, deliberately, after a change that moves outputs:

    PYTHONPATH=src python tests/test_recorded.py
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from coinvest.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
RECORDED = HERE / "recorded.json"
SMALL_YEARS = 0.25  # 2 190 hourly slots
REL = 1e-9
ABS = 1e-12

# name -> (config, arguments after the config)
DEMOS = {
    "plan": ("edge-bounded.json", ["plan", "--all-coalitions"]),
    "stability": ("edge-bounded.json", ["stability", "--sweep", "0.1,0.3,0.5"]),
    "sim": ("edge-bounded.json", ["simulate", "--realizations", "40", "--seed", "7"]),
    "payback": ("edge-fbm.json", ["payback", "--periods", "0.25,0.5", "--realizations", "10", "--seed", "11"]),
    "sim-ex-ante": (
        "edge-bounded.json",
        ["simulate", "--realizations", "20", "--seed", "7", "--payment-mode", "ex-ante"],
    ),
    "plan-fbm": ("edge-fbm.json", ["plan", "--all-coalitions"]),
    "payback-bounded": ("edge-bounded.json", ["payback", "--periods", "0.25,0.5", "--realizations", "10", "--seed", "3"]),
    "sim-fbm": ("edge-fbm.json", ["simulate", "--realizations", "20", "--seed", "5"]),
}


def run_demo(name: str, directory: pathlib.Path) -> tuple:
    """``(csv bytes, sidecar bytes)`` of demo ``name``, run in ``directory``."""
    config_name, (command, *flags) = DEMOS[name]
    cfg = json.loads((CONFIGS / config_name).read_text())
    cfg["economics"]["investment_years"] = SMALL_YEARS
    config = directory / f"{name}-config.json"
    config.write_text(json.dumps(cfg))
    out = directory / f"{name}.csv"
    assert main([command, str(config), "--out", str(out), *flags]) == 0
    return out.read_bytes(), out.with_suffix(".json").read_bytes()


def record(table: bytes, sidecar: bytes) -> dict:
    return {
        "csv_sha256": hashlib.sha256(table).hexdigest(),
        "sidecar_sha256": hashlib.sha256(sidecar).hexdigest(),
        "sidecar": json.loads(sidecar),
    }


def assert_numbers_close(got, want, path="sidecar"):
    """``got`` has ``want``'s structure, with every float within ``REL``/``ABS``."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_numbers_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_numbers_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL, abs_tol=ABS), (path, got, want)
    else:
        assert got == want, path


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text())


def test_every_demo_is_recorded(recorded):
    assert sorted(recorded["demos"]) == sorted(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_its_recording(name, recorded, tmp_path):
    want = recorded["demos"][name]
    got = record(*run_demo(name, tmp_path))
    if np.__version__ == recorded["numpy"]:
        assert (got["csv_sha256"], got["sidecar_sha256"]) == (want["csv_sha256"], want["sidecar_sha256"])
        return
    if DEMOS[name][0] == "edge-fbm.json":
        pytest.skip(
            f"recorded under numpy {recorded['numpy']}: fBm loads go through numpy's power and FFT, "
            "whose round-off across versions can move an integer payback slot"
        )
    assert_numbers_close(got["sidecar"], want["sidecar"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        demos = {name: record(*run_demo(name, pathlib.Path(tmp))) for name in DEMOS}
    RECORDED.write_text(json.dumps({"numpy": np.__version__, "demos": demos}, indent=1) + "\n")
