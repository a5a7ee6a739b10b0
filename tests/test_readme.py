"""The README's library example runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_verbatim(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert 0.0 <= namespace["joint"] <= namespace["per_player"].min() <= 1.0
    assert namespace["delta"] > 0.0
    assert len(namespace["outcomes"]) == 100
    assert "SimulationSummary(" in capsys.readouterr().out
