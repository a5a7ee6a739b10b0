"""The README's library example runs as printed, and its CLI lines are the CI workflow's demos."""

import pathlib
import re
import shlex

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


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


def readme_cli_runs() -> list:
    """The arguments after ``coinvest`` of each README line that starts with it, ``--out <path>`` dropped."""
    runs = []
    for line in README.read_text().splitlines():
        if line.startswith("coinvest "):
            args = shlex.split(line)[1:]
            out = args.index("--out")
            runs.append(args[:out] + args[out + 2 :])
    return runs


def ci_demo_runs() -> list:
    """The arguments after the table name of each ``CLI_DEMOS`` line, split as the workflow's shell splits them.

    The workflow is read as text: the block runs from ``CLI_DEMOS: |-`` to the first line indented less."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith("CLI_DEMOS: |")) + 1
    indent = len(lines[start]) - len(lines[start].lstrip())
    runs = []
    for line in lines[start:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        if line.strip():
            runs.append(line.split()[1:])
    return runs


def test_readme_cli_lines_are_the_first_four_ci_demos():
    readme = readme_cli_runs()
    assert len(readme) == 4
    assert readme == ci_demo_runs()[:4]
