"""Process start-up: lazy package exports and the CLI's BLAS thread default.

Also stdlib ``ast`` guards, since no linter runs on this code: no ``coinvest`` module keeps
an import it never uses, no module-level name that nothing in the package reads and no
parameter that its function never reads; and a frozen record is changed only while it is
being built.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import coinvest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
EXPORTS = {
    "EconomicParams", "cost", "utility",
    "RateProfile", "BoundedLoadModel", "FbmLoadModel", "LoadMatrix",
    "expected_load_matrix", "generate_fbm", "sample_loads",
    "PlayerSet",
    "AllocationPlan", "optimal_plan", "optimal_plan_closed_form", "optimal_plan_numeric",
    "ValueTable", "build_value_table", "shapley", "stability_value_hat",
    "deviation_threshold", "utility_ranges", "stability_lower_bound",
    "Scenario",
    "RealizationOutcome", "SimulationSummary", "simulate", "payback_slots", "summarize",
}


def run_python(code, **env_overrides):
    """stdout of ``code`` in a fresh interpreter, with no BLAS thread setting unless given."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


class TestLazyExports:
    def test_import_loads_no_numpy(self):
        assert run_python("import sys, coinvest; print('numpy' in sys.modules)") == "False"

    def test_every_export_is_its_home_modules_object(self):
        assert sorted(coinvest._HOME) == sorted(coinvest.__all__)
        assert len(coinvest.__all__) == len(EXPORTS) == 28 and set(coinvest.__all__) == EXPORTS
        for name, home in coinvest._HOME.items():
            assert getattr(coinvest, name) is getattr(importlib.import_module(f"coinvest.{home}"), name), name

    def test_dir_lists_every_export(self):
        assert set(coinvest.__all__) <= set(dir(coinvest))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from coinvest import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(coinvest.__all__)

    def test_cli_import_leaves_the_thread_pool_out(self):
        # only a run with more than one worker starts a pool, and imports concurrent.futures to do so
        assert run_python("import sys, coinvest.cli; print('concurrent.futures' in sys.modules)") == "False"

    @pytest.mark.parametrize(
        "command",
        ["payback edge-fbm.json --periods 0.1 --realizations 20", "simulate edge-bounded.json --realizations 20"],
    )
    def test_serial_runs_leave_numpy_ma_and_the_thread_pool_out(self, tmp_path, command):
        # the summaries' quantiles call no np.quantile, whose np.unique imports numpy.ma in numpy 2
        # (numpy 1 imports numpy.ma with numpy itself, so only what the run adds counts)
        name, config, *flags = command.split()
        args = [name, str(pathlib.Path(SRC).parent / "configs" / config), *flags, "--out", str(tmp_path / "t.csv")]
        code = (
            "import sys; from coinvest.cli import main; names = {'numpy.ma', 'concurrent.futures'}; "
            f"loaded = names & set(sys.modules); assert main({args!r}) == 0; "
            "print(sorted(names & set(sys.modules) - loaded))"
        )
        assert run_python(code) == "[]"

    def test_payback_builds_its_spectrum_before_numpy_random_loads(self, tmp_path):
        # every spectrum is a draw row, built before the first draw's generator imports numpy.random
        # (numpy 1 imports numpy.random with numpy itself, so only what the run adds counts)
        args = ["payback", str(pathlib.Path(SRC).parent / "configs" / "edge-fbm.json"), "--periods", "1",
                "--realizations", "2", "--out", str(tmp_path / "t.csv")]
        code = (
            "import sys; from coinvest.cli import main; from coinvest import traffic; "
            "loaded = 'numpy.random' in sys.modules; build, seen = traffic._circulant_roots, []; "
            "traffic._circulant_roots = lambda h, m: seen.append('numpy.random' in sys.modules) or build(h, m); "
            f"assert main({args!r}) == 0; print((loaded, seen, 'numpy.random' in sys.modules))"
        )
        loaded, seen, after = ast.literal_eval(run_python(code))
        assert seen == [loaded, loaded] and after  # one spectrum per SP; the draws load numpy.random

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            coinvest.no_such_export


class TestBlasDefault:
    PROBE = "import os, coinvest.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    THREADS = "import os, coinvest.cli; print(len(os.listdir('/proc/self/task')))"

    def test_sets_one_thread_when_unset(self):
        assert run_python(self.PROBE) == "1"

    def test_keeps_the_users_openblas_setting(self):
        assert run_python(self.PROBE, OPENBLAS_NUM_THREADS="3") == "3"

    def test_sets_nothing_when_omp_is_set(self):
        assert run_python(self.PROBE, OMP_NUM_THREADS="2") == "None"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task")
    def test_cli_process_runs_one_thread(self):
        if run_python(self.THREADS, OPENBLAS_NUM_THREADS="2") == "1":
            pytest.skip("this BLAS starts no thread pool")
        assert run_python(self.THREADS) == "1"


def imported_names(tree):
    """``{name: line}`` of every name an import in ``tree`` binds, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({(a.asname or a.name): node.lineno for a in node.names})
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in pathlib.Path(SRC, "coinvest").glob("*.py")))
def test_every_import_is_used(module):
    tree = ast.parse(pathlib.Path(SRC, "coinvest", module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: imported and never used: {unused}"


def module_level_names(tree):
    """``{name: line}`` of every name a module binds at its top level, dunder names aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update({t.id: node.lineno for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)})
    return {name: line for name, line in names.items() if not (name.startswith("__") and name.endswith("__"))}


def test_every_module_level_name_is_read():
    """Each top-level name of a ``coinvest`` module is read somewhere in the package, as a
    name or an attribute, or is a public export in ``coinvest.__all__``."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(pathlib.Path(SRC, "coinvest").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = {
        f"{module}:{line}": name
        for module, tree in trees.items()
        for name, line in module_level_names(tree).items()
        if name not in read and name not in coinvest.__all__
    }
    assert not dead, f"defined and never read: {dead}"


def unread_parameters(tree):
    """``{(qualified name, parameter): line}`` of each parameter of a ``def`` or ``lambda`` in
    ``tree``, ``self`` and ``cls`` aside, that its body never reads as a name."""
    unread = {}

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = names + [getattr(child, "name", "<lambda>")]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {
                    n.id for part in body for n in ast.walk(part)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
                }
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                unread.update({
                    (".".join(scope), p.arg): child.lineno
                    for p in params if p.arg not in read and p.arg not in ("self", "cls")
                })
                visit(child, scope)
            elif isinstance(child, ast.ClassDef):
                visit(child, names + [child.name])
            else:
                visit(child, names)

    visit(tree, [])
    return unread


def test_every_parameter_is_read():
    """Each parameter of a ``def`` or ``lambda`` in ``coinvest`` is read in its body, so no
    caller passes a value that nothing uses.  One is allowed: ``BoundedLoadModel.load_bound``
    takes ``slots`` as ``FbmLoadModel.load_bound`` does, since ``Scenario`` asks either model
    for its bound over the horizon and only the fBm bound grows with it."""
    unread = {
        (f"{p.stem}.{name}", param): line
        for p in sorted(pathlib.Path(SRC, "coinvest").glob("*.py"))
        for (name, param), line in unread_parameters(ast.parse(p.read_text())).items()
    }
    allowed = ("traffic.BoundedLoadModel.load_bound", "slots")
    assert allowed in unread  # the walk sees the one parameter it allows
    del unread[allowed]
    assert not unread, f"parameters never read: {unread}"


def setattr_sites(tree):
    """``(qualified name, line)`` of the function or class around each ``object.__setattr__`` in ``tree``."""
    sites = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, names + [child.name])
                continue
            if (
                isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"
            ):
                sites.append((".".join(names), child.lineno))
            visit(child, names)

    visit(tree, [])
    return sites


def test_frozen_records_change_only_while_built():
    """``object.__setattr__`` appears in ``coinvest`` only inside a ``__post_init__``, so no
    frozen record gains or changes a field after it is built."""
    sites = {
        f"{p.stem}.{name}:{line}"
        for p in sorted(pathlib.Path(SRC, "coinvest").glob("*.py"))
        for name, line in setattr_sites(ast.parse(p.read_text()))
    }
    assert any(".__post_init__:" in site for site in sites)  # the walk sees the records' own builds
    outside = sorted(site for site in sites if ".__post_init__:" not in site)
    assert not outside, f"object.__setattr__ outside __post_init__: {outside}"
