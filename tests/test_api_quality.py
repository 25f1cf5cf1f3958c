"""Quality gates on the public API surface: importability, docstrings,
and __all__ consistency."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # __main__ exits on import by design (it runs the CLI)
    if name != "repro.__main__"
]


def test_every_module_imports():
    for name in MODULES:
        importlib.import_module(name)


def test_package_all_resolves():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol), f"__all__ lists missing {symbol}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    """Every public function/class defined in the package carries a
    docstring (doc comments on every public item — deliverable (e))."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name}: undocumented public items {undocumented}"
    )


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_cli_is_a_leaf_layer():
    """Nothing in the package imports repro.cli except the CLI entry
    points themselves — the layering inversion (runner importing graph
    builders from the CLI) must not come back."""
    import pathlib
    import re

    package_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for source in sorted(package_root.rglob("*.py")):
        if source.name in ("cli.py", "__main__.py"):
            continue
        if re.search(r"^\s*(from|import)\s+repro\.cli\b",
                     source.read_text(), re.MULTILINE):
            offenders.append(str(source.relative_to(package_root)))
    assert not offenders, f"modules importing repro.cli: {offenders}"


def test_graph_layer_imports_nothing_above_it():
    """The graph layer sits under the engines: no ``repro/graphs`` module
    imports the model, the problems, the algorithms or anything built
    on them, lazily or under ``TYPE_CHECKING`` either."""
    import ast
    import pathlib

    above = ("model", "olocal", "core", "api", "runner", "serve", "analysis")
    graphs_root = pathlib.Path(repro.__file__).resolve().parent / "graphs"
    offenders = []
    for source in sorted(graphs_root.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # ``from ..core import x`` here is ``repro.core``.
                base = ["repro", "graphs"][: 3 - node.level] if node.level else []
                names = [".".join(base + [node.module or ""])]
            else:
                continue
            offenders.extend(
                f"{source.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[:2] in [["repro", layer] for layer in above]
            )
    assert not offenders, f"graph modules importing upper layers: {offenders}"


def test_every_test_function_is_collected():
    """Test functions live under ``tests/``. One in the repo's source
    trees sits in a module pytest does not collect, or that no tier-1
    run names, so nothing runs it: the pytest-benchmark suite that once
    lived in ``benchmarks/`` asserted claims that no run checked."""
    import ast
    import pathlib

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    offenders = []
    for tree_name in ("src", "benchmarks", "perfbench", "examples"):
        for source in sorted((repo_root / tree_name).rglob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            offenders.extend(
                f"{source.relative_to(repo_root)}:{node.lineno} {node.name}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("test_")
            )
    assert not offenders, f"test functions outside tests/: {offenders}"


def test_no_module_imports_pickle_or_base64():
    """Persisted results are read as JSON, never unpickled: no module in
    the package imports ``pickle`` (or ``base64``, which only ever
    carried pickles through text formats)."""
    import ast
    import pathlib

    package_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for source in sorted(package_root.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders.extend(
                f"{source.relative_to(package_root)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("pickle", "base64")
            )
    assert not offenders, f"modules importing pickle/base64: {offenders}"


def test_registries_are_the_single_source_of_names():
    """The package exports the three scenario registries, and they are
    Registry instances (not the plain dicts they replaced)."""
    from repro.registry import Registry

    for name in ("GRAPH_FAMILIES", "PROBLEMS", "ALGORITHMS"):
        assert isinstance(getattr(repro, name), Registry), name


def test_per_node_path_never_imports_numpy():
    """numpy is the vectorized engine's alone: importing the API and the
    service and solving on a per-node engine must not load it (it would
    add to every worker's and the server's start-up time)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import sys\n"
        "import repro.api, repro.serve.service\n"
        "from repro.api import Scenario, run_scenario\n"
        "result = run_scenario(Scenario(family='path', n=16, problem='mis',"
        " algorithm='theorem1'))\n"
        "assert result.ok, result\n"
        "sys.exit(1 if 'numpy' in sys.modules else 0)\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr or "numpy was imported"
