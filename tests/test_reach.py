"""Every module under ``src/repro`` has a run.

A module is kept only if an example, a benchmark or an EXPERIMENTS.md
row runs it.  The first two are checked by a static import closure:
starting from every file in ``examples/`` and ``benchmarks/``, it follows
``import`` and ``from`` forms, relative ones included, and the names each
package resolves through its export table (:func:`repro._exports.exports`,
the package's only dynamic import).  A module that only a test runs is
listed in ``BY_EXPERIMENT``, with the EXPERIMENTS.md heading whose claim
rests on it and the test file that runs it.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Module -> (EXPERIMENTS.md heading, the test file that runs it).
BY_EXPERIMENT = {
    "repro.eci.cosim": ("Co-simulation (§4.1)", "tests/eci/test_cosim.py"),
    "repro.eci.formal": ("Formal results", "tests/eci/test_formal.py"),
    "repro.eci.system": ("Protocol stress", "tests/integration/test_protocol_stress.py"),
    "repro.net.iperf": ("Cross-validation", "tests/integration/test_model_crossvalidation.py"),
}


def _modules():
    """``{dotted name: path}`` for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


MODULES = _modules()


def _export_table(path):
    """``{name: submodule}`` from a package ``__init__``'s export table."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exports":
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items() for name in names}
    return {}


TABLES = {name: _export_table(path) for name, path in MODULES.items() if path.name == "__init__.py"}


def _imported(path, name=""):
    """The ``repro`` modules that the file at ``path`` (module ``name``)
    names in an import, with exported names resolved to their submodule."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(base + [module] if module else base)
            found.add(module)
            for alias in node.names:
                if f"{module}.{alias.name}" in MODULES:
                    found.add(f"{module}.{alias.name}")
                elif alias.name in TABLES.get(module, {}):
                    found.add(f"{module}.{TABLES[module][alias.name]}")
    return {module for module in found if module in MODULES}


def _closure(files):
    """Every ``repro`` module reached by importing from ``files``."""
    reached = set()
    pending = set().union(*(_imported(path) for path in files))
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        parts = module.split(".")
        pending.update(".".join(parts[:i]) for i in range(1, len(parts)))
        pending.update(_imported(MODULES[module], module) - reached)
    return reached


def test_only_the_export_tables_import_dynamically():
    dynamic = {
        name for name, path in MODULES.items()
        if re.search(r"importlib|__import__", path.read_text())
    }
    assert dynamic == {"repro._exports"}


def test_every_module_has_a_run():
    runs = sorted((ROOT / "examples").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    assert set(MODULES) - _closure(runs) == set(BY_EXPERIMENT)


@pytest.mark.parametrize("module", sorted(BY_EXPERIMENT))
def test_module_without_a_run_backs_an_experiment(module):
    heading, test_file = BY_EXPERIMENT[module]
    headings = [
        line for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith("## ")
    ]
    assert any(line[3:].startswith(heading) and test_file in line for line in headings)
    assert module in _imported(ROOT / test_file)
