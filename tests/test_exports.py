"""The package export tables stay true.

Each package ``__init__`` lists its exports as strings in one table
(:func:`repro._exports.exports`), which a linter does not check; these
tests do.  They also pin the hardware parameter classes to the
:mod:`repro.params` leaf: the model modules re-export the very same
objects.
"""

import ast
import importlib
import pathlib

import pytest

import repro.params

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _tables():
    """``{package: table}`` for every package whose ``__init__`` has one."""
    tables = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exports":
                package = ".".join(init.parent.relative_to(SRC).parts)
                tables[package] = ast.literal_eval(node.args[1])
    return tables


TABLES = _tables()

#: The classes moved into :mod:`repro.params`, by the module that used to
#: define them.
MOVED = [
    ("repro.eci.link", "EciLinkParams"),
    ("repro.eci.transfer", "TransferEngineParams"),
    ("repro.net.rdma", "RdmaPathParams"),
    ("repro.net.tcp", "FpgaTcpParams"),
    ("repro.net.tcp", "LinuxTcpParams"),
    ("repro.cpu.core", "CoreParams"),
    ("repro.cpu.thunderx", "ThunderXSpec"),
    ("repro.memory.dram", "DdrChannelParams"),
    ("repro.memory.dram", "DramConfig"),
    ("repro.interconnect.pcie", "PcieParams"),
    ("repro.bmc.regulators", "RegulatorParams"),
    ("repro.fpga.fabric", "FpgaPowerParams"),
    ("repro.apps.stress", "CpuLoadLevels"),
    ("repro.apps.kvs", "KvsPerformanceParams"),
]


def test_no_package_init_imports_a_submodule_eagerly():
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert getattr(node, "module", None) == "_exports", init
    assert {"repro", "repro.config", "repro.sim"} <= set(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_export_table_resolves_to_the_submodule_objects(name):
    package = importlib.import_module(name)
    table = TABLES[name]
    assert package.__all__ == [export for names in table.values() for export in names]
    for module, names in table.items():
        submodule = importlib.import_module(f"{name}.{module}")
        for export in names:
            assert getattr(package, export) is getattr(submodule, export), export
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match=repr(name)):
        package.no_such_export


@pytest.mark.parametrize("module, name", MOVED, ids=[name for _, name in MOVED])
def test_moved_parameter_class_is_the_leaf_object(module, name):
    cls = getattr(repro.params, name)
    assert cls.__module__ == "repro.params"
    assert getattr(importlib.import_module(module), name) is cls
