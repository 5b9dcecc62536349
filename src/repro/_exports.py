"""Package exports resolved on first access (PEP 562).

A package ``__init__`` lists, per submodule, the names it re-exports::

    __getattr__, __dir__, __all__ = exports(__name__, {
        "kernel": ("Kernel", "Timeout"),
        "resources": ("Channel",),
    })

Importing the package then imports none of its submodules; reading an
exported name imports the one submodule that defines it and caches the
value in the package namespace, so a process loads only what it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``,
    which maps each submodule to the names it exports."""
    namespace = vars(sys.modules[package])
    home: Dict[str, str] = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
