"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exported every public name eagerly would make
each process import every layer below it, whatever it runs: the dispatcher
would load the compiler, the exporter the simulator.  Instead a package
declares which submodule provides each name, and a name is imported from
its submodule on first access, then kept in the package namespace::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.engine": ("simulate",),
        "repro.sim.results": ("SimulationResult",),
    })
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each providing module (absolute name) to the names it
    provides.  Must be called from the package's ``__init__``.
    """

    owners = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return sorted(owners), __getattr__, __dir__
