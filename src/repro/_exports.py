"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every one of them the moment anything under the package is
imported.  :func:`lazy_exports` instead resolves each public name on
first attribute access and caches it in the package namespace, so a
command pays only for the submodules it actually uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(module_of))

    return list(module_of), __getattr__, __dir__
