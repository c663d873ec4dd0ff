"""Lazy public names for package ``__init__`` modules (PEP 562).

A package ``__init__`` that re-exports its submodules' names imports all of
them, and everything they import, whenever anything below the package is
imported: a replicated serving worker, which only reads published logits,
would load SciPy and the whole library.  :func:`lazy_exports` gives a
package a module ``__getattr__`` that imports a name's defining module on
first access instead, so ``from repro.serving import ServingServer`` still
works and only pays for what it reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving names lazily.

    ``exports`` maps a module to the public names it defines.  The first
    access to a name imports its module, and the value is stored on the
    package, so later accesses are plain attribute reads.  ``__dir__``
    lists the lazy names beside whatever the package already holds.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
