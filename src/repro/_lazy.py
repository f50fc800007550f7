"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists which submodule provides each public name;
the submodule is imported the first time one of its names is looked up,
and the value is then bound on the package so later lookups are plain
attribute reads.  ``import repro.cli`` thereby loads only the modules the
command actually runs, not every module a package re-exports.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module (relative to ``package`` when it starts with
    a dot) to the public names it provides.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package]

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(namespace, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(namespace)) | origin.keys())

    shadowed = {
        name for name, module in origin.items()
        if module in (f".{name}", f"{package}.{name}")
    }
    if shadowed:
        namespace.__class__ = _shadowing_package(shadowed)
    return list(origin), __getattr__, __dir__


def _shadowing_package(shadowed: set[str]) -> type:
    """A module type whose exported names win over same-named submodules.

    Importing a submodule binds it on its package (``repro.obs.calibrate``
    the module), which would hide the function of the same name that the
    package exports.  This type binds the function instead, whoever
    imports the submodule first.
    """

    class ShadowingPackage(types.ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            if (
                name in shadowed
                and isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
            ):
                value = getattr(value, name)
            super().__setattr__(name, value)

    return ShadowingPackage
