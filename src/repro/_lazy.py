"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports names from its submodules eagerly makes every
``import package.anything`` pay for all of them.  For :mod:`repro`,
:mod:`repro.core` and :mod:`repro.ingest` that meant each serving
process (gateway, shard worker, ``classminer serve``) loaded the whole
mining stack before answering anything (DESIGN.md §3, "Import
layering"); for :mod:`repro.net` it meant every shard worker loaded the
gateway, the coordinator and an HTTP client it never calls.  Those
packages export through :func:`lazy_exports` instead:
the public names and ``__all__`` are unchanged, but a name's home module
is imported on first access.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping, Sequence
from importlib import import_module


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module-level ``(__getattr__, __dir__)`` for a lazily exporting package.

    ``exports`` maps each home module to the names re-exported from it.
    The returned ``__getattr__`` imports a name's home module on first
    access and stores the value in the package namespace, so it runs at
    most once per name; an unknown name raises :class:`AttributeError`
    exactly as a plain module would (which is also what lets
    ``import package.submodule`` fall through to the import system).
    """
    origins = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            origin = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(origin), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origins))

    return __getattr__, __dir__
