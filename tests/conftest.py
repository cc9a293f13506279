"""Helpers shared by the test modules."""

import functools
import importlib
import pkgutil

import muhermite


def package_caches() -> dict:
    """Every lru_cache a muhermite module defines, by "module.name", found by scanning module globals."""
    caches = {}
    for info in pkgutil.iter_modules(muhermite.__path__):
        if info.name == "__main__":  # running it is the CLI
            continue
        module = importlib.import_module(f"muhermite.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj
    return caches
