import importlib
import pkgutil

import kernelbandits


def test_every_public_name_exists():
    # a stale __init__ import fails at import time; a stale __all__ entry
    # fails only on "from module import *", so check each one here
    modules = [kernelbandits] + [
        importlib.import_module(f"kernelbandits.{info.name}")
        for info in pkgutil.iter_modules(kernelbandits.__path__)
    ]
    listed = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            listed += 1
    assert listed > 0
