"""Each ``levylink`` submodule's ``__all__`` names only what the module defines.

The ``perfbench`` tracer wraps exactly the functions these lists name, so a
name made private but left in ``__all__``, or one imported from another
module, would break or double its spans.
"""
import importlib
import inspect
import pkgutil

import pytest

import levylink

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(levylink.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve_to_objects_defined_in_the_module(name):
    module = importlib.import_module(f"levylink.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"levylink.{name}.__all__ names missing {attr!r}"
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (attr, obj.__module__)
