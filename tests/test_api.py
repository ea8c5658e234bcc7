"""The enumeration bound and the walk-depth cap are module constants, checked
in one place each; no function takes a per-call override of either."""

import importlib
import inspect
import pkgutil

import treescale


def defined_callables():
    """Every function and method defined in a treescale module."""
    for info in pkgutil.iter_modules(treescale.__path__):
        module = importlib.import_module(f"treescale.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_bound_or_depth_cap_parameter():
    found = list(defined_callables())
    assert len(found) > 100
    overrides = [name for name, fn in found
                 if {"bound", "depth_cap"} & set(inspect.signature(fn).parameters)]
    assert overrides == []
