"""The package's settable options, pinned so that a new knob shows up in review.

An option is a parameter of the constructor of a public class defined in a
``transukan`` module, exceptions aside; for a dataclass those are its fields.
"""

import importlib
import inspect
import pkgutil

import transukan


def settable_options() -> list[str]:
    out = []
    for info in pkgutil.iter_modules(transukan.__path__):
        module = importlib.import_module(f"transukan.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and not issubclass(obj, BaseException)):
                out += [f"{info.name}.{name}.{p}" for p in inspect.signature(obj).parameters]
    return out


def test_settable_option_count_is_pinned():
    assert len(settable_options()) == 84
