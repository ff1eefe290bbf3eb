"""The public names: every package error is exported, and every listed name exists."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import perturbex as px
import perturbex.errors as errors


def test_every_error_is_exported():
    classes = [
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.PerturbexError)
    ]
    assert "MissingConstant" in classes
    assert set(classes) <= set(px.__all__)
    assert all(getattr(px, name) is getattr(errors, name) for name in classes)


def test_every_listed_name_resolves():
    modules = [px] + [
        importlib.import_module(f"perturbex.{info.name}")
        for info in pkgutil.iter_modules(px.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
