"""The public API contract: every export documented, every import stable.

This is the CI gate behind the docs: a public symbol exported from
``repro/__init__.py`` (or from the flow / batch subpackages) without a
docstring fails the suite, so the reference documentation cannot silently
rot as the API grows.
"""

import importlib
import inspect

import pytest

import repro
import repro.batch
import repro.flow

_SUBJECTS = [
    (repro, name) for name in repro.__all__
] + [
    (repro.flow, name) for name in repro.flow.__all__
] + [
    (repro.batch, name) for name in repro.batch.__all__
]


@pytest.mark.parametrize("module,name",
                         _SUBJECTS,
                         ids=[f"{m.__name__}.{n}" for m, n in _SUBJECTS])
def test_public_export_has_docstring(module, name):
    obj = getattr(module, name)
    if isinstance(obj, (str, int, float, list, tuple, dict)):
        return                      # data constants (__version__, NAMED_FLOWS)
    doc = inspect.getdoc(obj)
    assert doc and doc.strip(), (
        f"public export {module.__name__}.{name} lacks a docstring — "
        f"document it (the docs site links against these)")


_PACKAGES = ("cuts", "sim", "sat", "mapping", "synthesis", "truth", "opt",
             "core", "networks", "seq", "io", "circuits", "serve",
             "experiments")


def test_all_lists_are_exact():
    """Everything in every package's __all__ exists (no stale exports)."""
    modules = [repro, repro.flow, repro.batch] + [
        importlib.import_module(f"repro.{name}") for name in _PACKAGES]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_public_dataclasses_document_methods():
    """The batch layer's user-facing classes document their public methods."""
    from repro.batch import BatchRunner, ResultStore, Suite

    for cls in (BatchRunner, ResultStore, Suite):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"
