"""The package surface: every public name loads on first use, from the
module that defines it, and ``import abducer`` alone runs no submodule."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import abducer


@pytest.mark.parametrize("name", abducer.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"abducer.{abducer._EXPORTS[name]}")
    value = getattr(abducer, name)
    assert value is getattr(module, name)
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == module.__name__


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from abducer import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(abducer.__all__)


def test_dir_lists_every_export():
    assert set(abducer.__all__) <= set(dir(abducer))


def test_misspelled_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'explian'"):
        abducer.explian  # noqa: B018


def test_version_loads_no_submodule(modules_loaded_by):
    loaded = modules_loaded_by("import abducer\nassert abducer.__version__")
    assert {m for m in loaded if m.startswith("abducer")} == {"abducer"}


@pytest.mark.parametrize("path", sorted(Path(abducer.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    # A broken invariant raises AssertionError explicitly, so that
    # ``python -O``, which strips assert statements, still reports it.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", sorted(Path(abducer.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_value_error(path):
    # Bad input raises a typed AbducerError (InvalidArgumentError is also a
    # ValueError), so the CLI maps every one to exit 2 and a bare
    # ValueError stays an internal error.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "ValueError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert lines == []
