"""Shape of the layer modules that call-boundary tooling relies on."""

import ast
import functools
import importlib
import inspect
import pathlib

import pytest

import qfftsim

LAYERS = ("cli", "fourier", "linalg", "circuit", "models", "certify", "reconstruct", "layout")


@pytest.mark.parametrize("layer", LAYERS)
def test_public_functions_are_plain_functions(layer):
    # a cache or other wrapper on a public name would hide its calls from
    # tools that wrap plain functions, without any error
    module = importlib.import_module(f"qfftsim.{layer}")
    public = {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }
    assert public
    assert [name for name, obj in public.items() if not inspect.isfunction(obj)] == []


def test_a_cached_function_is_not_plain():
    # the filter above keeps such a wrapper, so the check catches it
    cached = functools.lru_cache(maxsize=1)(test_public_functions_are_plain_functions)
    assert callable(cached) and cached.__module__ == __name__
    assert not inspect.isfunction(cached)


def test_no_module_imports_another_modules_private_names():
    # each rule is reached by its public name, so a module's private names can
    # change without breaking another
    private = set()
    for path in sorted(pathlib.Path(qfftsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qfftsim")):
                source = (node.module or "").rpartition(".")[2]
                private |= {
                    (path.stem, source, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                }
    assert private == set()
