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


def unused_package_imports(source: str) -> set[str]:
    """Names a module imports from the package and never reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qfftsim"))
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("layer", LAYERS)
def test_no_layer_module_keeps_an_unused_import_from_another(layer):
    # an unread binding of another module's function would still be wrapped, and
    # counted, by tools that trace the calls between modules
    path = pathlib.Path(qfftsim.__file__).with_name(f"{layer}.py")
    assert unused_package_imports(path.read_text(encoding="utf-8")) == set()


def test_an_unused_import_is_found():
    # the check above would catch one
    source = "from .circuit import compile_circuit, validate_circuit\nfrom numpy import pi\ncompile_circuit(pi)\n"
    assert unused_package_imports(source) == {"validate_circuit"}
