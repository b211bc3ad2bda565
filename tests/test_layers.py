"""Shape of the layer modules that call-boundary tooling relies on."""

import functools
import importlib
import inspect

import pytest

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
