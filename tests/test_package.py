"""The package surface: each module's `__all__`, re-exported as one list."""
import importlib
import pkgutil

import pathway_entropy

MODULES = ("errors", "quadrature", "entropy_discrete", "entropy_continuous",
           "pathway", "maxent", "ode_check", "divergence", "ppp")


def test_every_module_is_re_exported_or_is_the_cli():
    found = {info.name for info in pkgutil.iter_modules(pathway_entropy.__path__)}
    assert found == set(MODULES) | {"cli"}


def test_each_public_name_resolves_to_the_module_object():
    for name in MODULES:
        module = importlib.import_module(f"pathway_entropy.{name}")
        for attr in module.__all__:
            assert getattr(pathway_entropy, attr) is getattr(module, attr), attr


def test_all_is_the_module_lists_in_order():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"pathway_entropy.{name}").__all__
    assert pathway_entropy.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pathway_entropy import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pathway_entropy.__all__)
