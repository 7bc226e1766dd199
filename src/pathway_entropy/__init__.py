"""Generalized entropy families, their composition laws, and the power-bracket
kernel family that maximum-entropy arguments produce from them.

The package is organized as one module per concern.  Each module declares
its public names in its own `__all__`, and the package re-exports exactly
those lists, in the order below, for flat imports (`cli` stays a module).
The flat names are bound on first use (PEP 562), so `import pathway_entropy`
or `from pathway_entropy import cli` loads no module it does not name.

    errors              shared exception tree
    quadrature          adaptive Gauss-Kronrod integration
    entropy_discrete    the entropy families on probability vectors
    entropy_continuous  the same measures over densities on an interval
    pathway             kernel/density/cdf/sampling for the power-bracket family
    maxent              constrained maximum-entropy solvers on a grid
    ode_check           derivative identities the kernel satisfies
    divergence          expectation-form identity and inaccuracy measure
    ppp                 product-probability triples over uniform partitions
    cli                 command-line front end (`pathway-entropy`)
"""
import importlib

__version__ = "0.1.0"

_MODULES = ("errors", "quadrature", "entropy_discrete", "entropy_continuous",
            "pathway", "maxent", "ode_check", "divergence", "ppp")


def _load() -> None:
    """Bind every module's public names on the package, and `__all__`."""
    names = ["__version__"]
    for short in _MODULES:
        module = importlib.import_module(f"{__name__}.{short}")
        names += module.__all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
    globals()["__all__"] = names


def __getattr__(name: str):
    # A submodule name misses at once: the import system then loads that
    # submodule alone (`from pathway_entropy import cli`).
    if name not in _MODULES and name != "cli":
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
