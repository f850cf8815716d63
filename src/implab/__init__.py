"""Desk-scale verification and discovery engine for impossibility theorems
and second-price auction properties.

The exported names load their module on first use, so `import implab`
builds no layer and a command imports only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    "LinearOrder": "orders",
    "all_linear_orders": "orders",
    "bits_of_order": "orders",
    "Cnf": "satkit",
    "SolveResult": "satkit",
    "Solver": "satkit",
    "solve": "satkit",
    "enumerate_models": "satkit",
    "to_dimacs": "satkit",
    "from_dimacs": "satkit",
    "encode_arrow": "swf",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
