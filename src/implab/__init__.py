"""Desk-scale verification and discovery engine for impossibility theorems
and second-price auction properties."""

__version__ = "0.1.0"

from .orders import LinearOrder, all_linear_orders, bits_of_order
from .satkit import Cnf, Solver, SolveResult, enumerate_models, from_dimacs, solve, to_dimacs
from .swf import encode_arrow

__all__ = [
    "__version__",
    "LinearOrder",
    "all_linear_orders",
    "bits_of_order",
    "Cnf",
    "SolveResult",
    "Solver",
    "solve",
    "enumerate_models",
    "to_dimacs",
    "from_dimacs",
    "encode_arrow",
]
