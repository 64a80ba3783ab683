"""Desk-scale numerical toolkit for products of Hardy-space functions with
BMO / Lipschitz multipliers: grid quadrature, maximal operators, Orlicz and
oscillation norms, atoms, polynomial projections and product splits."""

from .grid import Ball, GridFunction, GridSpec
from .atoms import Atom, AtomicDecomposition
from .lipschitz import LipschitzOrder
from .product import ProductSplit, SplitReport

__all__ = [
    "Ball",
    "GridFunction",
    "GridSpec",
    "Atom",
    "AtomicDecomposition",
    "LipschitzOrder",
    "ProductSplit",
    "SplitReport",
]

__version__ = "0.1.0"
