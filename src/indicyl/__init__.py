"""Indicial roots of the self-dual deformation complex on cylinders
R x Y^3 over constant-curvature cross-sections, with independent numeric
verification of every closed form."""

import importlib as _importlib

from . import indicial, spectra
from .indicial import (
    IndicialRoot,
    RootCatalog,
    assemble_catalog,
    gluing_window,
    h2plus_predicate,
    spectral_gap,
)
from .spectra import GroupAction, Hyperbolic, Sphere, Torus, load_hyperbolic_spectrum

__version__ = "0.1.0"

__all__ = [
    "curvature",
    "fields",
    "indicial",
    "oracle",
    "spectra",
    "GroupAction",
    "Hyperbolic",
    "Sphere",
    "Torus",
    "IndicialRoot",
    "RootCatalog",
    "assemble_catalog",
    "gluing_window",
    "h2plus_predicate",
    "spectral_gap",
    "load_hyperbolic_spectrum",
]

# The numeric verification modules import numpy, which the closed-form
# catalogs never need; they load on first attribute access (PEP 562).
_LAZY = ("curvature", "fields", "oracle")


def __getattr__(name):
    if name in _LAZY:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
