"""Exact enumeration of polygon dissections and their quiddities."""

from .core import (
    Dissection,
    DomainError,
    ParseError,
    Quiddity,
    ResourceLimitError,
    cell_size_profile,
    cells,
    dihedral_orbit,
    dihedral_transform,
    format_dissection,
    is_ell_periodic,
    is_size_restricted,
    parse_dissection,
    quiddity,
)

__version__ = "0.1.0"

__all__ = [
    "Dissection",
    "DomainError",
    "ParseError",
    "Quiddity",
    "ResourceLimitError",
    "cell_size_profile",
    "cells",
    "dihedral_orbit",
    "dihedral_transform",
    "format_dissection",
    "is_ell_periodic",
    "is_size_restricted",
    "parse_dissection",
    "quiddity",
    "__version__",
]
