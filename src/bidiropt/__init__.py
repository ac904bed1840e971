"""Bi-directional phase-ordering laboratory on a small SSA IR."""

__version__ = "0.1.0"

from .ir import (  # noqa: F401
    Function,
    Module,
    canonical_hash,
    parse_function,
    parse_module,
    print_function,
    validate_function,
    validate_module,
)
