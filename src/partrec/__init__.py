"""Exact q-series tables for partition counting functions, with machine
verification of the recurrences and convolution identities among them."""

from .functions import PartitionFunctionId, function_value, gf_series, lebesgue_partial
from .recurrences import TheoremId, fast_po_odd_table, residual, verify, verify_all
from .report import VerificationReport
from .series import (
    THETA_FAMILIES,
    ProductSpec,
    TruncatedSeries,
    pochhammer_expand,
    pochhammer_finite,
    theta_series,
)

__version__ = "0.1.0"

# The enumeration oracle loads on first use of one of its names (PEP 562):
# `import partrec.cli` runs this file, and only `oracle-compare` enumerates.
_ORACLE_NAMES = frozenset({"ConstraintSpec", "constraint_for", "oracle_count", "oracle_table"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PartitionFunctionId",
    "TheoremId",
    "TruncatedSeries",
    "ProductSpec",
    "THETA_FAMILIES",
    "VerificationReport",
    "ConstraintSpec",
    "constraint_for",
    "function_value",
    "gf_series",
    "lebesgue_partial",
    "oracle_count",
    "oracle_table",
    "fast_po_odd_table",
    "residual",
    "verify",
    "verify_all",
    "pochhammer_expand",
    "pochhammer_finite",
    "theta_series",
]
