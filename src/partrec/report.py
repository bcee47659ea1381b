"""Verification reports shared by the theorem suites and the identity checker."""

from __future__ import annotations

import functools
from typing import Any

from .record import Record

__all__ = ["Failure", "VerificationReport", "format_int"]


def format_int(value: int) -> str:
    """str(value), or, past CPython's limit on converting an int to text
    (4300 digits by default), its leading digits and its digit count."""
    try:
        return str(value)
    except ValueError:
        return ("-" if value < 0 else "") + _abbreviate(abs(value))


@functools.lru_cache(maxsize=1)  # a failure's residual is often the side just printed
def _abbreviate(size: int) -> str:
    # 1 + (bit_length - 1) * log10(2) rounded down, through a fraction just
    # below log10(2): the digit count or one short (below 10^10 digits)
    digits = (size.bit_length() - 1) * 30102999566 // 10**11 + 1
    power = 10 ** (digits - 20)  # the costly step, taken once
    if power * 10**20 <= size:
        digits, power = digits + 1, power * 10
    return f"{size // power}...({digits} digits)"


class Failure(Record):
    """The first n at which an identity fails, and its residual there."""

    __slots__ = ("n", "residual")


class VerificationReport(Record):
    """Outcome of checking one identity for all 0 <= n <= n_max: its
    theorem (or statement label), n_max, whether it passed, the first
    `Failure` (None for none) and the milliseconds it took.

    `detail` (None by default) carries extra human-readable context (both
    coefficients of a failed identity check, say) and is not part of the
    JSON contract.
    """

    __slots__ = ("theorem", "n_max", "passed", "first_failure", "millis", "detail")
    _defaults = {"detail": None}

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict[str, Any]:
        """The stable serialization: residuals travel as strings because
        they are unbounded integers, through `format_int` past its limit."""
        failure = None
        if self.first_failure is not None:
            failure = {"n": self.first_failure.n, "residual": format_int(self.first_failure.residual)}
        return {
            "theorem": self.theorem,
            "n_max": self.n_max,
            "status": self.status,
            "first_failure": failure,
            "millis": self.millis,
        }

    def summary_line(self) -> str:
        base = f"{self.theorem}: {self.status} (n <= {self.n_max}, {self.millis} ms)"
        if self.first_failure is not None:
            fail = self.first_failure
            base += f"; first failure at n={fail.n}, residual={format_int(fail.residual)}"
        if self.detail:
            base += f" [{self.detail}]"
        return base
