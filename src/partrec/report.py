"""Verification reports shared by the theorem suites and the identity checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Failure", "VerificationReport", "format_int"]


def format_int(value: int) -> str:
    """str(value), or, past CPython's limit on converting an int to text
    (4300 digits by default), its leading digits and its digit count."""
    try:
        return str(value)
    except ValueError:
        size = abs(value)
        digits = int(size.bit_length() * 0.30102999566398120)  # log10(2): one short at most
        digits += 10**digits <= size
        return f"{'-' if value < 0 else ''}{size // 10 ** (digits - 20)}...({digits} digits)"


@dataclass(frozen=True)
class Failure:
    n: int
    residual: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity for all 0 <= n <= n_max.

    `detail` carries extra human-readable context (both coefficients of a
    failed identity check, say) and is not part of the JSON contract.
    """

    theorem: str
    n_max: int
    passed: bool
    first_failure: Optional[Failure]
    millis: int
    detail: Optional[str] = None

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
