from __future__ import annotations

import os
from pathlib import Path

import pytest

from partrec.functions import PartitionFunctionId, gf_series
from partrec.series import ProductSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
PAPER_QID = REPO_ROOT / "identities" / "paper.qid"
THETA_ETA_QID = REPO_ROOT / "identities" / "theta_eta.qid"

# The subprocess tests run `python -m partrec`; pyproject's `pythonpath`
# covers only this process, so the children get the sources the same way.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)

# The six triple-product instantiations in use: each left side is a
# Pochhammer product (negative-modulus factors rewritten with doubled
# modulus via (x; -Q) = (x; Q^2)(-xQ; Q^2)), each right side a theta family.
JACOBI_TRIPLE_PRODUCT_CASES = [
    ("PENT", ProductSpec.of((1, 1, 3, 1), (1, 2, 3, 1), (1, 3, 3, 1))),
    (
        "PENT_CEIL",
        ProductSpec.of(
            (1, 2, 6, 1), (-1, 5, 6, 1), (-1, 1, 6, 1), (1, 4, 6, 1), (-1, 3, 6, 1), (1, 6, 6, 1)
        ),
    ),
    ("TRI_CEIL", ProductSpec.of((1, 1, 4, 1), (1, 3, 4, 1), (1, 4, 4, 1))),
    ("TRI", ProductSpec.of((-1, 1, 4, 1), (-1, 3, 4, 1), (1, 4, 4, 1))),
    ("TWOSQ", ProductSpec.of((1, 2, 4, 2), (1, 4, 4, 1))),
    ("SQ", ProductSpec.of((-1, 1, 2, 2), (1, 2, 2, 1))),
]


def schoolbook_mul(x: list[int], y: list[int]) -> list[int]:
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(len(x))]


def schoolbook_inverse(x: list[int]) -> list[int]:
    # x[0] is +-1, its own inverse
    inv: list[int] = []
    for k in range(len(x)):
        inv.append(x[0] * ((k == 0) - sum(x[i] * inv[k - i] for i in range(1, k + 1))))
    return inv


@pytest.fixture(scope="session")
def po_odd_2000():
    """The po_bar generating function to order 2000, shared by the heavy tests."""
    return gf_series(PartitionFunctionId.PO_ODD, 2000)
