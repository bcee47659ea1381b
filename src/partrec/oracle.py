"""Brute-force partition enumeration, independent of the series engine.

Counts are obtained by explicitly generating every partition that meets a
constraint, in the canonical non-increasing order (largest part first,
with a running max-part bound), so nothing here shares code with the
generating-function expansions it validates.

The envelope is deliberately small: enumeration is exponential and exists
to cross-check series coefficients for small n, not to compute tables.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator

from .functions import ORACLE_MAX_N, PartitionFunctionId
from .record import Record

__all__ = [
    "Parity",
    "Distinctness",
    "Overline",
    "Copies",
    "ConstraintSpec",
    "ORACLE_MAX_N",
    "constraint_for",
    "oracle_count",
    "oracle_table",
    "generate_partitions",
]


class Parity(Enum):
    ANY = "any"
    ODD_ONLY = "odd-only"
    NOT_2_MOD_4 = "exclude 2 mod 4"


class Distinctness(Enum):
    NONE = "none"
    ALL = "all-distinct"
    ODD_PARTS = "odd-distinct"
    EVEN_PARTS = "even-distinct"


class Overline(Enum):
    NONE = "none"
    OVERPARTITION = "overpartition"


class Copies(Enum):
    SINGLE = "single"
    BIPARTITION_DISTINCT = "bipartition-distinct"


class ConstraintSpec(Record):
    """Which partitions a counting function counts: every field has a default."""

    __slots__ = ("parity", "distinctness", "overline", "copies")
    _defaults = {
        "parity": Parity.ANY,
        "distinctness": Distinctness.NONE,
        "overline": Overline.NONE,
        "copies": Copies.SINGLE,
    }

    def part_allowed(self) -> Callable[[int], bool]:
        if self.parity is Parity.ODD_ONLY:
            return lambda m: m % 2 == 1
        if self.parity is Parity.NOT_2_MOD_4:
            return lambda m: m % 4 != 2
        return lambda m: True

    def part_distinct(self) -> Callable[[int], bool]:
        if self.distinctness is Distinctness.ALL:
            return lambda m: True
        if self.distinctness is Distinctness.ODD_PARTS:
            return lambda m: m % 2 == 1
        if self.distinctness is Distinctness.EVEN_PARTS:
            return lambda m: m % 2 == 0
        return lambda m: False


# One ConstraintSpec per counting function; this mapping is the combinatorial
# reading of each generating function and is total by construction.
_CONSTRAINTS: dict[PartitionFunctionId, ConstraintSpec] = {
    PartitionFunctionId.P: ConstraintSpec(),
    PartitionFunctionId.OP: ConstraintSpec(overline=Overline.OVERPARTITION),
    PartitionFunctionId.PO_ODD: ConstraintSpec(
        parity=Parity.ODD_ONLY, overline=Overline.OVERPARTITION
    ),
    PartitionFunctionId.PD: ConstraintSpec(distinctness=Distinctness.ALL),
    PartitionFunctionId.PDO: ConstraintSpec(
        parity=Parity.ODD_ONLY, distinctness=Distinctness.ALL
    ),
    PartitionFunctionId.POOD: ConstraintSpec(distinctness=Distinctness.ODD_PARTS),
    PartitionFunctionId.P2MOD4: ConstraintSpec(parity=Parity.NOT_2_MOD_4),
    # qbar's product (-q;q)^2 is modelled directly: ordered pairs of
    # partitions into distinct parts.
    PartitionFunctionId.QBAR: ConstraintSpec(
        distinctness=Distinctness.ALL, copies=Copies.BIPARTITION_DISTINCT
    ),
    PartitionFunctionId.PEED: ConstraintSpec(distinctness=Distinctness.EVEN_PARTS),
}


def constraint_for(fid: PartitionFunctionId) -> ConstraintSpec:
    return _CONSTRAINTS[fid]


def generate_partitions(
    n: int,
    allowed: Callable[[int], bool],
    distinct: Callable[[int], bool],
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every partition of n as ((size, multiplicity), ...), sizes
    strictly decreasing.  Parts failing `allowed` never appear; parts for
    which `distinct` holds appear with multiplicity 1."""

    def rec(remaining: int, max_part: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if remaining == 0:
            yield ()
            return
        for m in range(min(remaining, max_part), 0, -1):
            if not allowed(m):
                continue
            top = 1 if distinct(m) else remaining // m
            for c in range(1, top + 1):
                if c * m > remaining:
                    break
                for rest in rec(remaining - c * m, m - 1):
                    yield ((m, c),) + rest

    return rec(n, n)


def _check_envelope(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > ORACLE_MAX_N:
        raise ValueError(
            f"n={n} exceeds the enumeration envelope {ORACLE_MAX_N}; "
            "use the generating-function route for large n"
        )


def oracle_count(spec: ConstraintSpec, n: int) -> int:
    """Count partitions of n satisfying spec, by explicit enumeration.

    Overpartitions weight each partition by 2^(number of distinct part
    sizes): any subset of the sizes may be overlined.  Bipartitions count
    ordered pairs of distinct-part partitions of k and n-k.
    """
    _check_envelope(n)
    if spec.copies is Copies.BIPARTITION_DISTINCT:
        singles = [
            oracle_count(ConstraintSpec(spec.parity, spec.distinctness), k)
            for k in range(n + 1)
        ]
        return sum(singles[k] * singles[n - k] for k in range(n + 1))
    allowed = spec.part_allowed()
    distinct = spec.part_distinct()
    total = 0
    for partition in generate_partitions(n, allowed, distinct):
        if spec.overline is Overline.OVERPARTITION:
            total += 1 << len(partition)
        else:
            total += 1
    return total


def oracle_table(spec: ConstraintSpec, n_max: int) -> list[int]:
    """[oracle_count(spec, 0), ..., oracle_count(spec, n_max)]."""
    _check_envelope(n_max)
    return [oracle_count(spec, n) for n in range(n_max + 1)]
