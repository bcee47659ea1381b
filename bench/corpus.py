"""Seeded `.qid` corpus for the `check` workload, with each statement's
expected outcome.

Three kinds of statement:

* every statement of `identities/paper.qid`.  `lebesgue(j)` is raised to the
  smallest j with j(j+1)/2 > order: the partial sum only equals po_bar
  below q^(j(j+1)/2), so the shipped `lebesgue(20)` fails at q^231 under
  any `--order` above 230.
* derived-true statements: both sides of a paper statement multiplied by
  the same seeded atom, `P(±q^a; q^b)^e` or `theta(NAME)`.
* a seeded minority of false statements: `+ k` on one side of a paper
  statement, which must fail at q^0 with residual k (or -k when the
  constant is on the right).

Bases for the derived and false statements are drawn from the statements
without `extract`: an extract evaluates its child at twice the order and
costs several times a plain statement, so drawing it or not would make the
op's duration depend on the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

DERIVED = 6
FALSE = 3
THETA_NAMES = ("PENT", "PENT_CEIL", "PENT2", "TRI", "TRI_CEIL", "SQ", "TWOSQ",
               "TWO_TRI4", "GPENT_HALF")


@dataclass(frozen=True)
class Expected:
    text: str
    passed: bool
    failure: Optional[tuple[int, int]]  # (n, residual) of the first failure


def paper_statements(paper_text: str, order: int) -> list[str]:
    """The statement lines of paper.qid, with every Lebesgue partial sum
    taken far enough to be exact up to `order`."""
    j = 0
    while j * (j + 1) // 2 <= order:
        j += 1

    def widen(match: re.Match) -> str:
        k = int(match.group(1))
        return match.group(0) if k * (k + 1) // 2 > order else f"lebesgue({j})"

    lines = (line.split("#", 1)[0].strip() for line in paper_text.splitlines())
    return [re.sub(r"lebesgue\((\d+)\)", widen, line) for line in lines if line]


def _split(statement: str) -> tuple[str, str, str]:
    lhs, rest = statement.split(" == ")
    rhs, within = rest.rsplit(" within ", 1)
    return lhs, rhs, within


def _atom(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"theta({rng.choice(THETA_NAMES)})"
    sign = rng.choice(("", "-"))
    a, b, e = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 2)
    power = f"^{e}" if e > 1 else ""
    return f"P({sign}q^{a}; q^{b}){power}"


def build(paper_text: str, seed: int, order: int) -> list[Expected]:
    """The corpus for one seed, in the seeded order the file will list it."""
    rng = random.Random(seed)
    paper = paper_statements(paper_text, order)
    corpus = [Expected(s, True, None) for s in paper]
    bases = [s for s in paper if "extract(" not in s]
    for base in rng.sample(bases, DERIVED):
        lhs, rhs, within = _split(base)
        atom = _atom(rng)
        corpus.append(Expected(f"({lhs}) * {atom} == ({rhs}) * {atom} within {within}", True, None))
    for base in rng.sample(bases, FALSE):
        lhs, rhs, within = _split(base)
        k = rng.randint(1, 9)
        if rng.random() < 0.5:
            text, residual = f"({lhs}) + {k} == {rhs} within {within}", k
        else:
            text, residual = f"{lhs} == ({rhs}) + {k} within {within}", -k
        corpus.append(Expected(text, False, (0, residual)))
    rng.shuffle(corpus)
    return corpus
