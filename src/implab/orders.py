"""Alternatives, strict linear orders, and the three-alternative bit codec.

Alternatives are indices 0..m-1 with display names a, b, c, ... (m <= 6
everywhere in this package).  A linear order is a permutation of the
alternatives, best first.  At m=3 an order is equivalently a triple of bits
(a>b, a>c, b>c); exactly six of the eight triples are acyclic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

ALTERNATIVE_NAMES = "abcdef"

# The three alternative pairs at m=3, in canonical order: ab, ac, bc.
PAIRS3 = ((0, 1), (0, 2), (1, 2))
PAIR_NAMES = ("ab", "ac", "bc")

# Bit triples that encode a cycle rather than an order.
CYCLIC_CODES = frozenset({(0, 1, 0), (1, 0, 1)})

ORDER_CAP = 6


@dataclass(frozen=True, order=True)
class LinearOrder:
    """A strict total order over m alternatives; ranking lists them best first."""

    ranking: tuple[int, ...]

    def __post_init__(self):
        m = len(self.ranking)
        if m == 0 or sorted(self.ranking) != list(range(m)):
            raise ValueError(f"ranking must be a permutation of 0..m-1, got {self.ranking}")

    @property
    def m(self) -> int:
        return len(self.ranking)

    def prefers(self, x: int, y: int) -> bool:
        return self.ranking.index(x) < self.ranking.index(y)

    def __str__(self) -> str:
        return ">".join(ALTERNATIVE_NAMES[i] for i in self.ranking)


def all_linear_orders(m: int) -> list[LinearOrder]:
    """All m! orders, lexicographic on the underlying permutations."""
    if m < 1 or m > ORDER_CAP:
        raise ValueError(f"alternative count {m} outside supported range 1..{ORDER_CAP}")
    return [LinearOrder(p) for p in itertools.permutations(range(m))]


def bits_of_order(order: LinearOrder) -> tuple[int, int, int]:
    """Encode an m=3 order as (a>b, a>c, b>c)."""
    if order.m != 3:
        raise ValueError(f"bit codec is defined for m=3 only, got m={order.m}")
    return tuple(1 if order.prefers(x, y) else 0 for x, y in PAIRS3)


# Indexed by the code 4*ab + 2*ac + bc, the order in which itertools.product
# lists the triples: its order, None at the cyclic 010 and 101.
ORDER_BY_CODE: tuple[LinearOrder | None, ...] = tuple(
    map({bits_of_order(o): o for o in all_linear_orders(3)}.get, itertools.product((0, 1), repeat=3))
)
