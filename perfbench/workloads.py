"""The benchmark's workloads: the commands of one round and their oracles.

Only `vickrey-sweep` draws inputs from the seed.  The other three run fixed
commands, because their work is set by their flags alone; the seed still
names the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import oracles


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the exit code it must give and the oracle for its report."""

    argv: tuple[str, ...]
    expect_code: int
    check: Callable[[dict], list[str]]


VICKREY_N = 4
VICKREY_GRID = [Fraction(i) for i in range(11)]
VICKREY_N_MAX = 8


def vickrey_values(seed: int) -> list[Fraction]:
    """Valuations k + 1/2 with 1 <= k <= 9: off the grid, so every deviation
    domain has 12 points and the sweep size never depends on the seed, and
    above 1, so the first-price counterexample is found at the same cell."""
    rng = random.Random(seed)
    return [Fraction(2 * rng.randint(1, 9) + 1, 2) for _ in range(VICKREY_N)]


def _arrow_n3(seed: int) -> list[Op]:
    return [Op(("arrow", "--agents", "3"), 0, partial(oracles.check_arrow, n=3, axioms=("UN", "ND")))]


def _arrow_allsat(seed: int) -> list[Op]:
    argv = ("arrow", "--agents", "2", "--drop-axiom", "un", "--drop-axiom", "nd", "--count-models")
    return [Op(argv, 0, partial(oracles.check_arrow_allsat, n=2))]


def _ranksets_discover(seed: int) -> list[Op]:
    return [Op(("ranksets", "discover", "--max-m", "5"), 0, partial(oracles.check_discover, max_m=5))]


def _vickrey_sweep(seed: int) -> list[Op]:
    values = vickrey_values(seed)
    grid = ("--grid", "0:10:1")
    dominance = ("vickrey", "dominance", "--n", str(VICKREY_N), *grid, "--values", ",".join(map(str, values)))
    return [
        Op(dominance, 0, partial(oracles.check_dominance, rule="second-price", values=values, grid=VICKREY_GRID)),
        Op(
            (*dominance, "--rule", "first-price"),
            3,
            partial(oracles.check_dominance, rule="first-price", values=values, grid=VICKREY_GRID),
        ),
        Op(
            ("vickrey", "soundness", "--n", str(VICKREY_N), *grid),
            0,
            partial(oracles.check_soundness, n=VICKREY_N, grid=VICKREY_GRID),
        ),
        Op(
            ("vickrey", "abstract", "--n-max", str(VICKREY_N_MAX), "--value", str(values[0]), "--delta", "1"),
            0,
            partial(oracles.check_abstract, n_max=VICKREY_N_MAX, value=values[0], delta=Fraction(1)),
        ),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "arrow-n3": _arrow_n3,
    "arrow-allsat": _arrow_allsat,
    "ranksets-discover": _ranksets_discover,
    "vickrey-sweep": _vickrey_sweep,
}
