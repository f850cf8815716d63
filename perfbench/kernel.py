"""Fixed pure-Python reference kernel used to divide out the host's speed.

The kernel never imports the program under test and never changes between
benchmark versions: its time is the unit in which workload rounds are
reported (`verdict_ref`).  Its instruction mix follows the program's own:
small tuples and bit twiddling, dict lookups, method calls on small objects,
and exact rational arithmetic.  It runs only its own Python code and
builtins: library code that the program also runs (such as `fractions`)
is specialised by the interpreter for whichever caller ran it last, which
would make the kernel's speed depend on the workload.  The garbage
collector is paused while it runs, so its time does not depend on how
large the workload's heap is.
"""

from __future__ import annotations

import gc
import time
from math import gcd

# The kernel's result; a different value means the kernel itself was edited.
EXPECTED = (43498, 47245, (9329, 12))


class _Cell:
    __slots__ = ("code", "weight")

    def __init__(self, code: tuple[int, int, int]):
        self.code = code
        self.weight = 0

    def bump(self, w: int) -> None:
        self.weight += w


def kernel() -> tuple[int, int, tuple[int, int]]:
    """One unit of reference work, about 5 ms on a 2-vCPU cloud VM."""
    cells: dict[tuple[int, int, int], _Cell] = {}
    acc = 0
    for i in range(9000):
        key = (i * 40503) & 0x3FF
        code = ((key >> 1) & 1, (key >> 4) & 1, (key >> 7) & 1)
        cell = cells.get(code)
        if cell is None:
            cell = cells[code] = _Cell(code)
        cell.bump(i & 7)
        acc = (acc + key * (code[0] + 2 * code[1] + 4 * code[2])) % 65521
    lists = sum(len([b for b in cell.code if b]) * cell.weight for cell in cells.values())
    num, den = 0, 1
    for j in range(300):
        num, den = _add(num, den, j % 11, 1 + j % 4)
        if num > 1000 * den:
            num -= 1000 * den
    return acc, lists % 65521, (num, den)


def _add(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 + n2/d2 in lowest terms."""
    num, den = n1 * d2 + n2 * d1, d1 * d2
    g = gcd(num, den)
    return num // g, den // g


def timed_kernel() -> float:
    """Seconds taken by one kernel call, with the garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}, expected {EXPECTED}")
    return elapsed
