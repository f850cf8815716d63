"""Second-price auction semantics and exhaustive property checks.

All money amounts are exact: an int or a fractions.Fraction, never a float.
Dominance is a family of inequalities whose boundary cases (a deviation
tying the best competing bid) must not be blurred by floating point.

All three sweeps run on integers: they validate their amounts once,
multiply every grid point and valuation by D, the least common multiple of
their denominators, and map what they find back by dividing by D.  That is
exact for any rule that meets the scaling contract stated on AuctionRule,
and each dominance counterexample or unsound bid vector is re-run through
the rule on the unscaled amounts to confirm it.

Tie-breaking: the lowest-index participant among the maximal bidders wins.
Weak dominance of truthful bidding and valuation-wise efficiency both hold
under this rule; it also makes the outcome a function of the bids, which
the soundness check verifies.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol, Sequence

from .parallel import pool_map

DEFAULT_SWEEP_BUDGET = 10_000_000
SOUNDNESS_RUNS = 3

Amount = int | Fraction

# the digit or point that ends a mantissa, then an exponent marker
_EXPONENT = re.compile(r"[0-9.][eE]")
_INT = frozenset({int})


def to_amount(value) -> Amount:
    """An exact amount: an int or Fraction as it is, anything else through Fraction.

    Strings in exponent notation, such as '1e5', are refused.
    """
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass int, str, or Fraction for exactness")
    # Fraction("1e999999999") would build a billion-digit integer first
    if isinstance(value, str) and _EXPONENT.search(value):
        raise ValueError(f"amount {value!r} uses exponent notation; write a decimal or a fraction")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"amount {value!r} has a zero denominator") from None


def to_amounts(values, label: str = "amount") -> tuple[Amount, ...]:
    out = tuple(values)
    if set(map(type, out)) == _INT and min(out) >= 0:
        return out
    out = tuple(map(to_amount, out))
    for i, v in enumerate(out):
        if v.numerator < 0:
            raise ValueError(f"negative {label} {v} at index {i}")
    return out


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    """Binary allocation vector and payment vector; not self-validating so
    that deliberately broken rules can be fed to the soundness checker."""

    x: tuple[int, ...]
    p: tuple[Amount, ...]


class AuctionRule(Protocol):
    """Maps a bid vector to an outcome.

    Scaling contract: multiplying every bid by a positive integer c
    multiplies every payment by c and leaves the allocation as it is.  The
    sweeps rely on it to run on integers.  Both RULES entries meet it,
    because each price is a bid or 0.
    """

    def __call__(self, bids: Sequence[Amount]) -> AuctionOutcome: ...


def outcome_violations(out: AuctionOutcome, n: int) -> list[str]:
    """Soundness defects of a single outcome, empty when sound."""
    x, p = out.x, out.p
    # sound: one 1 and n-1 zeros in x, the winner pays >= 0, everyone else 0
    if len(x) == n == len(p) and x.count(1) == 1 and x.count(0) == n - 1:
        price = p[x.index(1)]
        if price >= 0 and p.count(0) == n - (price != 0):
            return []
    problems = []
    if len(out.x) != n or len(out.p) != n:
        problems.append(f"vectors sized ({len(out.x)},{len(out.p)}), expected {n}")
        return problems
    if any(xi not in (0, 1) for xi in out.x):
        problems.append("allocation entries must be 0 or 1")
    if sum(out.x) != 1:
        problems.append(f"expected exactly one winner, got {sum(out.x)}")
    for i, (xi, pi) in enumerate(zip(out.x, out.p)):
        if pi < 0:
            problems.append(f"negative payment {pi} for participant {i}")
        if xi == 0 and pi != 0:
            problems.append(f"losing participant {i} pays {pi} instead of 0")
    return problems


def run_spa(bids: Sequence) -> AuctionOutcome:
    """Second-price rule: highest bid wins, pays the best competing bid."""
    b = to_amounts(bids, "bid")
    if not b:
        raise ValueError("auction needs at least one bid")
    # the best competing bid is the second largest: one copy of the max is the winner's
    ranked = sorted(b)
    winner = b.index(ranked[-1])
    price = ranked[-2] if len(b) > 1 else 0
    return _outcome(len(b), winner, price)


def run_first_price(bids: Sequence) -> AuctionOutcome:
    """Mutant rule for falsification runs: the winner pays its own bid."""
    b = to_amounts(bids, "bid")
    if not b:
        raise ValueError("auction needs at least one bid")
    winner = b.index(max(b))
    return _outcome(len(b), winner, b[winner])


RULES: dict[str, AuctionRule] = {"second-price": run_spa, "first-price": run_first_price}


def _outcome(n: int, winner: int, price: Amount) -> AuctionOutcome:
    """The outcome in which winner pays price; RuntimeError if it is unsound."""
    x, p = [0] * n, [0] * n
    x[winner], p[winner] = 1, price
    out = AuctionOutcome(tuple(x), tuple(p))
    problems = outcome_violations(out, n)
    if problems:
        raise RuntimeError(f"auction rule produced an unsound outcome: {problems}")
    return out


def payoff(v_i, x_i: int, p_i) -> Amount:
    return to_amount(v_i) * x_i - to_amount(p_i)


@dataclass(frozen=True)
class BidGrid:
    points: tuple[Amount, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", to_amounts(self.points, "grid point"))
        if not self.points:
            raise ValueError("grid must be non-empty")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("grid points must be strictly ascending")


def parse_grid(text: str, budget: int = DEFAULT_SWEEP_BUDGET) -> BidGrid:
    """Grid syntax: explicit "0,1,2" or inclusive range "start:stop:step".

    A grid is sized before any point is built, and refused when it has
    more than budget points.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range grid must be start:stop:step, got {text!r}")
        start, stop, step = map(to_amount, parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = max(0, (stop - start) // step + 1)
        if count > budget:
            raise ValueError(f"grid of {count} points exceeds budget {budget}")
        return BidGrid(tuple(start + k * step for k in range(count)))
    count = text.count(",") + 1
    if count > budget:
        raise ValueError(f"grid of {count} points exceeds budget {budget}")
    return BidGrid(tuple(text.split(",")))


def _root_floor(x: int, n: int) -> int:
    """Largest k >= 0 with k**n <= x, for x >= 0 and n >= 1, in integers."""
    if n > x.bit_length():
        return min(x, 1)  # 2**n > x already
    lo, hi = 0, 1 << (x.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def dominance_point_limit(n: int, sweep_budget: int = DEFAULT_SWEEP_BUDGET) -> int:
    """Most grid points a dominance sweep over n agents may have: with k
    points each agent sweeps at least k**(n-1) * k cells, n * k**n in all."""
    if n < 1:
        return sweep_budget
    return _root_floor(max(0, sweep_budget) // n, n)


def soundness_point_limit(n: int, sweep_budget: int = DEFAULT_SWEEP_BUDGET) -> int:
    """Most grid points a soundness sweep over n bids may have: k points give k**n bid vectors."""
    if n < 1:
        return sweep_budget
    return _root_floor(max(0, sweep_budget), n)


@dataclass(frozen=True)
class DominanceCounterexample:
    agent: int
    truthful_bids: tuple[Amount, ...]
    deviation_bids: tuple[Amount, ...]
    truthful_payoff: Amount
    deviation_payoff: Amount


@dataclass(frozen=True)
class DominanceResult:
    holds: bool
    cells: int
    counterexample: DominanceCounterexample | None = None


def _agent_counterexample(task: tuple) -> DominanceCounterexample | None:
    """First (by canonical sweep order) profitable deviation for agent i.

    task is (i, v_i, n, opponent_grid, deviations, rule), one tuple so that
    pool_map can hand it to a worker.
    """
    i, v_i, n, opponent_grid, deviations, rule = task
    for others in itertools.product(opponent_grid, repeat=n - 1):
        truthful = others[:i] + (v_i,) + others[i:]
        out = rule(truthful)
        truth_pay = payoff(v_i, out.x[i], out.p[i])
        for dev in deviations:
            dev_bids = others[:i] + (dev,) + others[i:]
            dev_out = rule(dev_bids)
            dev_pay = payoff(v_i, dev_out.x[i], dev_out.p[i])
            if dev_pay > truth_pay:
                return DominanceCounterexample(
                    agent=i,
                    truthful_bids=truthful,
                    deviation_bids=dev_bids,
                    truthful_payoff=truth_pay,
                    deviation_payoff=dev_pay,
                )
    return None


def _scaled(*groups: tuple[Amount, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """D, the lcm of the denominators of validated amounts, and each group
    of amounts times D, as ints."""
    d = math.lcm(*(a.denominator for g in groups for a in g))
    return d, [tuple(a.numerator * (d // a.denominator) for a in g) for g in groups]


def _unscaled(ce: DominanceCounterexample, d: int, rule: AuctionRule) -> DominanceCounterexample:
    """ce found on amounts multiplied by d, divided back by d.

    Both bid vectors are re-run through rule on the unscaled amounts; a
    payoff that does not reproduce means rule breaks the scaling contract.
    """
    i = ce.agent
    back = DominanceCounterexample(
        agent=i,
        truthful_bids=tuple(Fraction(b, d) for b in ce.truthful_bids),
        deviation_bids=tuple(Fraction(b, d) for b in ce.deviation_bids),
        truthful_payoff=Fraction(ce.truthful_payoff, d),
        deviation_payoff=Fraction(ce.deviation_payoff, d),
    )
    v_i = back.truthful_bids[i]
    for bids, expected in (
        (back.truthful_bids, back.truthful_payoff),
        (back.deviation_bids, back.deviation_payoff),
    ):
        out = rule(bids)
        got = payoff(v_i, out.x[i], out.p[i])
        if got != expected:
            raise RuntimeError(
                f"auction rule breaks the scaling contract: on bids ({', '.join(map(str, bids))}) "
                f"agent {i} gets payoff {got}, but {expected} on the bids times {d}"
            )
    return back


def check_dominance(
    n: int,
    agents: Sequence[tuple[int, object]],
    grid: BidGrid,
    rule: AuctionRule = run_spa,
    sweep_budget: int = DEFAULT_SWEEP_BUDGET,
    jobs: int = 1,
) -> DominanceResult:
    """Exhaustively compare truthful bidding against every grid deviation.

    agents holds (index, valuation) pairs for the participants to check,
    out of n.  For each, the opponents range over the grid and the deviation
    domain is the grid plus the participant's own valuation.  The sweep runs
    on every amount times the least common multiple of their denominators.
    The counterexample reported is the first found in agents order.
    """
    indices = tuple(i for i, _ in agents)
    v = to_amounts((v_i for _, v_i in agents), "valuation")
    if n < 2:
        raise ValueError(f"dominance check needs more than one participant, got {n}")
    if len(set(indices)) != len(indices) or not all(0 <= i < n for i in indices):
        raise ValueError(f"agent indices {list(indices)} must be distinct and in 0..{n - 1}")
    d, (points, values) = _scaled(grid.points, v)
    dev_domains = [tuple(sorted(set(points) | {v_i})) for v_i in values]
    cells = sum(len(points) ** (n - 1) * len(dev) for dev in dev_domains)
    if cells > sweep_budget:
        raise ValueError(f"dominance sweep of {cells} cells exceeds budget {sweep_budget}")
    tasks = [(i, v_i, n, points, dev, rule) for i, v_i, dev in zip(indices, values, dev_domains)]
    # at most one hit per agent, so the first in agents order is the canonical one
    ce = next((h for h in pool_map(_agent_counterexample, tasks, jobs) if h is not None), None)
    if ce is not None:
        return DominanceResult(False, cells, _unscaled(ce, d, rule))
    return DominanceResult(True, cells)


def check_weak_dominance(
    valuations: Sequence,
    grid: BidGrid,
    rule: AuctionRule = run_spa,
    sweep_budget: int = DEFAULT_SWEEP_BUDGET,
    jobs: int = 1,
) -> DominanceResult:
    """check_dominance for every participant, valuations[i] being agent i's."""
    v = tuple(valuations)
    return check_dominance(len(v), tuple(enumerate(v)), grid, rule, sweep_budget, jobs)


@dataclass(frozen=True)
class EfficiencyResult:
    holds: bool
    winner: int
    winner_valuation: Amount
    max_valuation: Amount


def check_efficiency(valuations: Sequence, rule: AuctionRule = run_spa) -> EfficiencyResult:
    """Truthful bidding must award the good to a maximal valuation."""
    v = to_amounts(valuations, "valuation")
    out = rule(v)
    winner = out.x.index(1)
    return EfficiencyResult(
        holds=v[winner] == max(v),
        winner=winner,
        winner_valuation=v[winner],
        max_valuation=max(v),
    )


@dataclass(frozen=True)
class SoundnessReport:
    bids: tuple[Amount, ...]
    violations: tuple[str, ...]
    outcome: AuctionOutcome

    @property
    def sound(self) -> bool:
        return not self.violations


def check_soundness(bids: Sequence, rule: AuctionRule = run_spa) -> SoundnessReport:
    """Outcome invariants plus determinism across SOUNDNESS_RUNS evaluations."""
    b = to_amounts(bids, "bid")
    first = rule(b)
    problems = outcome_violations(first, len(b))
    for _ in range(SOUNDNESS_RUNS - 1):
        again = rule(b)
        if again != first:
            problems.append(f"nondeterministic outcome: {again} != {first}")
            break
    return SoundnessReport(b, tuple(problems), first)


@dataclass(frozen=True)
class SoundnessSweep:
    """How many bid vectors a soundness sweep checked, and the report of each unsound one."""

    cells: int
    unsound: tuple[SoundnessReport, ...]


def sweep_soundness(
    n: int, grid: BidGrid, rule: AuctionRule = run_spa, sweep_budget: int = DEFAULT_SWEEP_BUDGET
) -> SoundnessSweep:
    """check_soundness over every bid vector in grid^n.

    The sweep runs on every grid point times the lcm D of their
    denominators.  A vector flagged unsound is re-run on the original bids,
    and that report is the one kept.  RuntimeError if the re-run is sound:
    the rule breaks the scaling contract.
    """
    # a one-point grid has 1**n = 1 bid vector, but that vector holds n bids
    if n > sweep_budget:
        raise ValueError(f"soundness sweep over {n} bidders exceeds budget {sweep_budget}")
    cells = len(grid.points) ** n
    if cells > sweep_budget:
        raise ValueError(f"soundness sweep of {cells} bid vectors exceeds budget {sweep_budget}")
    d, (points,) = _scaled(grid.points)
    # scaling is injective, so each scaled point maps back to its grid point as given
    unscaled = dict(zip(points, grid.points))
    unsound = []
    for bids in itertools.product(points, repeat=n):
        rep = check_soundness(bids, rule)
        if rep.sound:
            continue
        original = tuple(unscaled[b] for b in bids)
        back = check_soundness(original, rule)
        if back.sound:
            raise RuntimeError(
                f"auction rule breaks the scaling contract: bids ({', '.join(map(str, original))}) "
                f"are sound, but on the bids times {d}: {'; '.join(rep.violations)}"
            )
        unsound.append(back)
    return SoundnessSweep(cells, tuple(unsound))


def max_classical(xs: Sequence) -> Amount:
    """Pick the witness element certified >= every element by direct scan."""
    items = [to_amount(x) for x in xs]
    if not items:
        raise ValueError("maximum of an empty list is undefined")
    for candidate in items:
        if all(candidate >= other for other in items):
            return candidate
    raise AssertionError("unreachable: a finite list has a maximal element")


def max_constructive(xs: Sequence) -> Amount:
    """Fold from the tail: a singleton is its own maximum, otherwise compare
    the head against the maximum of the rest."""
    items = [to_amount(x) for x in xs]
    if not items:
        raise ValueError("maximum of an empty list is undefined")
    best = items[-1]
    for head in reversed(items[:-1]):
        best = head if head >= best else best
    return best


def abstract_grid(v_i, delta) -> BidGrid:
    """The three representatives of the bid space around a valuation:
    v_i - delta (floored at 0), v_i and v_i + delta."""
    value, step = to_amount(v_i), to_amount(delta)
    if step <= 0:
        raise ValueError("delta must be positive")
    if value < 0:
        raise ValueError(f"negative value {value}")
    return BidGrid(tuple(sorted({max(0, value - step), value, value + step})))


def check_abstract_budget(n_max: int, grid: BidGrid, sweep_budget: int = DEFAULT_SWEEP_BUDGET) -> None:
    """Refuse the sweeps of agent 0 over grid for n = 2..n_max before any of them runs.

    With k grid points the sweep over n bidders has k**n cells.  An abstract
    grid has at least 2 points, so every n from sweep_budget.bit_length()
    on is over budget, and the search for the first n over it stops there.
    """
    k = len(grid.points)
    for n in range(2, min(n_max, max(2, sweep_budget.bit_length())) + 1):
        if k**n > sweep_budget:
            raise ValueError(f"abstract sweep of {k**n} cells exceeds budget {sweep_budget}")
