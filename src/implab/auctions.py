"""Second-price auction semantics and exhaustive property checks.

All money amounts are exact: an int or a fractions.Fraction, never a float.
Dominance is a family of inequalities whose boundary cases (a deviation
tying the best competing bid) must not be blurred by floating point.

All three sweeps run on integers: they validate their amounts once per
sweep, multiply every grid point and valuation by D, the least common
multiple of their denominators, and map what they find back by dividing by
D.  Inside a sweep, payoffs and soundness checks take the scaled ints as
they are, and only a payment that is not an int goes through to_amount.
That is exact for any rule that meets the scaling contract stated on
AuctionRule, and each dominance counterexample or unsound bid vector is
re-run through the rule on the unscaled amounts to confirm it.

The dominance sweep runs each bid vector in grid^n through the rule once:
every vector is a deviation of every agent.  Each checked agent compares
its payoff from that outcome with its truthful payoff against the same
opponents' bids, which is computed once, on first use.  The vectors are
visited with the first checked agent's bid innermost, so that agent's
first hit ends the sweep; a hit of a later agent is kept only while no
hit earlier in the per-agent order is found.

Both rules check an all-int bid vector in the pass that ranks it:
run_spa's one sort also gives the least bid for the non-negativity check,
and run_first_price's min and max do the same.  Any other vector goes
through to_amounts, the one place that converts amounts and words their
errors.  A soundness sweep runs all its vectors through one loop,
_soundness, which check_soundness shares for its one vector.

Outcomes are shared and immutable: both rules build theirs through a
memo of at most OUTCOME_CACHE_SIZE outcomes keyed by (n, winner, price),
so equal keys give the same AuctionOutcome object, whose tuples and
amounts no caller can change.  A sweep meets few keys (a soundness sweep
over k grid points at most n * k), but the bound keeps a long-lived caller
sweeping many grids from holding every outcome it ever saw.  The memo is
typed, so an int price and an equal Fraction price stay apart and every
payment keeps the type its rule computed.  An unsound outcome is never
stored: its RuntimeError is raised on every call.

Tie-breaking: the lowest-index participant among the maximal bidders wins.
Weak dominance of truthful bidding and valuation-wise efficiency both hold
under this rule; it also makes the outcome a function of the bids, which
the soundness check verifies.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Protocol, Sequence

DEFAULT_SWEEP_BUDGET = 10_000_000
SOUNDNESS_RUNS = 3
# vickrey maxcheck compares the two maxima on lists of up to this many items
MAXCHECK_LENGTH = 7
# outcomes kept by _outcome's memo: a sweep over k grid points can produce
# n * k (n, winner, price) keys, so an unbounded memo would grow with every grid swept
OUTCOME_CACHE_SIZE = 4096
_LONGEST = 10**29 - 1  # the largest count a refusal writes out in full, 29 digits

Amount = int | Fraction

# the digit or point that ends a mantissa, then an exponent marker
_EXPONENT = re.compile(r"[0-9.][eE]")
_DIGIT_RUN = re.compile(r"[0-9]+")
_INT = frozenset({int})


def to_amount(value) -> Amount:
    """An exact amount: an int or Fraction as it is, anything else through Fraction.

    Strings with a non-ASCII character or a '_', or in exponent notation
    such as '1e5', are refused, and so is an amount whose numerator or
    denominator has more digits than the interpreter converts to a string.
    """
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass int, str, or Fraction for exactness")
    if isinstance(value, str):
        # Fraction also reads non-ASCII digits and '_' separators
        if not value.isascii() or "_" in value:
            raise ValueError(f"amount {value!r} is not written in ASCII digits without '_'")
        # Fraction("1e999999999") would build a billion-digit integer first
        if _EXPONENT.search(value):
            raise ValueError(f"amount {value!r} uses exponent notation; write a decimal or a fraction")
        # Fraction reads each run of digits with int(), whose refusal names no input
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and len(value) > limit:
            longest = max(map(len, _DIGIT_RUN.findall(value)), default=0)
            if longest > limit:
                raise ValueError(f"amount with a {longest}-digit number exceeds the {limit}-digit limit")
    try:
        amount = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"amount {value!r} has a zero denominator") from None
    # a decimal's digits may pass the limit only together
    return _writable(amount, "amount")


def _writable(amount: Amount, label: str) -> Amount:
    """amount, refused by its digit count when its numerator or denominator
    has more digits than str() writes.  A limit of 0 is none, and Python
    before 3.10.7 has none."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    widest, digits = max(abs(amount.numerator), amount.denominator), 0
    while limit and widest >= _ten_to(limit):
        widest //= _ten_to(limit)
        digits += limit
    if digits:
        digits += len(str(widest))
        raise ValueError(f"{label} with a {digits}-digit number exceeds the {limit}-digit limit")
    return amount


@functools.cache
def _ten_to(k: int) -> int:
    return 10**k


def to_amounts(values, label: str = "amount") -> tuple[Amount, ...]:
    out = tuple(map(to_amount, values))
    for i, v in enumerate(out):
        if v.numerator < 0:
            raise ValueError(f"negative {label} {v} at index {i}")
    return out


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    """Binary allocation vector and payment vector, stored as tuples so that
    no caller can change an outcome once it is built; not self-validating
    so that deliberately broken rules can be fed to the soundness checker."""

    x: tuple[int, ...]
    p: tuple[Amount, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "p", tuple(self.p))


class AuctionRule(Protocol):
    """Maps a bid vector to an outcome.

    Scaling contract: multiplying every bid by a positive integer c
    multiplies every payment by c and leaves the allocation as it is.  The
    sweeps rely on it to run on integers.  Both RULES entries meet it,
    because each price is a bid or 0.

    An outcome holds tuples, so it never changes after the rule returns
    it: the soundness checks read an outcome object once, however often
    the rule returns it.
    """

    def __call__(self, bids: Sequence[Amount]) -> AuctionOutcome: ...


def outcome_violations(out: AuctionOutcome, n: int) -> list[str]:
    """Soundness defects of a single outcome, empty when sound: vectors of
    n entries, an allocation of 0s and 1s with exactly one winner, no
    negative payment and no loser paying.  sweep_soundness calls it once
    per distinct outcome object, not once per bid vector."""
    if len(out.x) != n or len(out.p) != n:
        return [f"vectors sized ({len(out.x)},{len(out.p)}), expected {n}"]
    problems = []
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
    b = tuple(bids)
    # an all-int vector is checked here, the sort that ranks the bids finding the least
    if len(b) < 2 or not _INT.issuperset(map(type, b)) or (ranked := sorted(b))[0] < 0:
        b = to_amounts(b, "bid")
        if len(b) < 2:
            if not b:
                raise ValueError("auction needs at least one bid")
            return _outcome(1, 0, 0)
        ranked = sorted(b)
    # the best competing bid is the second largest: one copy of the max is the winner's
    return _outcome(len(b), b.index(ranked[-1]), ranked[-2])


def run_first_price(bids: Sequence) -> AuctionOutcome:
    """Mutant rule for falsification runs: the winner pays its own bid."""
    b = tuple(bids)
    # an all-int vector is checked here, its min giving the least bid
    if not b or not _INT.issuperset(map(type, b)) or min(b) < 0:
        b = to_amounts(b, "bid")
        if not b:
            raise ValueError("auction needs at least one bid")
    winner = b.index(max(b))
    return _outcome(len(b), winner, b[winner])


RULES: dict[str, AuctionRule] = {"second-price": run_spa, "first-price": run_first_price}


@functools.lru_cache(maxsize=OUTCOME_CACHE_SIZE, typed=True)
def _outcome(n: int, winner: int, price: Amount) -> AuctionOutcome:
    """The outcome in which winner pays price; RuntimeError if it is unsound."""
    x, p = [0] * n, [0] * n
    x[winner], p[winner] = 1, price
    out = AuctionOutcome(x, p)
    # one winner and zeros elsewhere: the price is all outcome_violations could flag
    if price < 0:
        raise RuntimeError(f"auction rule produced an unsound outcome: {outcome_violations(out, n)}")
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


def _exceeds(k: int, n: int, budget: int) -> bool:
    """Whether k**n > budget, for k >= 0 and n >= 1: k grid points over n bidders
    fit when k**n <= budget.  For k >= 2, k**n >= 2**(n * (k.bit_length() - 1)),
    which exceeds budget once that exponent reaches budget.bit_length(), so
    k**n is built only below that, with at most about twice budget's bits."""
    if k < 2:
        return k > budget
    return n * (k.bit_length() - 1) >= budget.bit_length() or k**n > budget


def _power(k: int, n: int, m: int = 1) -> str:
    """m * k**n written out up to 29 digits, else in closed form."""
    if not _exceeds(k, n, _LONGEST // m):
        return str(m * k**n)
    return f"{k}^{n}" if m == 1 else f"{m}*{k}^{n}"


def parse_grid(text: str, budget: int = DEFAULT_SWEEP_BUDGET, n: int = 1) -> BidGrid:
    """Grid syntax: explicit "0,1,2" or inclusive range "start:stop:step".

    A grid is sized before any point is built, a range from its bounds and
    a list by counting its commas, and its k points are refused when
    k**n > budget, n being the number of bidders that sweep it.  Each point
    a range computes is refused, as an amount is, when its numerator or
    denominator has more digits than str() writes.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range grid must be start:stop:step, got {text!r}")
        start, stop, step = map(to_amount, parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = max(0, (stop - start) // step + 1)
    else:
        count = text.count(",") + 1
    if _exceeds(count, n, budget):
        points = count if count <= _LONGEST else "at least 10^29"
        bidders = f" over {n} bidders" if n > 1 else ""
        raise ValueError(f"grid of {points} points{bidders} exceeds budget {budget}")
    if ":" in text:
        return BidGrid(tuple(_writable(start + i * step, "grid point") for i in range(count)))
    return BidGrid(tuple(text.split(",")))


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


def _sweep_range(task: tuple) -> tuple[tuple[int, int, int], DominanceCounterexample] | None:
    """The least-keyed profitable deviation among the bid vectors of grid^n
    whose outermost iterated coordinate has a grid index in range(lo, hi).

    task is (n, checks, points, rule, lo, hi), checks being the (index,
    valuation) pairs in agents order, one tuple so that a process pool can
    hand it to a worker.  A hit's key is (position in checks, position of the
    opponents' bids in product order, grid index of the deviation), so the
    least key is the first hit in the per-agent order.

    When checks[0]'s valuation is a grid point, its truthful vector is one
    of its deviations, and that outcome is reused rather than run again.  A
    later agent on the grid still pays k**(n-1) extra rule calls, for the
    truthful profiles that fill its payoff table.
    """
    n, checks, points, rule, lo, hi = task
    k = len(points)
    (a0, v0), later = checks[0], checks[1:]
    t0 = points.index(v0) if v0 in points else None
    # checks[0]'s coordinate is iterated innermost, so its first hit has the least key
    outer = [j for j in range(n) if j != a0]
    sweeps = []
    for p, (i, v_i) in enumerate(later, 1):
        # coordinate j's weight in the position of agent i's opponents' bids in product order
        weight = [0 if j == i else k ** (n - 2 - j + (j > i)) for j in range(n)]
        # truthful payoffs by that position, each computed on first use
        table = [None] * k ** (n - 1)
        sweeps.append((p, i, v_i, outer.index(i), [weight[j] for j in outer], weight[a0], table))
    best = None
    ranges = [range(lo, hi)] + [range(k)] * (n - 2)
    for o, digits in enumerate(itertools.product(*ranges), lo * k ** (n - 2)):
        # from a list: tuple() over a generator resizes its result, which
        # parks a spare tuple on the interpreter's free list at every step
        head = tuple([points[d] for d in digits])
        pre, post = head[:a0], head[a0:]
        truthful = pre + (v0,) + post
        t_out = rule(truthful)
        # payoff() inlined: amounts are scaled ints, a payment is converted unless it is one
        pay = t_out.p[a0]
        truth_pay = v0 * t_out.x[a0] - (pay if type(pay) is int else to_amount(pay))
        # an agent after the best hit's cannot beat its key; with no later agent nothing is built
        live = sweeps and [
            (p, i, v_i, digits[q], sum(map(mul, digits, ws)), wa, table)
            for p, i, v_i, q, ws, wa, table in sweeps
            if best is None or p <= best[0][0]
        ]
        for t, b in enumerate(points):
            bids = pre + (b,) + post
            out = t_out if t == t0 else rule(bids)
            pay = out.p[a0]
            dev_pay = v0 * out.x[a0] - (pay if type(pay) is int else to_amount(pay))
            if dev_pay > truth_pay:
                return (0, o, t), DominanceCounterexample(a0, truthful, bids, truth_pay, dev_pay)
            for p, i, v_i, dev, base, wa, table in live:
                o_i = base + t * wa
                truth_i = table[o_i]
                if truth_i is None:
                    i_out = rule(bids[:i] + (v_i,) + bids[i + 1 :])
                    pay = i_out.p[i]
                    truth_i = table[o_i] = v_i * i_out.x[i] - (pay if type(pay) is int else to_amount(pay))
                pay = out.p[i]
                dev_i = v_i * out.x[i] - (pay if type(pay) is int else to_amount(pay))
                if dev_i > truth_i and (best is None or (p, o_i, dev) < best[0]):
                    ce = DominanceCounterexample(i, bids[:i] + (v_i,) + bids[i + 1 :], bids, truth_i, dev_i)
                    best = (p, o_i, dev), ce
    return best


def _scaled(*groups: tuple[Amount, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """D, the lcm of the denominators of validated amounts, and each group
    of amounts times D, as ints."""
    d = math.lcm(*(a.denominator for g in groups for a in g))
    return d, [tuple(a.numerator * (d // a.denominator) for a in g) for g in groups]


def _unscaled(ce: DominanceCounterexample, d: int, rule: AuctionRule) -> DominanceCounterexample:
    """ce found on amounts multiplied by d, divided back by d.

    Both bid vectors are re-run through rule on the unscaled amounts; a
    payoff that does not reproduce means rule breaks the scaling contract.
    A payoff may have more digits than any amount it is made of.
    """
    i = ce.agent
    back = DominanceCounterexample(
        agent=i,
        truthful_bids=tuple(Fraction(b, d) for b in ce.truthful_bids),
        deviation_bids=tuple(Fraction(b, d) for b in ce.deviation_bids),
        truthful_payoff=_writable(Fraction(ce.truthful_payoff, d), "payoff"),
        deviation_payoff=_writable(Fraction(ce.deviation_payoff, d), "payoff"),
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
    Each bid vector in grid^n goes through the rule once and is compared,
    for every checked agent, against that agent's truthful payoff on the
    same opponents' bids.  The counterexample reported is the first in
    agents order, then in the per-agent order of opponents' bids (product
    order) and deviations (ascending).  jobs splits the outermost iterated
    coordinate's grid points into contiguous ranges, one per worker, with
    no more workers than CPUs or grid points; the result does not depend on it.
    """
    indices = tuple(i for i, _ in agents)
    v = to_amounts((v_i for _, v_i in agents), "valuation")
    if n < 2:
        raise ValueError(f"dominance check needs more than one participant, got {n}")
    if not indices:
        raise ValueError("no agents to check")
    if len(set(indices)) != len(indices) or not all(0 <= i < n for i in indices):
        raise ValueError(f"agent indices {list(indices)} must be distinct and in 0..{n - 1}")
    # each checked agent's payoffs are taken on n-bid vectors, so on a
    # one-point grid the work grows with n * len(agents), not with the cells
    if n * len(indices) > sweep_budget:
        raise ValueError(f"dominance sweep over {n} bidders exceeds budget {sweep_budget}")
    k = len(grid.points)
    # each agent sweeps k**(n-1) opponents' bids times its deviations: the grid, plus an
    # off-grid valuation (the truthful vector, counted but not re-run); k**n cells at least
    on_grid = set(grid.points)
    deviations = sum(k + (v_i not in on_grid) for v_i in v)
    if _exceeds(k, n, sweep_budget) or (cells := k ** (n - 1) * deviations) > sweep_budget:
        cells_text = _power(k, n - 1, deviations)
        raise ValueError(f"dominance sweep of {cells_text} cells exceeds budget {sweep_budget}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    d, (points, values) = _scaled(grid.points, v)
    w = min(jobs, os.cpu_count() or 1, k)
    checks = tuple(zip(indices, values))
    tasks = [(n, checks, points, rule, k * r // w, k * (r + 1) // w) for r in range(w)]
    if w == 1:
        hits = [_sweep_range(tasks[0])]
    else:
        # imported here so that importing the package does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=w) as pool:
            hits = list(pool.map(_sweep_range, tasks))
    hits = [h for h in hits if h is not None]
    if hits:
        return DominanceResult(False, cells, _unscaled(min(hits, key=lambda h: h[0])[1], d, rule))
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
    winner = rule(v).x.index(1)
    return EfficiencyResult(v[winner] == max(v), winner, v[winner], max(v))


@dataclass(frozen=True)
class SoundnessReport:
    bids: tuple[Amount, ...]
    violations: tuple[str, ...]
    outcome: AuctionOutcome

    @property
    def sound(self) -> bool:
        return not self.violations


def _soundness(
    vectors: Iterable[tuple[Amount, ...]], rule: AuctionRule
) -> Iterator[tuple[tuple[Amount, ...], AuctionOutcome, list[str]]]:
    """For each validated bid vector b of vectors: b, the first outcome of
    rule on b, and that outcome's soundness defects, a nondeterministic
    outcome over SOUNDNESS_RUNS runs among them.  This is the one loop of
    check_soundness and sweep_soundness; a sweep hands it every vector, so
    it makes no call per vector.

    checked maps id(outcome) to the outcome and its outcome_violations, so
    an outcome object that the rule returns for several bid vectors of one
    length is checked once.  It holds the outcomes, so no id in it is
    reused, and is emptied when it reaches OUTCOME_CACHE_SIZE entries.
    """
    checked: dict[int, tuple[AuctionOutcome, list[str]]] = {}
    reruns = range(SOUNDNESS_RUNS - 1)
    for b in vectors:
        first = rule(b)
        hit = checked.get(id(first))
        if hit is None:
            if len(checked) >= OUTCOME_CACHE_SIZE:
                checked.clear()
            hit = checked[id(first)] = (first, outcome_violations(first, len(b)))
        problems = hit[1]
        for _ in reruns:
            again = rule(b)
            # a memoized outcome comes back as the same object, which needs no comparison
            if again is not first and again != first:
                problems = [*problems, f"nondeterministic outcome: {again} != {first}"]
                break
        yield b, first, problems


def check_soundness(bids: Sequence, rule: AuctionRule = run_spa) -> SoundnessReport:
    """Outcome invariants plus determinism across SOUNDNESS_RUNS evaluations."""
    b = to_amounts(bids, "bid")
    ((_, first, problems),) = _soundness((b,), rule)
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
    denominators.  The grid's points were validated when it was built, so
    a sound bid vector goes through the rule SOUNDNESS_RUNS times without
    being converted again, and no report is built for it; each distinct
    outcome object is checked by outcome_violations once.  A vector
    flagged unsound is re-run through check_soundness on the
    original bids, and that report is the one kept.  RuntimeError if the
    re-run is sound: the rule breaks the scaling contract.
    """
    # a one-point grid has 1**n = 1 bid vector, but that vector holds n bids
    if n > sweep_budget:
        raise ValueError(f"soundness sweep over {n} bidders exceeds budget {sweep_budget}")
    k = len(grid.points)
    if _exceeds(k, n, sweep_budget):
        raise ValueError(f"soundness sweep of {_power(k, n)} bid vectors exceeds budget {sweep_budget}")
    d, (points,) = _scaled(grid.points)
    # scaling is injective, so each scaled point maps back to its grid point as given
    unscaled = dict(zip(points, grid.points))
    unsound = []
    for bids, _, problems in _soundness(itertools.product(points, repeat=n), rule):
        if not problems:
            continue
        original = tuple(unscaled[b] for b in bids)
        back = check_soundness(original, rule)
        if back.sound:
            raise RuntimeError(
                f"auction rule breaks the scaling contract: bids ({', '.join(map(str, original))}) "
                f"are sound, but on the bids times {d}: {'; '.join(problems)}"
            )
        unsound.append(back)
    return SoundnessSweep(k**n, tuple(unsound))


def _max_items(xs: Sequence) -> list[Amount]:
    """xs as exact amounts of any sign; an all-int list passes through as it is."""
    items = list(xs)
    if not _INT.issuperset(map(type, items)):
        items = list(map(to_amount, items))
    if not items:
        raise ValueError("maximum of an empty list is undefined")
    return items


def max_classical(xs: Sequence) -> Amount:
    """Pick the witness element certified >= every element by direct scan."""
    items = _max_items(xs)
    # a finite list has a maximal element
    return next(c for c in items if all(c >= other for other in items))


def max_constructive(xs: Sequence) -> Amount:
    """Fold from the tail: a singleton is its own maximum, otherwise compare
    the head against the maximum of the rest."""
    items = _max_items(xs)
    best = items[-1]
    for head in reversed(items[:-1]):
        best = head if head >= best else best
    return best


def order_types(k_max: int) -> Iterator[tuple[int, ...]]:
    """One list per weak order of k <= k_max items (1, 3, 13, 75, ... per
    length), shortest first: its ranks, each item replaced by its position
    among the distinct values.  Each list of k - 1 ranks over r values has
    2r + 1 extensions: a last item tied with one of the r values, or a new
    value below, between or above them."""
    layer: list[tuple[int, ...]] = [()]
    for _ in range(k_max):
        longer = []
        for ranks in layer:
            r = max(ranks, default=-1) + 1
            longer += [ranks + (v,) for v in range(r)]
            longer += [tuple(x + (x >= j) for x in ranks) + (j,) for j in range(r + 1)]
        layer = longer
        yield from layer


def abstract_grid(v_i, delta) -> BidGrid:
    """The three representatives of the bid space around a valuation:
    v_i - delta (floored at 0), v_i and v_i + delta, the two computed ones
    refused by their digit count as an amount is."""
    value, step = to_amount(v_i), to_amount(delta)
    if step <= 0:
        raise ValueError("delta must be positive")
    if value < 0:
        raise ValueError(f"negative value {value}")
    points = (_writable(max(0, value - step), "grid point"), value, _writable(value + step, "grid point"))
    return BidGrid(tuple(sorted(set(points))))
