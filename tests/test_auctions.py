import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from implab import auctions
from implab.auctions import (
    RULES,
    AuctionOutcome,
    BidGrid,
    DominanceCounterexample,
    DominanceResult,
    abstract_grid,
    check_dominance,
    check_efficiency,
    check_soundness,
    check_weak_dominance,
    max_classical,
    max_constructive,
    outcome_violations,
    parse_grid,
    payoff,
    run_first_price,
    run_spa,
    sweep_soundness,
    to_amount,
    to_amounts,
)

GRID0_4 = parse_grid("0:4:1")
GRID0_2 = parse_grid("0:2:1")


class Counting:
    """run_spa, recording the bids of every call in calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, bids):
        self.calls.append(bids)
        return run_spa(bids)


def test_run_spa_examples():
    assert run_spa([3, 1]) == AuctionOutcome((1, 0), (Fraction(1), Fraction(0)))
    assert run_spa([2, 2]) == AuctionOutcome((1, 0), (Fraction(2), Fraction(0)))
    assert run_spa([0, 0, 5]) == AuctionOutcome((0, 0, 1), (Fraction(0), Fraction(0), Fraction(0)))


def test_run_spa_single_bidder_pays_zero():
    assert run_spa([5]) == AuctionOutcome((1,), (Fraction(0),))


def test_run_spa_rejects_negative_bids():
    with pytest.raises(ValueError, match="negative bid"):
        run_spa([1, -2])


def test_an_amount_whose_numerator_or_denominator_passes_the_int_limit_is_refused():
    # each run of digits is within the limit, but str() would refuse the Fraction's parts
    message = r"^amount with a {}-digit number exceeds the 4300-digit limit$"
    with pytest.raises(ValueError, match=message.format(4301)):
        to_amount("1." + "1" * 4300)
    with pytest.raises(ValueError, match=message.format(4301)):
        to_amount("0." + "0" * 4299 + "1")  # 1/10^4300
    with pytest.raises(ValueError, match=message.format(8600)):
        to_amount("9" * 4300 + "." + "9" * 4300)
    assert to_amount("1." + "1" * 4299) == Fraction(int("1" * 4300), 10**4299)


def test_amounts_reject_floats():
    with pytest.raises(TypeError, match="float"):
        run_spa([1.5, 2])


def test_exact_amounts_pass_through_and_zero_denominators_are_refused():
    half = Fraction(1, 2)
    assert to_amount(half) is half
    assert to_amount(7) == 7 and type(to_amount(7)) is int
    assert to_amount("6/4") == Fraction(3, 2)
    assert to_amount(True) == 1 and type(to_amount(True)) is Fraction
    with pytest.raises(ValueError, match="amount '1/0' has a zero denominator"):
        to_amount("1/0")
    with pytest.raises(ValueError, match="negative grid point -1/2 at index 1"):
        to_amounts([0, Fraction(-1, 2)], "grid point")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_grid("0:1/0:1")


@pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-1", ".5e3", "1.e2", "-1e5", " 1e5 "])
def test_exponent_notation_is_refused(text):
    with pytest.raises(ValueError, match="exponent notation"):
        to_amount(text)


def test_decimals_and_fractions_are_accepted():
    assert to_amount("2.5") == Fraction(5, 2)
    assert to_amount("1/2") == Fraction(1, 2)
    assert to_amount("10") == 10


def test_payoff_examples():
    assert payoff(3, 1, 1) == 2
    assert payoff(3, 0, 0) == 0
    assert payoff(1, 1, 2) == -1


def test_parse_grid():
    assert GRID0_4.points == tuple(Fraction(i) for i in range(5))
    assert parse_grid("0,1/2,3").points == (Fraction(0), Fraction(1, 2), Fraction(3))
    assert parse_grid("0:2:1/2").points == tuple(Fraction(i, 2) for i in range(5))
    with pytest.raises(ValueError):
        parse_grid("3,2,1")
    with pytest.raises(ValueError):
        parse_grid("0:4:0")
    with pytest.raises(ValueError, match="negative"):
        parse_grid("-1,0")
    with pytest.raises(ValueError, match="range grid must be start:stop:step"):
        parse_grid("0:1")


def test_dominance_holds_on_grid_for_second_price():
    for values in ([3, 1, 2], [0, 0, 0], [4, 4, 4], [1, 3, 2]):
        res = check_weak_dominance(values, GRID0_4)
        assert res.holds, values


def test_dominance_holds_with_off_grid_valuations():
    # v_i joins the deviation domain even when it is not a grid point
    res = check_weak_dominance([Fraction(5, 2), 1], GRID0_2)
    assert res.holds


def test_dominance_zero_values_all_payoffs_zero():
    res = check_weak_dominance([0, 0], GRID0_2)
    assert res.holds


def test_dominance_rejects_single_participant():
    with pytest.raises(ValueError, match="more than one participant"):
        check_weak_dominance([3], GRID0_2)


def test_dominance_budget_guard():
    with pytest.raises(ValueError, match="exceeds budget"):
        check_weak_dominance([1, 1, 1], GRID0_4, sweep_budget=10)


def test_first_price_counterexample_matches_bruteforce_oracle():
    values = to_amounts([2, 2])
    res = check_weak_dominance(values, GRID0_2, rule=run_first_price)
    assert not res.holds
    ce = res.counterexample
    # oracle: scan the full 2 x 3 x 4 cell space in canonical order
    found = []
    for i in range(2):
        dev_domain = tuple(sorted(set(GRID0_2.points) | {values[i]}))
        for oi, others in enumerate(itertools.product(GRID0_2.points, repeat=1)):
            truthful = others[:i] + (values[i],) + others[i:]
            t_out = run_first_price(truthful)
            t_pay = payoff(values[i], t_out.x[i], t_out.p[i])
            for di, dev in enumerate(dev_domain):
                bids = others[:i] + (dev,) + others[i:]
                d_out = run_first_price(bids)
                d_pay = payoff(values[i], d_out.x[i], d_out.p[i])
                if d_pay > t_pay:
                    found.append((i, oi, di, truthful, bids, t_pay, d_pay))
    assert found
    first = min(found)
    assert (ce.agent, ce.truthful_bids, ce.deviation_bids) == (first[0], first[3], first[4])
    assert (ce.truthful_payoff, ce.deviation_payoff) == (first[5], first[6])
    # frozen: shading to 0 wins the tie-break at price 0 instead of paying 2
    assert ce.agent == 0
    assert ce.truthful_bids == (Fraction(2), Fraction(0))
    assert ce.deviation_bids == (Fraction(0), Fraction(0))
    assert (ce.truthful_payoff, ce.deviation_payoff) == (Fraction(0), Fraction(2))


def test_proof_case_structure_on_sweep():
    # same-outcome cases of the four-way case split: win/win pays the same
    # price, lose/lose pays nothing
    values = to_amounts([3, 1, 2])
    for i in range(3):
        for others in itertools.product(GRID0_4.points, repeat=2):
            truthful = others[:i] + (values[i],) + others[i:]
            t_out = run_spa(truthful)
            for dev in GRID0_4.points:
                bids = others[:i] + (dev,) + others[i:]
                d_out = run_spa(bids)
                if t_out.x[i] == 1 and d_out.x[i] == 1:
                    assert t_out.p[i] == d_out.p[i]
                if t_out.x[i] == 0 and d_out.x[i] == 0:
                    assert payoff(values[i], t_out.x[i], t_out.p[i]) == 0
                    assert payoff(values[i], d_out.x[i], d_out.p[i]) == 0


def test_truthful_payoff_never_negative():
    for values in itertools.product(GRID0_2.points, repeat=3):
        out = run_spa(values)
        for i in range(3):
            assert payoff(values[i], out.x[i], out.p[i]) >= 0


def test_dominance_boundary_uses_exact_arithmetic():
    # deviation exactly equal to the best competing bid must tie, not win
    grid = parse_grid("0:1:1/3")
    res = check_weak_dominance([Fraction(2, 3), Fraction(1, 3)], grid)
    assert res.holds


def test_efficiency_examples():
    assert check_efficiency([3, 1]).holds
    r = check_efficiency([2, 2])
    assert r.holds and r.winner == 0 and r.winner_valuation == 2
    r = check_efficiency([1, 4, 4])
    assert r.holds and r.winner == 1 and r.winner_valuation == 4


def test_soundness_sweep_27_inputs():
    sweep = sweep_soundness(3, GRID0_2)
    assert sweep.cells == 27
    assert sweep.unsound == ()


def test_soundness_sweep_refuses_more_bid_vectors_than_its_budget():
    # the CLI's grid-point limit binds before this one, so only a direct call reaches it
    grid = parse_grid("0:9:1")
    with pytest.raises(ValueError) as info:
        sweep_soundness(3, grid, sweep_budget=999)
    assert str(info.value) == "soundness sweep of 1000 bid vectors exceeds budget 999"
    assert sweep_soundness(3, grid, sweep_budget=1000).cells == 1000


def test_soundness_single_bidder():
    rep = check_soundness([5])
    assert rep.sound
    assert rep.outcome == AuctionOutcome((1,), (Fraction(0),))


def test_faulty_loser_pays_rule_is_flagged():
    def faulty(bids):
        out = run_spa(bids)
        return AuctionOutcome(out.x, tuple(p if x else Fraction(1) for x, p in zip(out.x, out.p)))

    rep = check_soundness([1, 2, 3], rule=faulty)
    assert not rep.sound
    assert any("pays 1 instead of 0" in v for v in rep.violations)


def test_nondeterministic_rule_is_flagged():
    state = {"calls": 0}

    def flaky(bids):
        state["calls"] += 1
        return run_spa(bids) if state["calls"] % 2 else run_first_price(bids)

    rep = check_soundness([1, 2], rule=flaky)
    assert any("nondeterministic" in v for v in rep.violations)


def test_outcome_violations_catalogue():
    assert outcome_violations(AuctionOutcome((1, 0), (Fraction(1), Fraction(0))), 2) == []
    assert "exactly one winner" in outcome_violations(AuctionOutcome((1, 1), (Fraction(0), Fraction(0))), 2)[0]
    assert any(
        "negative payment" in v
        for v in outcome_violations(AuctionOutcome((1, 0), (Fraction(-1), Fraction(0))), 2)
    )


@pytest.mark.parametrize("price", [-1, Fraction(-1, 3)])
def test_outcome_with_a_negative_price_is_refused_with_the_catalogue_message(price):
    # twice in a row: the memo stores no exception, so it never answers for a refused price
    for _ in range(2):
        with pytest.raises(RuntimeError) as err:
            auctions._outcome(3, 1, price)
        want = f"auction rule produced an unsound outcome: ['negative payment {price} for participant 1']"
        assert str(err.value) == want
    assert auctions._outcome(3, 1, 0) == AuctionOutcome((0, 1, 0), (0, 0, 0))
    assert auctions._outcome(1, 0, -price) == AuctionOutcome((1,), (-price,))


def amount_types(amounts):
    return [type(a) for a in amounts]


def test_memoized_outcomes_equal_fresh_ones_type_for_type():
    auctions._outcome.cache_clear()
    for n in range(1, 5):
        for winner in range(n):
            # 2 before Fraction(2): the two are equal and hash alike, only their types tell them apart
            for price in (0, 2, Fraction(2), Fraction(5, 2), Fraction(0)):
                fresh = AuctionOutcome(
                    tuple(int(j == winner) for j in range(n)), tuple(price if j == winner else 0 for j in range(n))
                )
                got = auctions._outcome(n, winner, price)
                assert got == fresh and amount_types(got.x + got.p) == amount_types(fresh.x + fresh.p)
                assert auctions._outcome(n, winner, price) is got


@pytest.mark.parametrize("int_first", [True, False])
def test_run_spa_keeps_each_payments_type_in_either_call_order(int_first):
    auctions._outcome.cache_clear()
    calls = [((2, 1), [int, int]), ((Fraction(2), Fraction(1)), [Fraction, int])]
    for bids, want in calls if int_first else calls[::-1]:
        out = run_spa(bids)
        assert out == AuctionOutcome((1, 0), (1, 0)) and amount_types(out.p) == want


def test_soundness_sweep_is_unchanged_when_its_outcome_checks_are_dropped(monkeypatch):
    grid = parse_grid("0:3:1")
    full = sweep_soundness(3, grid)
    # one checked outcome at a time: the check memo is emptied before each new outcome
    monkeypatch.setattr(auctions, "OUTCOME_CACHE_SIZE", 1)
    assert sweep_soundness(3, grid) == full


def test_outcome_memo_stays_within_its_bound():
    auctions._outcome.cache_clear()
    bound = auctions.OUTCOME_CACHE_SIZE
    for price in range(bound + 100):
        assert auctions._outcome(2, 1, price) == AuctionOutcome((0, 1), (0, price))
    assert auctions._outcome.cache_info().currsize == bound
    auctions._outcome.cache_clear()


def reference_to_amounts(values, label: str = "amount"):
    """to_amounts with the int fast path that builds a set of the types."""
    out = tuple(values)
    if set(map(type, out)) == {int} and min(out) >= 0:
        return out
    out = tuple(map(to_amount, out))
    for i, v in enumerate(out):
        if v.numerator < 0:
            raise ValueError(f"negative {label} {v} at index {i}")
    return out


def answer(f, *args):
    """f's value with the type of each item, or its exception's type and message."""
    try:
        out = f(*args)
    except Exception as e:
        return type(e), str(e)
    return out, amount_types(out) if isinstance(out, (tuple, list)) else type(out)


@pytest.mark.parametrize(
    "values",
    [(), (0,), (True, 2), (2, -1), (1, Fraction(1, 2)), ("1/2", 3), (3.0,), ("1e5",), ([],)],
    ids=repr,
)
def test_to_amounts_keeps_its_answers_and_messages(values):
    assert answer(to_amounts, values, "bid") == answer(reference_to_amounts, values, "bid")


def fresh_outcome(n, winner, price):
    """The outcome in which winner pays price, built without the rules' memo."""
    x = tuple(int(j == winner) for j in range(n))
    return AuctionOutcome(x, tuple(price if j == winner else 0 for j in range(n)))


def reference_run_spa(bids):
    """run_spa converting its bids through to_amounts before it ranks them."""
    b = to_amounts(bids, "bid")
    if len(b) < 2:
        if not b:
            raise ValueError("auction needs at least one bid")
        return fresh_outcome(1, 0, 0)
    ranked = sorted(b)
    return fresh_outcome(len(b), b.index(ranked[-1]), ranked[-2])


def reference_run_first_price(bids):
    """run_first_price converting its bids through to_amounts before it takes their maximum."""
    b = to_amounts(bids, "bid")
    if not b:
        raise ValueError("auction needs at least one bid")
    winner = b.index(max(b))
    return fresh_outcome(len(b), winner, b[winner])


def rule_answer(rule, bids):
    """rule's outcome with the type of each entry, or its exception's type and message."""
    try:
        out = rule(bids)
    except Exception as e:
        return type(e), str(e)
    return out, amount_types(out.x + out.p)


@pytest.mark.parametrize(
    "rule, reference", [(run_spa, reference_run_spa), (run_first_price, reference_run_first_price)], ids=["spa", "fp"]
)
@pytest.mark.parametrize(
    "bids",
    [
        [],
        [5],
        [3, 3],
        [2, 5, 5, 1],
        [0, 0, 0],
        [0, 4],
        [3, -1],
        [-2],
        [True, 2],
        [2, True],
        [Fraction(1, 2), Fraction(5, 2)],
        [2, Fraction(2)],
        [Fraction(5, 2), 3, 1],
        ["1/2", "3"],
        ["2.5", 2],
        [1.5, 2],
        ["\u0663", 1],
    ],
    ids=repr,
)
def test_rules_keep_their_answers_and_messages(rule, reference, bids):
    assert rule_answer(rule, bids) == rule_answer(reference, bids)


def test_max_examples():
    assert max_classical([7]) == max_constructive([7]) == 7
    assert max_classical([1, 3, 2]) == max_constructive([1, 3, 2]) == 3


def test_max_rejects_empty():
    with pytest.raises(ValueError):
        max_classical([])
    with pytest.raises(ValueError):
        max_constructive([])


def test_maxima_take_ints_as_they_are_and_convert_anything_else():
    def converted_items(xs):
        items = [to_amount(x) for x in xs]
        if not items:
            raise ValueError("maximum of an empty list is undefined")
        return items

    def reference_classical(xs):
        items = converted_items(xs)
        return next(c for c in items if all(c >= o for o in items))

    def reference_constructive(xs):
        items = converted_items(xs)
        best = items[-1]
        for head in reversed(items[:-1]):
            best = head if head >= best else best
        return best

    for xs in ([], [-3, -1, -2], (0, 2, 2), [True, 0], [2, Fraction(5, 2)], ["1/2", 0], [1, 3.0], ["1e5"], [[]]):
        assert answer(max_classical, xs) == answer(reference_classical, xs), xs
        assert answer(max_constructive, xs) == answer(reference_constructive, xs), xs


def test_max_equivalence_on_1000_random_lists():
    rng = random.Random(424242)
    for _ in range(1000):
        xs = [Fraction(rng.randint(-999, 999), rng.randint(1, 9)) for _ in range(rng.randint(1, 50))]
        classical = max_classical(xs)
        constructive = max_constructive(xs)
        assert classical == constructive
        assert classical in xs
        assert all(classical >= x for x in xs)


def _ranks(xs):
    """Each item replaced by its position among the distinct values."""
    distinct = sorted(set(xs))
    return [distinct.index(x) for x in xs]


def test_each_maximum_acts_on_a_list_as_on_its_ranks():
    # the premise of vickrey maxcheck: its order types stand for every list
    rng = random.Random(424242)
    for _ in range(1000):
        xs = [Fraction(rng.randint(-999, 999), rng.randint(1, 9)) for _ in range(rng.randint(1, 50))]
        distinct = sorted(set(xs))
        for maximum in (max_classical, max_constructive):
            assert distinct.index(maximum(xs)) == maximum(_ranks(xs)), (maximum.__name__, xs)


def test_order_types_are_the_ranks_of_every_short_list():
    types = list(auctions.order_types(7))
    assert [sum(len(t) == k for t in types) for k in range(1, 8)] == [1, 3, 13, 75, 541, 4683, 47293]
    assert [len(t) for t in types] == sorted(len(t) for t in types)
    assert len(set(types)) == len(types)
    for k in range(1, 6):
        every = {tuple(_ranks(xs)) for xs in itertools.product(range(k), repeat=k)}
        assert {t for t in types if len(t) == k} == every


def test_abstract_dominance_holds_for_n2_to_6():
    grid = abstract_grid(10, 1)
    for n in range(2, 7):
        res = check_dominance(n, ((0, 10),), grid)
        assert res.holds and grid.points == (Fraction(9), Fraction(10), Fraction(11))


def test_abstract_dominance_clamps_at_zero():
    grid = abstract_grid(0, 1)
    res = check_dominance(2, ((0, 0),), grid)
    assert grid.points == (Fraction(0), Fraction(1))
    assert res.holds


def test_abstract_dominance_first_price_fails_with_witness():
    res = check_dominance(3, ((0, 10),), abstract_grid(10, 1), rule=run_first_price)
    assert not res.holds
    ce = res.counterexample
    assert ce.deviation_payoff > ce.truthful_payoff
    assert ce.agent == 0


def test_abstract_dominance_validation():
    with pytest.raises(ValueError):
        check_dominance(1, ((0, 10),), abstract_grid(10, 1))
    with pytest.raises(ValueError):
        abstract_grid(10, 0)


def test_check_dominance_refuses_bad_agents():
    with pytest.raises(ValueError, match="more than one participant, got 1"):
        check_dominance(1, ((0, 1),), GRID0_2)
    with pytest.raises(ValueError, match=r"\[1, 0, 1\] must be distinct and in 0\.\.2"):
        check_dominance(3, ((1, 1), (0, 2), (1, 2)), GRID0_2)
    for index in (2, 5, -1):
        with pytest.raises(ValueError, match=r"must be distinct and in 0\.\.1"):
            check_dominance(2, ((0, 1), (index, 1)), GRID0_2)
    with pytest.raises(ValueError, match="negative valuation -1"):
        check_dominance(2, ((0, -1),), GRID0_2)
    with pytest.raises(ValueError, match="no agents to check"):
        check_dominance(2, (), GRID0_2)


def test_agent_0_alone_finds_the_full_sweeps_counterexample():
    grid = abstract_grid(10, 1)
    for n in range(2, 6):
        one = check_dominance(n, ((0, 10),), grid, run_first_price)
        full = check_weak_dominance((10,) * n, grid, run_first_price)
        # agent 0 comes first in both sweeps, so both stop at its first hit
        assert one.counterexample == full.counterexample
        assert one.counterexample.agent == 0
        assert one.cells == len(grid.points) ** n


def test_parallel_dominance_matches_sequential():
    seq = check_weak_dominance([3, 1, 2], GRID0_4)
    par = check_weak_dominance([3, 1, 2], GRID0_4, jobs=2)
    assert seq == par
    seq_ce = check_weak_dominance([2, 2], GRID0_2, rule=run_first_price)
    par_ce = check_weak_dominance([2, 2], GRID0_2, rule=run_first_price, jobs=2)
    assert seq_ce == par_ce
    # off-grid fractional valuations: the workers get amounts scaled to ints
    grid = parse_grid("0,1/7,2/3,5/4")
    values = [Fraction(1, 6), Fraction(3, 5), Fraction(7, 4)]
    for rule in (run_spa, run_first_price):
        seq = check_weak_dominance(values, grid, rule=rule)
        assert seq == check_weak_dominance(values, grid, rule=rule, jobs=2)
    assert seq.counterexample.truthful_bids == (Fraction(1, 6), 0, 0)
    assert seq.counterexample.deviation_payoff == Fraction(1, 6)


def per_agent_dominance(n, agents, grid, rule):
    """Reference for check_dominance: each agent in agents order sweeps its
    opponents' bids in product order and, for each, its deviations in
    ascending order, on the unscaled amounts, and the first profitable
    deviation is the counterexample."""
    points = grid.points
    domains = [tuple(sorted(set(points) | {to_amount(v_i)})) for _, v_i in agents]
    cells = sum(len(points) ** (n - 1) * len(dev) for dev in domains)
    for (i, v_i), deviations in zip(agents, domains):
        v_i = to_amount(v_i)
        for others in itertools.product(points, repeat=n - 1):
            truthful = others[:i] + (v_i,) + others[i:]
            out = rule(truthful)
            truth_pay = payoff(v_i, out.x[i], out.p[i])
            for dev in deviations:
                dev_bids = others[:i] + (dev,) + others[i:]
                dev_out = rule(dev_bids)
                dev_pay = payoff(v_i, dev_out.x[i], dev_out.p[i])
                if dev_pay > truth_pay:
                    ce = DominanceCounterexample(i, truthful, dev_bids, truth_pay, dev_pay)
                    return DominanceResult(False, cells, ce)
    return DominanceResult(True, cells)


@dataclass(frozen=True)
class FirstPriceExcept:
    """Mutant rule: second price when agent exempt wins, first price when
    another agent does, so only the agents other than exempt can gain."""

    exempt: int

    def __call__(self, bids):
        out = run_spa(bids)
        return out if out.x[self.exempt] else run_first_price(bids)


def test_dominance_sweep_matches_the_per_agent_reference():
    rng = random.Random(2016)
    seen = set()
    for _ in range(120):
        n = rng.randint(2, 4)
        den = rng.randint(1, 3)
        candidates = [Fraction(a, den) for a in range(3 * den + 1)]
        grid = BidGrid(tuple(sorted(rng.sample(candidates, rng.randint(1, 4)))))
        subset = rng.sample(range(n), rng.randint(1, n))
        # on-grid and off-grid valuations; an off-grid one joins the deviations
        agents = tuple(
            (i, rng.choice(grid.points) if rng.random() < 0.5 else Fraction(rng.randint(0, 12), rng.randint(1, 4)))
            for i in subset
        )
        rule = rng.choice((run_spa, run_first_price, FirstPriceExcept(subset[0])))
        expected = per_agent_dominance(n, agents, grid, rule)
        assert check_dominance(n, agents, grid, rule) == expected, (n, agents, grid, rule)
        assert check_dominance(n, agents, grid, rule, jobs=2) == expected, (n, agents, grid, rule)
        if not expected.holds:
            seen.add("first agent" if expected.counterexample.agent == subset[0] else "later agent")
        else:
            seen.add("holds")
    assert seen == {"holds", "first agent", "later agent"}


def test_max_constructive_folds_long_lists_without_recursion():
    assert max_constructive(list(range(5000))) == 4999
    assert max_constructive(list(range(5000, 0, -1))) == 5000


def test_parse_grid_range_points_are_exact():
    # oracle: step from start by repeated exact addition
    for text in ("0:4:1", "1/3:3:2/3", "0:1:1/10", "1/2:7:3/4", "5:5:1"):
        start, stop, step = (Fraction(p) for p in text.split(":"))
        expected, v = [], start
        while v <= stop:
            expected.append(v)
            v += step
        assert parse_grid(text).points == tuple(expected)
    assert parse_grid("1/3:3:2/3").points == tuple(Fraction(k, 3) for k in (1, 3, 5, 7, 9))
    with pytest.raises(ValueError, match="non-empty"):
        parse_grid("2:1:1")


def test_parse_grid_sizes_a_range_before_building_it():
    with pytest.raises(ValueError, match="grid of 100000001 points exceeds budget 10000000"):
        parse_grid("0:100000000:1")
    with pytest.raises(ValueError, match="grid of 5 points exceeds budget 4"):
        parse_grid("0:4:1", budget=4)
    assert len(parse_grid("0:4:1", budget=5).points) == 5


def test_parse_grid_sizes_a_list_before_converting_it(monkeypatch):
    calls = []
    monkeypatch.setattr(auctions, "to_amount", lambda v: calls.append(v) or to_amount(v))
    with pytest.raises(ValueError, match="grid of 5 points exceeds budget 4"):
        parse_grid("0,1,2,3,4", budget=4)
    assert calls == []
    assert parse_grid("0,1,2,3,4", budget=5).points == tuple(range(5))
    assert calls  # the counter sees the conversions of a grid within budget


def test_parse_grid_converts_each_list_entry_once(monkeypatch):
    calls = []
    monkeypatch.setattr(auctions, "to_amount", lambda v: calls.append(v) or to_amount(v))
    assert parse_grid("0,1,2,3,4").points == tuple(range(5))
    assert calls == ["0", "1", "2", "3", "4"]


def test_bidgrid_validation():
    with pytest.raises(ValueError):
        BidGrid(())
    with pytest.raises(ValueError):
        BidGrid((Fraction(1), Fraction(1)))


def test_budget_rule_is_k_to_the_n_over_budget():
    for k, n, budget in itertools.product(range(7), range(1, 41), (0, 1, 2, 99, 100, 101, 2**20, 10**7)):
        assert auctions._exceeds(k, n, budget) == (k**n > budget), (k, n, budget)
    rng = random.Random(34)
    for _ in range(500):
        k, n, budget = rng.randrange(10**6), rng.randrange(1, 60), rng.randrange(10**40)
        assert auctions._exceeds(k, n, budget) == (k**n > budget), (k, n, budget)


def test_budget_rule_answers_a_huge_exponent_without_the_power():
    started = time.perf_counter()
    assert auctions._exceeds(2, 10**9, 10**7) and auctions._exceeds(10**6, 10**9, 2**64)
    assert not auctions._exceeds(1, 10**9, 1)
    assert time.perf_counter() - started < 0.1


def test_parse_grid_refuses_k_points_over_n_bidders_when_k_to_the_n_exceeds_the_budget():
    assert len(parse_grid("0:10:1", budget=121, n=2).points) == 11
    with pytest.raises(ValueError) as info:
        parse_grid("0:10:1", budget=120, n=2)
    assert str(info.value) == "grid of 11 points over 2 bidders exceeds budget 120"
    with pytest.raises(ValueError) as info:
        parse_grid("0,1,2", budget=26, n=3)
    assert str(info.value) == "grid of 3 points over 3 bidders exceeds budget 26"


@pytest.mark.parametrize(
    "sweep, message",
    [
        (lambda: sweep_soundness(100000, BidGrid((0, 1, 2))), "soundness sweep of 3^100000 bid vectors"),
        (lambda: check_dominance(100000, ((0, 1),), BidGrid((0, 1, 2))), "dominance sweep of 3*3^99999 cells"),
        # an off-grid valuation adds its truthful deviation
        (lambda: check_dominance(100000, ((0, 5),), BidGrid((0, 1, 2))), "dominance sweep of 4*3^99999 cells"),
        (lambda: sweep_soundness(5_000_000, BidGrid((0, 1, 2))), "soundness sweep of 3^5000000 bid vectors"),
    ],
    ids=["soundness", "dominance", "dominance-off-grid", "soundness-5M"],
)
def test_sweep_over_budget_writes_a_long_count_in_closed_form(sweep, message):
    started = time.perf_counter()
    with pytest.raises(ValueError) as info:
        sweep()
    assert str(info.value) == f"{message} exceeds budget 10000000"
    assert time.perf_counter() - started < 0.1


def test_dominance_sweep_over_budget_names_its_exact_cell_count():
    # 2 agents on 4 points: 4 * 4 cells each, though 4**2 = 16 is within budget
    with pytest.raises(ValueError) as info:
        check_weak_dominance([1, 2], parse_grid("0:3:1"), sweep_budget=18)
    assert str(info.value) == "dominance sweep of 32 cells exceeds budget 18"
    assert check_weak_dominance([1, 2], parse_grid("0:3:1"), sweep_budget=32).cells == 32


def test_dominance_sweep_calls_the_rule_once_per_cell_and_per_truthful_profile():
    counting = Counting()
    values = [Fraction(7, 2), Fraction(5, 2), 1]
    res = check_weak_dominance(values, GRID0_4, rule=counting)
    n, k = len(values), len(GRID0_4.points)
    assert res.holds
    assert res.cells == 6 * 25 + 6 * 25 + 5 * 25
    # each bid vector once, for every agent, plus one truthful profile per agent and opponents' bids
    assert len(counting.calls) == k**n + n * k ** (n - 1) == 200


def test_dominance_sweep_reuses_an_on_grid_first_agents_truthful_outcome():
    counting = Counting()
    n, k = 3, len(GRID0_4.points)
    # agents[0]'s truthful vector is one of its deviations; the later on-grid agent 2 is not spared
    for agents in (((0, 3), (1, Fraction(5, 2)), (2, 1)), ((2, 1), (0, Fraction(7, 2)), (1, 4))):
        counting.calls.clear()
        res = check_dominance(n, agents, GRID0_4, counting)
        assert res == per_agent_dominance(n, agents, GRID0_4, run_spa) and res.holds
        a = len(agents)
        assert len(counting.calls) == k**n + a * k ** (n - 1) - k ** (n - 1) == 175
    counting.calls.clear()
    assert check_dominance(n, ((1, 2),), GRID0_4, counting).holds
    assert len(counting.calls) == k**n


def test_the_benchmarks_dominance_sweeps_make_a_pinned_number_of_rule_calls():
    # `vickrey dominance --n 4 --grid 0:10:1 --values 7/2,5/2,11/2,5/2`: 11**4 + 4 * 11**3 calls
    counting = Counting()
    grid = parse_grid("0:10:1")
    values = [Fraction(7, 2), Fraction(5, 2), Fraction(11, 2), Fraction(5, 2)]
    assert check_weak_dominance(values, grid, rule=counting).holds
    assert len(counting.calls) == 19_965
    # `vickrey abstract --n-max 8 --value 7/2 --delta 1`: agent 0 alone, 3**n calls per n
    counting.calls.clear()
    grid = abstract_grid(Fraction(7, 2), 1)
    for n in range(2, 9):
        assert check_dominance(n, ((0, Fraction(7, 2)),), grid, counting).holds
    assert len(counting.calls) == 9_837


@dataclass(frozen=True)
class FloatPayment:
    """Mutant rule: second price, with agent's payment turned into a float."""

    agent: int

    def __call__(self, bids):
        out = run_spa(bids)
        return AuctionOutcome(out.x, tuple(float(p) if i == self.agent else p for i, p in enumerate(out.p)))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("agent", [0, 1])
def test_dominance_refuses_a_rule_that_pays_a_float(agent, jobs):
    # agent 0 is checked first; agent 1's float payments reach only the later agent's payoffs
    with pytest.raises(TypeError, match="refusing float"):
        check_weak_dominance([1, 2], GRID0_2, rule=FloatPayment(agent), jobs=jobs)
    with pytest.raises(TypeError, match="refusing float"):
        check_weak_dominance([Fraction(1, 2), 2, 1], GRID0_2, rule=FloatPayment(agent), jobs=jobs)


@pytest.mark.parametrize("name", sorted(RULES))
def test_rules_commute_with_scaling(name):
    rule = RULES[name]
    rng = random.Random(2015)
    for _ in range(300):
        bids = [Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
        out = rule(bids)
        for c in (2, 3, 7, 60):
            scaled = rule([c * b for b in bids])
            assert scaled.x == out.x
            assert scaled.p == tuple(c * p for p in out.p)


def test_rule_that_breaks_the_scaling_contract_is_caught():
    def second_price_until_one(bids):
        return run_first_price(bids) if max(bids) > 1 else run_spa(bids)

    # On the grid times 2 the truthful bid 2 pays first price; at the original
    # scale the truthful bid 1 pays second price, so the payoff does not reproduce.
    with pytest.raises(RuntimeError, match="breaks the scaling contract"):
        check_weak_dominance([1, 0], parse_grid("0:1:1/2"), rule=second_price_until_one)


def catalogue_violations(out: AuctionOutcome, n: int) -> list[str]:
    """The soundness catalogue, entry by entry, kept apart from
    outcome_violations so that a change to it must give the same messages."""
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


def outcome_corpus():
    """Sound outcomes of both rules, and every defect the catalogue names."""
    rng = random.Random(9)
    for _ in range(200):
        amounts = (0, 1, 2, Fraction(1, 3), Fraction(5, 2))
        bids = [rng.choice(amounts) for _ in range(rng.randint(1, 4))]
        for rule in RULES.values():
            yield rule(bids)
    half = Fraction(1, 2)
    yield AuctionOutcome((1, 1), (0, 0))  # two winners
    yield AuctionOutcome((1, 1, 0), (half, 1, 0))
    yield AuctionOutcome((0, 0), (0, 0))  # no winner
    yield AuctionOutcome((0, 0, 0), (0, half, 0))
    yield AuctionOutcome((2, 0), (1, 0))  # an allocation entry of 2
    yield AuctionOutcome((2, 0, 0), (0, 0, 0))
    yield AuctionOutcome((0, 2, 1), (0, 0, 1))
    yield AuctionOutcome((-1, 1, 1), (0, 0, 0))
    yield AuctionOutcome((1, 0), (-1, 0))  # a negative winner payment
    yield AuctionOutcome((0, 1), (0, Fraction(-1, 3)))
    yield AuctionOutcome((1, 0, 0), (0, 2, 0))  # a loser pays, the winner pays 0
    yield AuctionOutcome((0, 0, 1), (half, 0, 0))
    yield AuctionOutcome((1, 0, 0), (1, 0, -1))  # a loser is paid
    yield AuctionOutcome((1, 0), (1, 1))
    yield AuctionOutcome((1, 0), (1,))  # mis-sized vectors
    yield AuctionOutcome((1,), (0, 0))
    yield AuctionOutcome((), ())


def test_outcome_violations_matches_the_catalogue_on_the_corpus():
    corpus = list(outcome_corpus())
    sound = [o for o in corpus if not catalogue_violations(o, len(o.x))]
    assert len(sound) >= 400
    for out in corpus:
        for n in {len(out.x), len(out.x) + 1, 2}:
            assert outcome_violations(out, n) == catalogue_violations(out, n), (out, n)
    # n - 1 payments are 0 and none is negative, yet a loser pays
    loser_pays = AuctionOutcome((1, 0, 0), (0, 2, 0))
    assert outcome_violations(loser_pays, 3) == ["losing participant 1 pays 2 instead of 0"]


def fraction_sweep(n: int, grid: BidGrid, rule) -> list:
    """sweep_soundness as it ran before the integer sweep: check_soundness
    on the grid's own amounts."""
    return [check_soundness(bids, rule) for bids in itertools.product(grid.points, repeat=n)]


def unsound_facts(reports) -> list:
    return [(r.bids, r.violations, r.outcome) for r in reports]


def test_soundness_sweep_calls_the_rule_three_times_per_bid_vector():
    counting = Counting()
    grid = parse_grid("0:3:1/2")
    sweep = sweep_soundness(3, grid, rule=counting)
    k = len(grid.points)
    assert sweep.cells == k**3 and sweep.unsound == ()
    assert len(counting.calls) == 3 * k**3
    assert {type(b) for bids in counting.calls for b in bids} == {int}


@pytest.mark.parametrize("name", sorted(RULES))
def test_soundness_sweep_on_fractions_matches_a_fraction_sweep(name):
    grid = parse_grid("0:2:1/3")
    got = sweep_soundness(3, grid, rule=RULES[name])
    want = fraction_sweep(3, grid, RULES[name])
    assert got.cells == len(want) == 7**3
    assert unsound_facts(got.unsound) == unsound_facts(r for r in want if not r.sound)


def test_soundness_sweep_reports_a_loser_pays_rule_on_the_original_fractions():
    def loser_pays(bids):
        out = run_spa(bids)
        return AuctionOutcome(out.x, tuple(p if x else bids[0] for x, p in zip(out.x, out.p)))

    grid = parse_grid("0:1:1/3")
    got = sweep_soundness(2, grid, rule=loser_pays)
    want = fraction_sweep(2, grid, loser_pays)
    assert got.cells == len(want)
    assert unsound_facts(got.unsound) == unsound_facts(r for r in want if not r.sound)
    bad = got.unsound
    assert bad and all(type(b) is Fraction for r in bad for b in r.bids)
    third = Fraction(1, 3)
    assert (third, Fraction(2, 3)) in [r.bids for r in bad]
    report = next(r for r in bad if r.bids == (third, Fraction(2, 3)))
    assert report.violations == ("losing participant 0 pays 1/3 instead of 0",)


def test_soundness_sweep_catches_a_rule_unsound_only_on_scaled_integers():
    def unsound_above_one(bids):
        out = run_spa(bids)
        if max(bids) <= 1:
            return out
        return AuctionOutcome(out.x, tuple(p if x else 1 for x, p in zip(out.x, out.p)))

    # on the original grid every bid is at most 1; times 2 the top bid is 2
    with pytest.raises(RuntimeError, match="breaks the scaling contract"):
        sweep_soundness(2, parse_grid("0:1:1/2"), rule=unsound_above_one)
    assert sweep_soundness(2, parse_grid("0:1:1"), rule=unsound_above_one).unsound == ()


class SecondRunFirstPrice:
    """Nondeterministic rule: second price, but first price when it is
    called again on the bids of its previous call."""

    def __init__(self):
        self.last = None

    def __call__(self, bids):
        again, self.last = tuple(bids) == self.last, tuple(bids)
        return run_first_price(bids) if again else run_spa(bids)


def test_soundness_sweep_reports_a_nondeterministic_rule_as_the_fraction_sweep_does():
    # no all-zero vector: scaled by 2, no bid vector equals its original, so
    # the re-run on the original bids starts as a first call, as it does in the reference
    grid = parse_grid("1/2:2:1/2")
    got = sweep_soundness(3, grid, rule=SecondRunFirstPrice())
    want = [r for r in fraction_sweep(3, grid, SecondRunFirstPrice()) if not r.sound]
    assert got.cells == 4**3
    assert want and all("nondeterministic outcome" in r.violations[0] for r in want)
    assert unsound_facts(got.unsound) == unsound_facts(want)


@pytest.mark.parametrize("runs", [1, 2, 4])
def test_soundness_sweep_runs_the_rule_soundness_runs_times_per_sound_vector(monkeypatch, runs):
    monkeypatch.setattr(auctions, "SOUNDNESS_RUNS", runs)
    counting = Counting()
    grid = parse_grid("0:2:1/2")
    assert sweep_soundness(2, grid, rule=counting).unsound == ()
    # the grid times D = 2, each vector run SOUNDNESS_RUNS times in a row
    vectors = list(itertools.product((0, 1, 2, 3, 4), repeat=2))
    assert counting.calls == [bids for bids in vectors for _ in range(runs)]


def test_soundness_sweep_converts_its_amounts_a_fixed_number_of_times(monkeypatch):
    conversions = []
    monkeypatch.setattr(auctions, "to_amounts", lambda *a: conversions.append(a) or to_amounts(*a))

    def lowest_index_wins_free(bids):
        # never converts its bids, so every to_amounts call is the sweep's
        return AuctionOutcome((1,) + (0,) * (len(bids) - 1), (0,) * len(bids))

    counts = set()
    for grid in map(parse_grid, ("0", "0:2:1", "0:3:1/2", "0:4:1/3")):
        conversions.clear()
        assert sweep_soundness(3, grid, rule=lowest_index_wins_free).unsound == ()
        counts.add(len(conversions))
    assert len(counts) == 1


def test_soundness_sweep_checks_each_distinct_outcome_object_once(monkeypatch):
    checked = []
    monkeypatch.setattr(
        auctions, "outcome_violations", lambda out, n: checked.append(out) or outcome_violations(out, n)
    )
    outcomes = []

    def recording(bids):
        outcomes.append(run_spa(bids))
        return outcomes[-1]

    # the command `vickrey soundness --n 4 --grid 0:10:1` runs this sweep
    sweep = sweep_soundness(4, parse_grid("0:10:1"), rule=recording)
    assert sweep.cells == 11**4 and sweep.unsound == ()
    assert len(outcomes) == 3 * 11**4
    # outcomes holds every object, so no id is reused
    distinct = {id(out) for out in outcomes}
    assert len(distinct) == 43
    assert sorted(map(id, checked)) == sorted(distinct)

    # a rule that builds a new outcome per call has each one checked
    def copying(bids):
        out = run_spa(bids)
        return AuctionOutcome(out.x, out.p)

    checked.clear()
    fresh = sweep_soundness(2, parse_grid("0:2:1"), rule=copying)
    assert fresh.unsound == () and len(checked) == fresh.cells == 9


def test_a_rule_cannot_change_a_shared_outcome_through_its_lists():
    x = [0, 0]
    shared = AuctionOutcome(x, [0, 0])

    def rewriting(bids):
        # rewrites the list it built its one outcome from: a strict winner, none on a tie
        x[:] = [int(bids[0] > bids[1]), int(bids[1] > bids[0])]
        return shared

    sweep = sweep_soundness(2, parse_grid("0:2:1"), rule=rewriting)
    # the outcome keeps the allocation it was built with, so every vector has no winner
    assert shared.x == (0, 0)
    assert [r.bids for r in sweep.unsound] == list(itertools.product(range(3), repeat=2))
    assert {r.violations for r in sweep.unsound} == {("expected exactly one winner, got 0",)}
