import itertools
import random
from fractions import Fraction

import pytest

from implab import auctions
from implab.auctions import (
    RULES,
    AuctionOutcome,
    BidGrid,
    abstract_grid,
    check_dominance,
    check_efficiency,
    check_soundness,
    check_weak_dominance,
    dominance_point_limit,
    max_classical,
    max_constructive,
    outcome_violations,
    parse_grid,
    payoff,
    run_first_price,
    run_spa,
    soundness_point_limit,
    sweep_soundness,
    to_amount,
    to_amounts,
)

GRID0_4 = parse_grid("0:4:1")
GRID0_2 = parse_grid("0:2:1")


def test_run_spa_examples():
    assert run_spa([3, 1]) == AuctionOutcome((1, 0), (Fraction(1), Fraction(0)))
    assert run_spa([2, 2]) == AuctionOutcome((1, 0), (Fraction(2), Fraction(0)))
    assert run_spa([0, 0, 5]) == AuctionOutcome((0, 0, 1), (Fraction(0), Fraction(0), Fraction(0)))


def test_run_spa_single_bidder_pays_zero():
    assert run_spa([5]) == AuctionOutcome((1,), (Fraction(0),))


def test_run_spa_rejects_negative_bids():
    with pytest.raises(ValueError, match="negative bid"):
        run_spa([1, -2])


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


def test_max_examples():
    assert max_classical([7]) == max_constructive([7]) == 7
    assert max_classical([1, 3, 2]) == max_constructive([1, 3, 2]) == 3


def test_max_rejects_empty():
    with pytest.raises(ValueError):
        max_classical([])
    with pytest.raises(ValueError):
        max_constructive([])


def test_max_equivalence_on_1000_random_lists():
    rng = random.Random(424242)
    for _ in range(1000):
        xs = [Fraction(rng.randint(-999, 999), rng.randint(1, 9)) for _ in range(rng.randint(1, 50))]
        classical = max_classical(xs)
        constructive = max_constructive(xs)
        assert classical == constructive
        assert classical in xs
        assert all(classical >= x for x in xs)


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


def test_point_limits_are_exact_integer_roots():
    rng = random.Random(31)
    budgets = list(range(40)) + [10**7, 10**7 - 1, 2**64] + [rng.randrange(10**40) for _ in range(200)]
    for budget in budgets:
        for n in range(1, 9):
            k = soundness_point_limit(n, budget)
            assert k**n <= budget < (k + 1) ** n, (budget, n)
            k = dominance_point_limit(n, budget)
            assert n * k**n <= budget < n * (k + 1) ** n, (budget, n)
    assert dominance_point_limit(2) == 2236 and soundness_point_limit(3) == 215
    assert soundness_point_limit(10**6) == 1


def test_dominance_sweep_calls_the_rule_once_per_cell_and_per_truthful_profile():
    calls = []

    def counting(bids):
        calls.append(bids)
        return run_spa(bids)

    values = [Fraction(7, 2), Fraction(5, 2), 1]
    res = check_weak_dominance(values, GRID0_4, rule=counting)
    n, k = len(values), len(GRID0_4.points)
    assert res.holds
    assert res.cells == 6 * 25 + 6 * 25 + 5 * 25
    assert len(calls) == res.cells + n * k ** (n - 1)


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
    """The soundness catalogue, entry by entry, as outcome_violations had it
    before its fast path for sound outcomes."""
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


def test_outcome_violations_fast_path_matches_the_catalogue():
    corpus = list(outcome_corpus())
    sound = [o for o in corpus if not catalogue_violations(o, len(o.x))]
    assert len(sound) >= 400
    for out in corpus:
        for n in {len(out.x), len(out.x) + 1, 2}:
            assert outcome_violations(out, n) == catalogue_violations(out, n), (out, n)
    # a naive "p.count(0) >= n - 1" test would pass it
    loser_pays = AuctionOutcome((1, 0, 0), (0, 2, 0))
    assert outcome_violations(loser_pays, 3) == ["losing participant 1 pays 2 instead of 0"]


def fraction_sweep(n: int, grid: BidGrid, rule) -> list:
    """sweep_soundness as it ran before the integer sweep: check_soundness
    on the grid's own amounts."""
    return [check_soundness(bids, rule) for bids in itertools.product(grid.points, repeat=n)]


def unsound_facts(reports) -> list:
    return [(r.bids, r.violations, r.outcome) for r in reports]


def test_soundness_sweep_calls_the_rule_three_times_per_bid_vector():
    calls = []

    def counting(bids):
        calls.append(bids)
        return run_spa(bids)

    grid = parse_grid("0:3:1/2")
    sweep = sweep_soundness(3, grid, rule=counting)
    k = len(grid.points)
    assert sweep.cells == k**3 and sweep.unsound == ()
    assert len(calls) == 3 * k**3
    assert {type(b) for bids in calls for b in bids} == {int}


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
