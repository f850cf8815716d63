import ast
import copy
import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

import implab
from implab import satkit
from implab import swf as swf_module
from implab.orders import (
    CYCLIC_CODES,
    PAIRS3,
    LinearOrder,
    all_linear_orders,
    bits_of_order,
)
from implab.swf import (
    CLASS_TAGS,
    CONSTANT,
    DICTATORIAL,
    INVERSELY_DICTATORIAL,
    ND,
    SMALL_RANGE,
    UN,
    UNCLASSIFIED,
    PairwiseSwf,
    SwfClass,
    census,
    classify,
    decode_model,
    encode_arrow,
    entry_var,
    enumerate_iia_swfs,
    onto_survivors,
    pairwise_to_json,
    range_of,
    recount_small_range,
    satisfies_unanimity,
    survivors,
    swf_class_to_json,
)

from test_orders import _inversion_count_oracle

GOLDEN = Path(__file__).parent / "golden"

ABC = LinearOrder((0, 1, 2))
ACB = LinearOrder((0, 2, 1))
BAC = LinearOrder((1, 0, 2))
CBA = LinearOrder((2, 1, 0))


def table_of_bits(bits) -> int:
    """A truth table written entry by entry, as swf stores it: an int with
    entry 0 as its most significant bit."""
    return int("".join(map(str, bits)), 2)


def bits_of_table(table: int, n: int) -> tuple[int, ...]:
    """The entries of an n-agent table int, entry 0 first."""
    size = 1 << n
    return tuple(table >> (size - 1 - j) & 1 for j in range(size))


def dictator(n: int, agent: int) -> PairwiseSwf:
    size = 1 << n
    table = table_of_bits((j >> (n - 1 - agent)) & 1 for j in range(size))
    return PairwiseSwf(n, (table,) * 3)


def inverse_dictator(n: int, agent: int) -> PairwiseSwf:
    size = 1 << n
    table = table_of_bits(1 - ((j >> (n - 1 - agent)) & 1) for j in range(size))
    return PairwiseSwf(n, (table,) * 3)


def constant_swf(n: int, order: LinearOrder) -> PairwiseSwf:
    size = 1 << n
    bits = bits_of_order(order)
    return PairwiseSwf(n, tuple(table_of_bits((bits[k],) * size) for k in range(3)))


def classified(n: int) -> dict[PairwiseSwf, SwfClass]:
    return {s: classify(s) for s in enumerate_iia_swfs(n)}


def two_outcome_swf() -> PairwiseSwf:
    # always a>b, always a>c; b>c unless both agents prefer c to b
    return PairwiseSwf(2, (0b1111, 0b1111, 0b0111))


# The profile route, as an oracle: a profile is a tuple of one LinearOrder
# per agent, and an SWF is a tuple of outputs, one social order per profile
# in canonical profile order.  Each profile's table entries are computed here
# from LinearOrder.prefers, not from swf's own packing.


@lru_cache(maxsize=None)
def oracle_profiles(n: int) -> tuple[tuple[LinearOrder, ...], ...]:
    return tuple(itertools.product(all_linear_orders(3), repeat=n))


def oracle_index(p: tuple[LinearOrder, ...]) -> int:
    """The position of profile p in canonical profile order."""
    return oracle_profiles(len(p)).index(p)


def oracle_reversed(o: LinearOrder) -> LinearOrder:
    return LinearOrder(o.ranking[::-1])


@lru_cache(maxsize=None)
def oracle_entries(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per profile: the (ab, ac, bc) table entries, agent 0 the most significant bit."""
    return tuple(
        tuple(
            sum(o.prefers(x, y) << (n - 1 - agent) for agent, o in enumerate(p))
            for x, y in PAIRS3
        )
        for p in oracle_profiles(n)
    )


# the tests' own decoder, built from prefers: each acyclic (ab, ac, bc) code to its
# order; a cyclic code is a KeyError
ORACLE_ORDER_OF = {tuple(int(o.prefers(x, y)) for x, y in PAIRS3): o for o in all_linear_orders(3)}


def oracle_outputs(s: PairwiseSwf) -> tuple[LinearOrder, ...]:
    tables = [bits_of_table(t, s.n) for t in s.tables]
    return tuple(
        ORACLE_ORDER_OF[tuple(t[j] for t, j in zip(tables, entries))] for entries in oracle_entries(s.n)
    )


def oracle_dictator(n: int, outputs, invert: bool) -> int | None:
    for i in range(n):
        copies = (oracle_reversed(p[i]) if invert else p[i] for p in oracle_profiles(n))
        if all(out == o for out, o in zip(outputs, copies)):
            return i
    return None


def oracle_classify(n: int, outputs) -> tuple:
    """(tag, agent, orders), down the same ladder as classify."""
    for tag, invert in ((DICTATORIAL, False), (INVERSELY_DICTATORIAL, True)):
        agent = oracle_dictator(n, outputs, invert)
        if agent is not None:
            return tag, agent, None
    rng = tuple(sorted(set(outputs)))
    if len(rng) == 1:
        return CONSTANT, None, rng
    if len(rng) == 2 and _inversion_count_oracle(*rng) == 1:
        return SMALL_RANGE, None, rng
    return UNCLASSIFIED, None, rng


def oracle_unanimous(n: int, outputs) -> bool:
    full = (1 << n) - 1
    return all(
        out.prefers(x, y) == (j == full)
        for entries, out in zip(oracle_entries(n), outputs)
        for (x, y), j in zip(PAIRS3, entries)
        if j in (0, full)
    )


def oracle_iia_witness(n: int, outputs):
    """The first (pair, (p1, p2)) whose profiles agree on the pair but whose
    outputs do not, scanning pairs then profiles in canonical order; None if IIA."""
    profiles = oracle_profiles(n)
    for k, (x, y) in enumerate(PAIRS3):
        first_seen = {}
        for p, entries, out in zip(profiles, oracle_entries(n), outputs):
            bit = out.prefers(x, y)
            q, first_bit = first_seen.setdefault(entries[k], (p, bit))
            if first_bit != bit:
                return (x, y), (q, p)
    return None


def oracle_rebuild_tables(n: int, outputs):
    """The per-pair tables that outputs define, or None if an entry gets both bits."""
    code_of = {o: [int(o.prefers(x, y)) for x, y in PAIRS3] for o in set(outputs)}
    tables = [[None] * (1 << n) for _ in PAIRS3]
    for entries, out in zip(oracle_entries(n), outputs):
        for table, j, bit in zip(tables, entries, code_of[out]):
            if table[j] not in (None, bit):
                return None
            table[j] = bit
    return tuple(map(tuple, tables))


def modified_dictator_outputs() -> tuple[LinearOrder, ...]:
    """Agent 0's dictatorship, except a>c>b on the profile (a>b>c, a>b>c): not IIA."""
    outputs = [p[0] for p in oracle_profiles(2)]
    outputs[oracle_index((ABC, ABC))] = ACB
    return tuple(outputs)


def test_evaluate_dictator_copies_agent_0():
    i = oracle_index((ABC, CBA))
    assert oracle_outputs(dictator(2, 0))[i] == ABC
    assert oracle_outputs(dictator(2, 1))[i] == CBA


def test_evaluate_inverse_dictator_reverses():
    assert oracle_outputs(inverse_dictator(2, 0))[oracle_index((ABC, ABC))] == CBA


def test_evaluate_constant_ignores_profile():
    assert oracle_outputs(constant_swf(2, ACB)) == (ACB,) * 36


def test_pairwise_rejects_cyclic_tables():
    # ab always 0, ac always 1, bc always 0 is the cyclic pattern 010
    with pytest.raises(ValueError, match="cyclic"):
        PairwiseSwf(1, (0b00, 0b11, 0b00))


def test_agent_count_must_be_positive():
    with pytest.raises(ValueError, match=r"^agent count 0 outside supported range 1\.\.8$"):
        enumerate_iia_swfs(0)
    # the cap is checked before the budget: 2^(3*2^9) candidates fit 2^1600,
    # and the entry-pair groups at n = 9 take seconds to build
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^agent count 9 outside supported range 1\.\.8$"):
        enumerate_iia_swfs(9, 1 << 1600)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [0, swf_module.ENCODE_AGENT_CAP + 1])
def test_pairwise_swf_and_decode_model_refuse_an_agent_count_outside_encode_arrows_range(n):
    # checked before any mask is built: the first PairwiseSwf at n = 9 took 16.7 s
    message = rf"agent count {n} outside supported range 1\.\.8$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        PairwiseSwf(n, (0, 0, 0))
    with pytest.raises(ValueError, match=message):
        decode_model(n, {})
    assert time.perf_counter() - start < 0.1


SHAPE_MESSAGE = r"need a tuple of 3 tables, each a non-negative int below 2\^2$"


@pytest.mark.parametrize("tables", [(0b01,) * 2, (0b01,) * 4, [0b01, 0b01, 0b01]])
def test_construction_rejects_tables_of_the_wrong_shape(tables):
    with pytest.raises(ValueError, match=SHAPE_MESSAGE):
        PairwiseSwf(1, tables)


def test_construction_refuses_a_table_that_is_not_an_int_of_2n_bits():
    # at n = 1 a table is an int of 2 bits: a bool, a negative int, a third bit
    # and the table written as a tuple of entries are each refused, in any pair
    for bad in (True, -1, 0b100, (0, 1)):
        for k in range(3):
            tables = [0b01] * 3
            tables[k] = bad
            with pytest.raises(ValueError, match=SHAPE_MESSAGE):
                PairwiseSwf(1, tuple(tables))
    assert PairwiseSwf(1, (0b01,) * 3) == dictator(1, 0)


def test_an_swf_is_frozen_and_copies_through_its_constructor(monkeypatch):
    s = two_outcome_swf()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.n = 3
    assert not hasattr(s, "__dict__")
    assert repr(s) == "PairwiseSwf(n=2, tables=(15, 15, 7))"
    calls = []
    init = PairwiseSwf.__init__
    monkeypatch.setattr(PairwiseSwf, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s) and range_of(twin) == range_of(s)
    assert calls == [(2, (15, 15, 7))] * 3


def profile_walk_is_cyclic(n: int, tables) -> bool:
    """Reference: some profile's social bits (a>b, a>c, b>c) form a cycle."""
    for p in oracle_profiles(n):
        code = []
        for k, (x, y) in enumerate(PAIRS3):
            entry = sum(int(o.prefers(x, y)) << (n - 1 - agent) for agent, o in enumerate(p))
            code.append(tables[k][entry])
        if tuple(code) in {(0, 1, 0), (1, 0, 1)}:
            return True
    return False


@pytest.mark.parametrize("n", [1, 2])
def test_construction_rejects_exactly_the_cyclic_triples(n):
    size = 1 << n
    all_tables = list(itertools.product((0, 1), repeat=size))
    accepted = []
    for tables in itertools.product(all_tables, repeat=3):
        try:
            swf = PairwiseSwf(n, tuple(map(table_of_bits, tables)))
        except ValueError as e:
            assert "cyclic social code" in str(e)
            assert profile_walk_is_cyclic(n, tables), tables
        else:
            assert not profile_walk_is_cyclic(n, tables), tables
            accepted.append(swf)
    assert len(accepted) == iia_closed_form(n)
    # itertools.product over sorted tables is lexicographic on the concatenation
    assert enumerate_iia_swfs(n) == accepted


@pytest.mark.parametrize("n", [0, swf_module.ENCODE_AGENT_CAP + 1])
def test_encode_arrow_refuses_an_agent_count_outside_its_range(n):
    # checked before any clause is built: at the cap, n = 8, the CNF takes about 0.5 GB
    with pytest.raises(ValueError, match=rf"agent count {n} outside supported range 1\.\.8$"):
        swf_module.encode_arrow(n)


def test_decode_model_refuses_a_model_with_cyclic_tables():
    # ab always 0, ac always 1, bc always 0: the cycle 010 on every profile
    bits = {0: 0, 1: 1, 2: 0}
    model = {entry_var(1, k, j): bool(bits[k]) for k in range(3) for j in range(2)}
    with pytest.raises(RuntimeError, match="encoder bug: model decodes to an invalid SWF"):
        decode_model(1, model)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decode_model_round_trips_every_swf(n):
    swfs = enumerate_iia_swfs(n)
    assert len(swfs) == 6 + 2 * n + 6 * (2 ** (2**n) - 2)  # 1536 at n = 3, with 8-entry tables
    for s in swfs:
        model = {
            entry_var(n, k, j): bool(e) for k, t in enumerate(s.tables) for j, e in enumerate(bits_of_table(t, n))
        }
        assert decode_model(n, model) == s


def test_satisfies_iia_for_extensional_dictator():
    assert oracle_iia_witness(2, oracle_outputs(dictator(2, 0))) is None


def test_satisfies_iia_finds_witness_on_pair_bc():
    outputs = modified_dictator_outputs()
    pair, profiles = oracle_iia_witness(2, outputs)
    assert pair == (1, 2)
    # canonically first witness, frozen from the definition scan
    assert profiles == ((ABC, ABC), (ABC, BAC))
    p1, p2 = profiles
    x, y = pair
    assert all(o1.prefers(x, y) == o2.prefers(x, y) for o1, o2 in zip(p1, p2))
    assert outputs[oracle_index(p1)].prefers(x, y) != outputs[oracle_index(p2)].prefers(x, y)


def test_satisfies_iia_oracle_agreement_on_modified_dictator():
    # brute force over every (pair, profile, profile) triple
    outputs = modified_dictator_outputs()
    violated_pairs = set()
    for x, y in itertools.combinations(range(3), 2):
        for (p1, out1), (p2, out2) in itertools.combinations(zip(oracle_profiles(2), outputs), 2):
            if all(o1.prefers(x, y) == o2.prefers(x, y) for o1, o2 in zip(p1, p2)):
                if out1.prefers(x, y) != out2.prefers(x, y):
                    violated_pairs.add((x, y))
    assert violated_pairs == {(1, 2)}


def test_unanimity_of_dictator_and_inverse():
    assert satisfies_unanimity(dictator(2, 1)) is True
    assert satisfies_unanimity(inverse_dictator(2, 0)) is False
    # on the profile unanimous for a>b>c the inverse dictator reverses every pair
    assert oracle_outputs(inverse_dictator(2, 0))[oracle_index((ABC, ABC))] == CBA


def test_unanimity_of_constant_fails_on_reversed_profile():
    assert satisfies_unanimity(constant_swf(2, ABC)) is False
    # all agents rank every pair opposite to a>b>c, and the output is still a>b>c
    assert oracle_outputs(constant_swf(2, ABC))[oracle_index((CBA, CBA))] == ABC


def test_unanimity_extensional_agrees_with_pairwise_path():
    for swf in (dictator(2, 0), inverse_dictator(2, 1), constant_swf(2, ACB), two_outcome_swf()):
        assert satisfies_unanimity(swf) == oracle_unanimous(2, oracle_outputs(swf))


def dictator_of(s: PairwiseSwf, tag: str = DICTATORIAL) -> int | None:
    """The agent that classify names for s under tag, if it names one."""
    c = classify(s)
    return c.agent if c.tag == tag else None


def test_detector_examples():
    assert dictator_of(dictator(2, 1)) == 1
    assert dictator_of(inverse_dictator(2, 0), INVERSELY_DICTATORIAL) == 0
    assert dictator_of(constant_swf(2, ABC)) is None
    assert dictator_of(constant_swf(2, ABC), INVERSELY_DICTATORIAL) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_dictator_and_inverse_dictator_gets_one_shared_class(n):
    for tag, build in ((DICTATORIAL, dictator), (INVERSELY_DICTATORIAL, inverse_dictator)):
        for i in range(n):
            c = classify(build(n, i))
            assert c is classify(build(n, i))
            assert c == SwfClass(tag, agent=i)


def test_range_examples():
    assert range_of(constant_swf(2, ACB)) == {ACB}
    assert len(range_of(dictator(2, 0))) == 6
    assert range_of(two_outcome_swf()) == {ABC, ACB}


def test_classify_examples():
    assert classify(dictator(2, 0)) == SwfClass(DICTATORIAL, agent=0)
    assert classify(two_outcome_swf()) == SwfClass(SMALL_RANGE, orders=(ABC, ACB))
    c = classify(constant_swf(2, LinearOrder((1, 2, 0))))
    assert c.tag == CONSTANT and c.orders == (LinearOrder((1, 2, 0)),)


def test_swf_class_validation():
    with pytest.raises(ValueError):
        SwfClass(SMALL_RANGE, orders=(ABC, CBA))  # distance 3
    with pytest.raises(ValueError):
        SwfClass("bogus")
    with pytest.raises(ValueError):
        SwfClass(CONSTANT, orders=(ABC, ACB))
    with pytest.raises(ValueError):
        SwfClass(SMALL_RANGE, orders=(ABC,))
    # no SWF at n <= 4 has a range of three orders, so the branch is reached directly
    three = (ABC, ACB, CBA)
    assert swf_module._range_class(frozenset(three)) == SwfClass(UNCLASSIFIED, orders=tuple(sorted(three)))


def test_within_one_swap_is_kendall_distance_at_most_one():
    orders = all_linear_orders(3)
    for o1, o2 in itertools.product(orders, orders):
        assert swf_module._within_one_swap(o1, o2) == (_inversion_count_oracle(o1, o2) <= 1)


def test_enumerate_iia_swfs_n2_has_94():
    assert len(enumerate_iia_swfs(2)) == 94


def test_enumerate_is_canonically_sorted_and_unique():
    swfs = enumerate_iia_swfs(2)
    keys = [sum((bits_of_table(t, 2) for t in s.tables), ()) for s in swfs]
    assert keys == sorted(keys)
    assert len(set(swfs)) == len(swfs)


def profile_walk_groups(n: int) -> tuple[tuple[int, int, int], ...]:
    """The entry-pair groups as a walk over the profiles builds them: per
    (ab entry, ac entry) pair some profile selects, the mask of the bc
    entries selected with it."""
    size = 1 << n
    masks: dict[tuple[int, int], int] = {}
    for i1, i2, i3 in oracle_entries(n):
        masks[i1, i2] = masks.get((i1, i2), 0) | 1 << (size - 1 - i3)
    return tuple((i1, i2, mask) for (i1, i2), mask in sorted(masks.items()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_entry_pair_groups_match_the_profile_walk(n):
    assert swf_module._entry_pair_groups(n) == profile_walk_groups(n)
    assert len(swf_module._entry_pair_groups(n)) == 4**n


def group_loop_met(n: int, ab: int, ac: int) -> tuple[int, int, int, int]:
    """_bc_entries_met as one step per entry-pair group, its oracle."""
    ab, ac = bits_of_table(ab, n), bits_of_table(ac, n)
    met = [0, 0, 0, 0]
    for i1, i2, mask in swf_module._entry_pair_groups(n):
        met[ab[i1] << 1 | ac[i2]] |= mask
    return tuple(met)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bc_entries_met_matches_the_group_loop(n):
    size = 1 << n
    # every (ab, ac) pair up to n = 3; at n = 4 every 1021st table, both ends included
    ints = list(range(1 << size)) if n <= 3 else sorted({*range(0, 1 << size, 1021), (1 << size) - 1})
    for ab in ints:
        for ac in ints:
            assert swf_module._bc_entries_met(n, ab, ac) == group_loop_met(n, ab, ac), (ab, ac)


@pytest.mark.parametrize("n", [2, 3])
def test_swfs_with_equal_ranges_share_one_class(n):
    by_range: dict[frozenset, list[SwfClass]] = {}
    for s, c in classified(n).items():
        if c.tag not in (DICTATORIAL, INVERSELY_DICTATORIAL):
            by_range.setdefault(range_of(s), []).append(c)
    assert sum(map(len, by_range.values())) > len(by_range)
    for rng, classes in by_range.items():
        first = classes[0]
        assert all(c is first for c in classes)
        orders = tuple(sorted(rng))
        tag = {1: CONSTANT, 2: SMALL_RANGE}.get(len(orders), UNCLASSIFIED)
        assert first == SwfClass(tag, orders=orders)
    # dictators are classified by their tables, as before
    assert classify(dictator(n, 0)) == classify(dictator(n, 0)) == SwfClass(DICTATORIAL, agent=0)


def test_importing_the_cli_fills_no_swf_cache():
    # every cached function in swf: each module attribute with cache_info
    code = (
        "import implab.cli; from implab import swf; "
        "print({name: f.cache_info().currsize for name, f in vars(swf).items() if hasattr(f, 'cache_info')})"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(implab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    sizes = ast.literal_eval(out.stdout)
    assert {"_dictators", "_range_class"} <= sizes.keys()
    assert sizes == dict.fromkeys(sizes, 0)


def or_table_enumeration(n: int) -> list[PairwiseSwf]:
    """The enumerator as it was before the pruned search, as an oracle: per
    ab table, the bc entries forced by every set of ac entries come from two
    tables of ORs, and every ac table is scanned against them."""
    size = 1 << n
    groups = swf_module._entry_pair_groups(n)
    full = (1 << size) - 1
    out = []
    for t1 in range(1 << size):
        ab = bits_of_table(t1, n)
        force1 = [0] * size
        force0 = [0] * size
        for i1, i2, mask in groups:
            if ab[i1]:
                force0[size - 1 - i2] |= mask
            else:
                force1[size - 1 - i2] |= mask
        or1 = [0] * (1 << size)
        or0 = [0] * (1 << size)
        for t in range(1, 1 << size):
            low = (t & -t).bit_length() - 1
            or1[t] = or1[t & (t - 1)] | force1[low]
            or0[t] = or0[t & (t - 1)] | force0[low]
        for t2 in range(1 << size):
            forced1 = or1[t2]
            forced0 = or0[full ^ t2]
            if forced1 & forced0:
                continue
            free = full ^ (forced1 | forced0)
            sub = 0
            while True:
                out.append(PairwiseSwf(n, (t1, t2, forced1 | sub)))
                sub = (sub - free) & free
                if not sub:
                    break
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_search_equals_the_or_table_enumeration(n):
    assert enumerate_iia_swfs(n) == or_table_enumeration(n)


def test_census_n2_is_84_6_2_2():
    counts = census(classified(2))
    assert counts == {
        SMALL_RANGE: 84,
        CONSTANT: 6,
        DICTATORIAL: 2,
        INVERSELY_DICTATORIAL: 2,
        UNCLASSIFIED: 0,
    }
    assert sum(counts.values()) == 94
    assert recount_small_range(2) == counts[SMALL_RANGE]


def test_census_n1_matches_golden_and_bruteforce_oracle():
    golden = json.loads((GOLDEN / "iia_census_n1.json").read_text())
    # oracle: plain triple loop over all table triples against the 6 profiles
    codes = [bits_of_order(o) for o in all_linear_orders(3)]
    valid = 0
    for t1 in itertools.product((0, 1), repeat=2):
        for t2 in itertools.product((0, 1), repeat=2):
            for t3 in itertools.product((0, 1), repeat=2):
                if all(
                    (t1[c[0]], t2[c[1]], t3[c[2]]) not in {(0, 1, 0), (1, 0, 1)} for c in codes
                ):
                    valid += 1
    assert valid == golden["iia_count"] == 20
    swfs = enumerate_iia_swfs(1)
    assert len(swfs) == valid
    census = {}
    for s in swfs:
        census[classify(s).tag] = census.get(classify(s).tag, 0) + 1
    assert census == golden["census"]


def test_enumerate_budget_error():
    with pytest.raises(ValueError, match="exceeds budget"):
        enumerate_iia_swfs(4)


def test_enumerate_budget_admits_exactly_the_candidate_count():
    # n = 2: 2^(3*4) = 4096 candidate table triples
    assert len(enumerate_iia_swfs(2, 4096)) == 94
    with pytest.raises(ValueError, match="candidate space of 4096 table triples exceeds budget 4095"):
        enumerate_iia_swfs(2, 4095)
    # past 29 digits the count is written in closed form
    with pytest.raises(ValueError, match=r"candidate space of 2\^\(3\*2\^6\) table triples exceeds budget 16777216"):
        enumerate_iia_swfs(6)
    with pytest.raises(ValueError, match=r"candidate space of 2\^\(3\*2\^8\) table triples"):
        enumerate_iia_swfs(8, (1 << 768) - 1)


def test_every_enumerated_swf_passes_iia_extensionally():
    for s in enumerate_iia_swfs(2):
        assert oracle_iia_witness(2, oracle_outputs(s)) is None


def test_pairwise_extensional_round_trip_on_all_94():
    for s in enumerate_iia_swfs(2):
        assert oracle_rebuild_tables(2, oracle_outputs(s)) == tuple(bits_of_table(t, 2) for t in s.tables)


def test_to_pairwise_rejects_non_iia():
    assert oracle_rebuild_tables(2, modified_dictator_outputs()) is None


def test_range_structure_of_the_94():
    for s in enumerate_iia_swfs(2):
        rng = sorted(range_of(s))
        assert len(rng) in (1, 2, 6)
        if len(rng) == 2:
            assert _inversion_count_oracle(rng[0], rng[1]) == 1


def test_classify_is_exhaustive_and_exclusive_on_the_94():
    swfs = enumerate_iia_swfs(2)
    dictators = {dictator(2, i) for i in range(2)}
    inverse_dictators = {inverse_dictator(2, i) for i in range(2)}
    for s in swfs:
        c = classify(s)
        assert c.tag != UNCLASSIFIED
        # classify gives each SWF one class; spot-check it against the SWFs built here
        if c.tag == DICTATORIAL:
            assert s not in inverse_dictators
        if c.tag == CONSTANT:
            assert s not in dictators | inverse_dictators


def test_detectors_agree_with_direct_evaluation_on_all_94():
    profiles = oracle_profiles(2)
    for s in enumerate_iia_swfs(2):
        outs = oracle_outputs(s)
        for i in range(2):
            copies = all(out == p[i] for out, p in zip(outs, profiles))
            reverses = all(out == oracle_reversed(p[i]) for out, p in zip(outs, profiles))
            assert (dictator_of(s) == i) == copies
            assert (dictator_of(s, INVERSELY_DICTATORIAL) == i) == reverses


def iia_closed_form(n: int) -> int:
    # 6 constants, 2n (inverse) dictators, 6 families of 2^(2^n) - 2 small-range SWFs
    return 6 + 2 * n + 6 * (2 ** (2**n) - 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_route_matches_profile_route_on_every_swf(n):
    swfs = enumerate_iia_swfs(n)
    assert len(swfs) == iia_closed_form(n)
    if n == 3:
        special = [f(3, i) for f in (dictator, inverse_dictator) for i in range(3)]
        assert set(special) | {constant_swf(3, BAC)} <= set(swfs)
        assert {classify(s).tag for s in swfs} == set(CLASS_TAGS) - {UNCLASSIFIED}
    for s in swfs:
        outputs = oracle_outputs(s)
        assert dictator_of(s) == oracle_dictator(n, outputs, False)
        assert dictator_of(s, INVERSELY_DICTATORIAL) == oracle_dictator(n, outputs, True)
        assert range_of(s) == frozenset(outputs)
        c = classify(s)
        assert (c.tag, c.agent, c.orders) == oracle_classify(n, outputs)
        assert satisfies_unanimity(s) == oracle_unanimous(n, outputs)
        assert oracle_rebuild_tables(n, outputs) == tuple(bits_of_table(t, n) for t in s.tables)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_range_of_matches_order_of_bits_on_every_swf(n):
    # the codes that the profiles select, each decoded by a table that shares nothing with orders
    entries = set(oracle_entries(n))
    for s in enumerate_iia_swfs(n):
        tables = [bits_of_table(t, n) for t in s.tables]
        codes = {tuple(t[j] for t, j in zip(tables, e)) for e in entries}
        assert range_of(s) == frozenset(ORACLE_ORDER_OF[code] for code in codes)


def four_agent_sample() -> list[PairwiseSwf]:
    """A fixed sample of the 393,218 four-agent SWFs, each once: the first 60
    AllSAT models of encode_arrow(4) and the first model under each of 150
    seeded assumption triples, decoded; every dictator, inverse dictator and
    constant; and 30 seeded random members of the small-range families,
    whose tables are built here: two pairs fixed to constant bits that no bit
    of the third completes to a cyclic code, and a non-constant third table."""
    n, full = 4, (1 << 16) - 1
    cnf = encode_arrow(n)
    models = list(satkit.enumerate_models(cnf, limit=60).models)
    rng = random.Random(20160401)
    solver = satkit.Solver(cnf)
    for _ in range(150):
        result = solver.solve([rng.choice((1, -1)) * rng.randint(1, cnf.num_vars) for _ in range(3)])
        if result.satisfiable:
            models.append(result.assignment)
    sample = [decode_model(n, m) for m in models]
    sample += [f(n, i) for f in (dictator, inverse_dictator) for i in range(n)]
    sample += [constant_swf(n, o) for o in all_linear_orders(3)]
    families = [
        (k, fixed)
        for k in range(3)
        for fixed in itertools.product((0, 1), repeat=2)
        if not any(fixed[:k] + (b,) + fixed[k:] in CYCLIC_CODES for b in (0, 1))
    ]
    for _ in range(30):
        k, fixed = rng.choice(families)
        tables = [full * bit for bit in fixed]
        tables.insert(k, rng.randrange(1, full))
        sample.append(PairwiseSwf(n, tuple(tables)))
    return list(dict.fromkeys(sample))


def test_predicates_match_the_profile_route_on_a_four_agent_sample():
    sample = four_agent_sample()
    assert len(sample) > 160
    assert {classify(s).tag for s in sample} == set(CLASS_TAGS) - {UNCLASSIFIED}
    assert {satisfies_unanimity(s) for s in sample} == {False, True}
    for s in sample:
        outputs = oracle_outputs(s)
        assert satisfies_unanimity(s) == oracle_unanimous(4, outputs), s
        assert range_of(s) == frozenset(outputs), s
        c = classify(s)
        assert (c.tag, c.agent, c.orders) == oracle_classify(4, outputs), s


def test_swf_has_one_swf_representation():
    tree = ast.parse(Path(swf_module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "isinstance", f"isinstance call on line {node.lineno}"
        elif isinstance(node, ast.ClassDef):
            assert node.name != "ExtensionalSwf"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "all_profiles" not in [alias.name for alias in node.names]


PROFILE_LAYER = {
    "Profile",
    "all_profiles",
    "profile_pair_indices",
    "PROFILE_BUDGET",
    "kendall_tau",
    "evaluate",
    "profile_index",
    "_order_rank",
    "reversed",
}


def test_the_package_has_no_profile_layer():
    for path in Path(implab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            assert not PROFILE_LAYER & set(names), f"{path.name}:{node.lineno} {names}"


def sha256_of_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_n3_enumeration_and_classes_are_pinned():
    # as the profile-walking check, range and enumerator produced them
    swfs = enumerate_iia_swfs(3)
    # the digest of the tables written as entry tuples
    assert sha256_of_json([[bits_of_table(t, 3) for t in s.tables] for s in swfs]) == (
        "9eb1368828c6b7739cd5237cdbc338f8bd5e806d45fcae2c5c0a1630b16cb84d"
    )
    assert sha256_of_json([swf_class_to_json(classify(s)) for s in swfs]) == (
        "417a5a3dc5f336e08a747aa0c848db241f367595d7d651fdb07d6e93b5fde072"
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_survivors_read_off_the_classes_match_the_direct_filters(n):
    classes = classified(n)
    swfs = list(classes)
    assert list(onto_survivors(classes)) == [s for s in swfs if len(range_of(s)) == 6]
    assert list(survivors(classes, {ND})) == [s for s in swfs if dictator_of(s) is None]


def test_arrow_base_case_n2():
    classes = classified(2)
    assert len(classes) == 94
    un = survivors(classes, {UN})
    assert len(un) == 2
    assert all(classes[s].tag == DICTATORIAL for s in un)
    assert {classes[s].agent for s in un} == {0, 1}
    assert survivors(classes, {UN, ND}) == ()


def test_arrow_base_case_n1_survivor_is_the_identity():
    un = survivors(classified(1), {UN})
    assert len(un) == 1
    assert dictator_of(un[0]) == 0


def test_wilson_base_case_n2():
    classes = classified(2)
    onto = onto_survivors(classes)
    assert len(onto) == 4
    tags = sorted(classes[s].tag for s in onto)
    assert tags == [DICTATORIAL, DICTATORIAL, INVERSELY_DICTATORIAL, INVERSELY_DICTATORIAL]
    # oracle: recompute ranges extensionally and refilter
    refiltered = [
        s for s in enumerate_iia_swfs(2) if len(set(oracle_outputs(s))) == 6
    ]
    assert list(onto) == refiltered


def test_wilson_excludes_constant_and_small_range():
    for s in onto_survivors(classified(2)):
        assert classify(s).tag in (DICTATORIAL, INVERSELY_DICTATORIAL)


def test_arrow_survivors_subset_of_wilson_survivors():
    classes = classified(2)
    assert set(survivors(classes, {UN})) <= set(onto_survivors(classes))


def test_small_range_recount_formula():
    # 3 varying positions x 2 admissible fixed-bit pairs x (2^(2^n) - 2) tables
    assert recount_small_range(2) == 3 * 2 * 14 == 84
    assert recount_small_range(1) == 3 * 2 * 2 == 12
    assert recount_small_range(6) == 6 * (2**64 - 2)


def oracle_small_range(n: int) -> set[PairwiseSwf]:
    """Every member of every admissible small-range family, built and
    validated: two pairs fixed to constant bits, the third any non-constant
    table, and no completion of the varying bit a cyclic code."""
    size = 1 << n
    seen = set()
    for k in range(3):
        others = [p for p in range(3) if p != k]
        for fixed in itertools.product((0, 1), repeat=2):
            codes = []
            for b in (0, 1):
                code = [0, 0, 0]
                code[k] = b
                code[others[0]], code[others[1]] = fixed
                codes.append(tuple(code))
            if any(c in CYCLIC_CODES for c in codes):
                continue
            for table in itertools.product((0, 1), repeat=size):
                if len(set(table)) == 1:
                    continue
                tables = [None, None, None]
                tables[k] = table
                tables[others[0]] = (fixed[0],) * size
                tables[others[1]] = (fixed[1],) * size
                seen.add(PairwiseSwf(n, tuple(map(table_of_bits, tables))))
    return seen


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_range_recount_matches_the_constructive_oracle_and_classify(n):
    members = oracle_small_range(n)
    tagged = {s for s, c in classified(n).items() if c.tag == SMALL_RANGE}
    assert members == tagged
    assert len(members) == recount_small_range(n)


def test_small_range_recount_builds_no_swf(monkeypatch):
    calls = []
    init = PairwiseSwf.__init__
    monkeypatch.setattr(PairwiseSwf, "__init__", lambda self, *args: calls.append(1) or init(self, *args))
    constant_swf(1, ABC)
    assert len(calls) == 1  # the counter sees a construction
    calls.clear()
    assert [recount_small_range(n) for n in (1, 2, 3)] == [12, 84, 1524]
    assert calls == []


def test_pairwise_json_shape():
    j = pairwise_to_json(two_outcome_swf())
    assert j == {
        "form": "pairwise",
        "n": 2,
        "tables": {"ab": "1111", "ac": "1111", "bc": "0111"},
    }