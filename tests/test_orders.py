import itertools
import random
from math import factorial

import pytest

from implab.orders import (
    CYCLIC_CODES,
    ORDER_BY_CODE,
    LinearOrder,
    all_linear_orders,
    bits_of_order,
)

ABC = LinearOrder((0, 1, 2))
ACB = LinearOrder((0, 2, 1))
CBA = LinearOrder((2, 1, 0))


def test_all_linear_orders_counts():
    assert len(all_linear_orders(1)) == 1
    assert len(all_linear_orders(3)) == 6
    assert len(all_linear_orders(4)) == 24


def test_m3_bit_codes_are_the_six_acyclic_ones():
    codes = {bits_of_order(o) for o in all_linear_orders(3)}
    assert codes == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)}


def test_all_linear_orders_lexicographic_and_unique():
    for m in range(1, 6):
        orders = all_linear_orders(m)
        assert len(orders) == factorial(m)
        assert len(set(orders)) == len(orders)
        assert [o.ranking for o in orders] == sorted(o.ranking for o in orders)


def test_all_linear_orders_domain_errors():
    with pytest.raises(ValueError):
        all_linear_orders(0)
    with pytest.raises(ValueError):
        all_linear_orders(7)


def test_linear_order_rejects_non_permutations():
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))
    with pytest.raises(ValueError):
        LinearOrder(())


def test_bits_of_order_examples():
    assert bits_of_order(ABC) == (1, 1, 1)
    assert bits_of_order(ACB) == (1, 1, 0)
    assert bits_of_order(CBA) == (0, 0, 0)


def test_bits_of_order_rejects_other_m():
    with pytest.raises(ValueError):
        bits_of_order(LinearOrder((0, 1)))


def code_of(bits: tuple[int, int, int]) -> int:
    ab, ac, bc = bits
    return 4 * ab + 2 * ac + bc


def test_order_by_code_inverts_bits_of_order():
    for o in all_linear_orders(3):
        assert ORDER_BY_CODE[code_of(bits_of_order(o))] == o
    for code in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        assert bits_of_order(ORDER_BY_CODE[code_of(code)]) == code


def test_order_by_code_decodes_001_to_bca():
    # oracle: scan all six permutations for the one matching the three bits
    code = (0, 0, 1)
    matches = [o for o in all_linear_orders(3) if bits_of_order(o) == code]
    assert matches == [LinearOrder((1, 2, 0))]  # b>c>a
    assert ORDER_BY_CODE[code_of(code)] == LinearOrder((1, 2, 0))


# each code with the ranking it decodes to, None at the two cyclic codes
DECODED = {
    (0, 0, 0): (2, 1, 0),
    (0, 0, 1): (1, 2, 0),
    (0, 1, 0): None,
    (0, 1, 1): (1, 0, 2),
    (1, 0, 0): (2, 0, 1),
    (1, 0, 1): None,
    (1, 1, 0): (0, 2, 1),
    (1, 1, 1): (0, 1, 2),
}


def test_order_by_code_keeps_its_answers():
    assert len(ORDER_BY_CODE) == len(DECODED)
    for code, expected in DECODED.items():
        assert ORDER_BY_CODE[code_of(code)] == (LinearOrder(expected) if expected else None)


def test_kendall_tau_examples():
    assert _inversion_count_oracle(ABC, ABC) == 0
    assert _inversion_count_oracle(ABC, ACB) == 1
    assert _inversion_count_oracle(ABC, CBA) == 3


def test_kendall_tau_equals_hamming_distance_at_m3():
    orders = all_linear_orders(3)
    for o1, o2 in itertools.product(orders, orders):
        hamming = sum(a != b for a, b in zip(bits_of_order(o1), bits_of_order(o2)))
        assert _inversion_count_oracle(o1, o2) == hamming


def test_kendall_tau_metric_properties_at_m3():
    orders = all_linear_orders(3)
    for o1 in orders:
        assert _inversion_count_oracle(o1, o1) == 0
        for o2 in orders:
            d = _inversion_count_oracle(o1, o2)
            assert d == _inversion_count_oracle(o2, o1)
            assert 0 <= d <= 3
            assert (d == 0) == (o1 == o2)
            for o3 in orders:
                assert _inversion_count_oracle(o1, o3) <= d + _inversion_count_oracle(o2, o3)


def _inversion_count_oracle(o1: LinearOrder, o2: LinearOrder) -> int:
    # independent route: inversions of o2's ranking mapped through o1's positions
    mapped = [o1.ranking.index(x) for x in o2.ranking]
    return sum(
        1
        for i in range(len(mapped))
        for j in range(i + 1, len(mapped))
        if mapped[i] > mapped[j]
    )


def test_kendall_tau_matches_inversion_count_on_random_pairs():
    # the definition: the pairs of alternatives that the two orders rank oppositely
    rng = random.Random(7)
    for m in (4, 5):
        orders = all_linear_orders(m)
        for _ in range(50):
            o1, o2 = rng.choice(orders), rng.choice(orders)
            discordant = sum(
                o1.prefers(x, y) != o2.prefers(x, y) for x, y in itertools.combinations(range(m), 2)
            )
            assert discordant == _inversion_count_oracle(o1, o2)


def test_no_produced_order_is_cyclic():
    for o in all_linear_orders(3):
        assert bits_of_order(o) not in CYCLIC_CODES


def test_order_display_names():
    assert str(ABC) == "a>b>c"
    assert str(LinearOrder((1, 2, 0))) == "b>c>a"
