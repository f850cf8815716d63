"""Social welfare functions over three alternatives, as per-pair truth tables.

A pairwise SWF stores one truth table per alternative pair; the social bit
for a pair is a function of the agents' bits for that same pair, so
independence of irrelevant alternatives holds by construction.  On a
profile, one order per agent, the social order is the (ab, ac, bc) code
read from the three entries that the profile selects.

SWFs are classified on their tables, by lookup.  Per n, one map takes the
tables of each agent's dictator and inverse dictator to its one shared
class.  The range is read off entry-pair groups, which stand for the
profiles: per (ab entry, ac entry) pair, the mask of the bc entries that
profiles select with it, built in closed form.  Per ab table, `_forces`
ORs the groups into the bc entries that each ac bit forces, once per table
on first use; the enumerator's search reads them from the top bit, and
each SWF's constructor folds them over its ac table, from the lowest bit,
into four masks, which the acyclicity check and the range share.  The
per-SWF predicates are a few big-int tests on the tables and those masks:
`satisfies_unanimity` is one AND and one OR, and `range_of` tests each of
the six acyclic social codes with one AND (the constructor refuses tables
that produce either cyclic code) and returns one frozenset per set of
codes.  `classify` gives one shared, immutable class per range to every
SWF that is neither dictator nor inverse dictator.

The base cases read one classified enumeration, a mapping from each SWF to
its class, so each SWF is classified once per run: `census` counts the
classes (Tang-Lin), `survivors` filters by unanimity and non-dictatorship
(Arrow) and `onto_survivors` by a range of all six orders (Wilson).
`encode_arrow` returns the Arrow base case as a `Cnf` over the table
entries, with acyclicity clauses on each (ab, ac, bc) entry triple that
the entry-pair groups list, `var_names(n)` names its variables, and
`decode_model(n, model)` reads an SWF back out of a model; the models of
`encode_arrow(n, axioms)` decode to exactly `survivors(classes, axioms)`.

Table convention: the entry index for a pair packs the agents' bits with
agent 0 as the most significant bit, so index 2^n-1 is the all-ones input
and index 0 the all-zeros input.  `_agent_bits` is the one place that
reads an agent's bit out of an index: the table that copies that agent.
A table is an int of 2^n bits, entry j at bit 2^n-1-j: entry 0 is the most
significant bit, so integer order is lexicographic order, and the entry-pair
group masks, the forced masks and the tables share one layout.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType

from .orders import (
    CYCLIC_CODES,
    ORDER_BY_CODE,
    PAIR_NAMES,
    LinearOrder,
    bits_of_order,
)
from .satkit import Cnf

DEFAULT_CANDIDATE_BUDGET = 1 << 24
# encode_arrow(n) emits 2*6^n clauses: n = 8 is 3.4M clauses in about 0.5 GB.
# PairwiseSwf, decode_model and enumerate_iia_swfs share the cap: the first call
# at n builds _entry_pair_groups(n) in about 8^n steps, 16.7 s at n = 9
ENCODE_AGENT_CAP = 8

UN = "UN"
ND = "ND"

DICTATORIAL = "dictatorial"
INVERSELY_DICTATORIAL = "inversely_dictatorial"
CONSTANT = "constant"
SMALL_RANGE = "small_range"
UNCLASSIFIED = "unclassified"
CLASS_TAGS = (DICTATORIAL, INVERSELY_DICTATORIAL, CONSTANT, SMALL_RANGE, UNCLASSIFIED)


def _check_agent_count(n: int) -> None:
    if not 1 <= n <= ENCODE_AGENT_CAP:
        raise ValueError(f"agent count {n} outside supported range 1..{ENCODE_AGENT_CAP}")


@dataclass(frozen=True, init=False)
class PairwiseSwf:
    """m=3 SWF as three per-pair truth tables over the agents' bits, each an
    int of 2^n bits.

    The constructor checks the tables and keeps the four masks of
    _bc_entries_met for range_of in _met, outside the fields, so equality,
    hashing and repr read only n and the tables.
    """

    __slots__ = ("n", "tables", "_met")
    n: int
    tables: tuple[int, int, int]

    def __init__(self, n: int, tables: tuple[int, int, int]):
        _check_agent_count(n)
        # a negative table makes the OR negative, and a shifted negative int is never 0
        if not (
            type(tables) is tuple
            and len(tables) == 3
            and type(tables[0]) is type(tables[1]) is type(tables[2]) is int
            and not (tables[0] | tables[1] | tables[2]) >> (1 << n)
        ):
            raise ValueError(f"need a tuple of 3 tables, each a non-negative int below 2^{1 << n}")
        ab, ac, bc = tables
        # the cyclic codes are 010 and 101: ab != ac, and bc equal to ab
        met = _bc_entries_met(n, ab, ac)
        if met[0b01] & ~bc:
            raise ValueError("tables produce cyclic social code (0, 1, 0) on some profile")
        if met[0b10] & bc:
            raise ValueError("tables produce cyclic social code (1, 0, 1) on some profile")
        # frozen, so the slots are written past the dataclass's __setattr__
        setattr = object.__setattr__
        setattr(self, "n", n)
        setattr(self, "tables", tables)
        setattr(self, "_met", met)

    def __reduce__(self):
        # a copy or an unpickled SWF is built, and so checked, by the constructor
        return PairwiseSwf, (self.n, self.tables)


@dataclass(frozen=True)
class SwfClass:
    """Classification outcome; `unclassified` carries the offending range."""

    tag: str
    agent: int | None = None
    orders: tuple[LinearOrder, ...] | None = None

    def __post_init__(self):
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}")
        if self.tag == CONSTANT and (self.orders is None or len(self.orders) != 1):
            raise ValueError("constant class carries exactly one order")
        if self.tag == SMALL_RANGE:
            if self.orders is None or len(self.orders) != 2:
                raise ValueError("small_range class carries exactly two orders")
            if not _within_one_swap(*self.orders):
                raise ValueError("small_range orders must be at Kendall distance <= 1")


def _within_one_swap(o1: LinearOrder, o2: LinearOrder) -> bool:
    """Kendall distance <= 1.  At m=3 the distance is the Hamming distance
    of the (ab, ac, bc) codes."""
    return sum(a != b for a, b in zip(bits_of_order(o1), bits_of_order(o2))) <= 1


@lru_cache(maxsize=None)
def _entry_pair_groups(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per (ab entry, ac entry) pair: the pair and the bc entries that some
    profile selects with it, as a mask in the table layout.

    Per agent, the (ab, ac, bc) bits are a non-cyclic code, so where the
    agent's ab and ac bits differ its bc bit equals its ac bit, and where
    they agree the bc bit is free.  So every pair is selected, and its bc
    entries i3 are those with (i3 ^ i2) & (i1 ^ i2) == 0: 4^n groups
    against 6^n profiles, built without walking the profiles.
    """
    size = 1 << n
    return tuple(
        (i1, i2, sum(1 << (size - 1 - i3) for i3 in range(size) if not (i3 ^ i2) & (i1 ^ i2)))
        for i1 in range(size)
        for i2 in range(size)
    )


@lru_cache(maxsize=1 << 10)
def _forces(n: int, ab: int) -> tuple[tuple[int, int], ...]:
    """Per bit b of an ac table (entry 2^n-1-b), under the ab table: the bc
    entries that a 1 there forces to 1 (the ab bit is 0 there, else the code
    is 010) and those that a 0 there forces to 0 (the ab bit is 1, else 101),
    as a pair of masks in the table layout.

    The cache holds all 256 tables of n = 3, about 170 KB; at n = 4, about
    2.2 KB a table, it keeps 1024 of the 65,536, and a miss costs one pass
    over the 4^n groups.
    """
    size = 1 << n
    force1 = [0] * size
    force0 = [0] * size
    for i1, i2, mask in _entry_pair_groups(n):
        if ab >> (size - 1 - i1) & 1:
            force0[size - 1 - i2] |= mask
        else:
            force1[size - 1 - i2] |= mask
    return tuple(zip(force1, force0))


def _bc_entries_met(n: int, ab: int, ac: int) -> tuple[int, int, int, int]:
    """Indexed by 2*ab bit + ac bit: the mask of bc entries that some
    profile selects together with that pair of social bits.

    One step per ac bit, from the lowest, over the ab table's _forces: 8 at
    n = 3, against 64 entry-pair groups.
    """
    m00 = m01 = m10 = m11 = 0
    for f1, f0 in _forces(n, ab):
        if ac & 1:
            m01 |= f1
            m11 |= f0
        else:
            m00 |= f1
            m10 |= f0
        ac >>= 1
    return m00, m01, m10, m11


def satisfies_unanimity(swf: PairwiseSwf) -> bool:
    """Unanimous pairwise preferences must be copied by the social order:
    entry 2^n-1 of each table (its lowest bit) reads every agent's bit 1,
    entry 0 (its highest) every agent's bit 0.  One AND over the three
    tables tests their lowest bits, one OR their top bits."""
    ab, ac, bc = swf.tables
    return ab & ac & bc & 1 == 1 and not (ab | ac | bc) >> ((1 << swf.n) - 1)


def _agent_bits(n: int, agent: int) -> int:
    """The table that copies agent's bit: entry j is that agent's bit of j."""
    size = 1 << n
    return sum(1 << (size - 1 - j) for j in range(size) if j >> (n - 1 - agent) & 1)


@lru_cache(maxsize=None)
def _dictators(n: int) -> Mapping[tuple[int, int, int], SwfClass]:
    """Per agent, the table triple that copies its order and the one that
    reverses it, each mapped to its one shared class; read-only, as the
    cache hands the same mapping to every call."""
    out = {}
    for tag, invert in ((DICTATORIAL, 0), (INVERSELY_DICTATORIAL, (1 << (1 << n)) - 1)):
        for i in range(n):
            bits = _agent_bits(n, i) ^ invert
            out[bits, bits, bits] = SwfClass(tag, agent=i)
    return MappingProxyType(out)


def range_of(swf: PairwiseSwf) -> frozenset[LinearOrder]:
    """The social orders of swf, read off the constructor's four masks: the
    social code (ab, ac, bc) occurs iff the mask of its (ab, ac) bits meets
    the bc entries that hold bc.  Bit c of codes marks code c.  The cyclic
    codes 010 and 101 are not tested: the constructor refused them."""
    m00, m01, m10, m11 = swf._met
    ones = swf.tables[2]
    zeros = ~ones
    codes = 0
    if m00 & zeros:
        codes = 0x01
    if m00 & ones:
        codes |= 0x02
    if m01 & ones:
        codes |= 0x08
    if m10 & zeros:
        codes |= 0x10
    if m11 & zeros:
        codes |= 0x40
    if m11 & ones:
        codes |= 0x80
    return _range_set(codes)


@lru_cache(maxsize=None)
def _range_set(codes: int) -> frozenset[LinearOrder]:
    """The orders whose social codes are set in the 8-bit mask codes."""
    return frozenset(ORDER_BY_CODE[c] for c in range(8) if codes >> c & 1)


def classify(swf: PairwiseSwf) -> SwfClass:
    """Place an IIA-satisfying SWF into the range-structure taxonomy."""
    # exact: every entry of every table is selected by some profile, so an
    # SWF copies (reverses) an agent's order iff its tables equal that agent's
    return _dictators(swf.n).get(swf.tables) or _range_class(range_of(swf))


@lru_cache(maxsize=None)
def _range_class(rng: frozenset[LinearOrder]) -> SwfClass:
    """The class of a non-dictatorial SWF with range rng, one shared
    (immutable) object per range."""
    orders = tuple(sorted(rng))
    if len(orders) == 1:
        return SwfClass(CONSTANT, orders=orders)
    if len(orders) == 2 and _within_one_swap(*orders):
        return SwfClass(SMALL_RANGE, orders=orders)
    return SwfClass(UNCLASSIFIED, orders=orders)


def enumerate_iia_swfs(n: int, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET) -> list[PairwiseSwf]:
    """All acyclic-valid pairwise SWFs, lexicographic on concatenated tables.

    For each ab table, a depth-first search sets the ac entries in order,
    entry 0 first and bit 0 before bit 1.  Each ac bit forces some bc
    entries (bit 1 forces a 1 where ab is 0, else the code is 010; bit 0
    forces a 0 where ab is 1, else 101); the search carries the forced-1
    and forced-0 masks and drops a branch as soon as they meet.  A complete
    ac table leaves the other bc entries free, so its bc tables are
    completed directly instead of scanned.
    """
    _check_agent_count(n)
    count = 1 << (3 << n)
    if count > candidate_budget:
        # written out up to n = 5 (29 digits)
        count = count if n <= 5 else f"2^(3*2^{n})"
        raise ValueError(f"candidate space of {count} table triples exceeds budget {candidate_budget}")
    size = 1 << n
    full = (1 << size) - 1
    out: list[PairwiseSwf] = []
    for ab in range(1 << size):
        forces = _forces(n, ab)
        # from the top ac bit, entry 0: (next ac bit, ac table so far, forced-1
        # mask, forced-0 mask).  A path goes on with bit 0 where it can and
        # pushes the bit-1 branch only where both are open, so the ac tables
        # complete in increasing order
        stack = [(size - 1, 0, 0, 0)]
        while stack:
            b, t2, forced1, forced0 = stack.pop()
            while b >= 0:
                force1, force0 = forces[b]
                b -= 1
                f1 = forced1 | force1
                f0 = forced0 | force0
                if not forced1 & f0:
                    if not f1 & forced0:
                        stack.append((b, t2 << 1 | 1, f1, forced0))
                    t2 <<= 1
                    forced0 = f0
                elif not f1 & forced0:
                    t2 = t2 << 1 | 1
                    forced1 = f1
                else:
                    break
            else:
                free = full ^ (forced1 | forced0)
                sub = 0  # the subsets of free, in increasing order
                while True:
                    out.append(PairwiseSwf(n, (ab, t2, forced1 | sub)))
                    sub = (sub - free) & free
                    if not sub:
                        break
    return out


def recount_small_range(n: int) -> int:
    """Count small-range non-constant SWFs in closed form, family by family.

    A family fixes two pairs to constant bits and lets the third pair's
    table be any of the 2^(2^n) - 2 non-constant tables; it is admissible
    when neither bit of the varying pair completes a cyclic code.  A
    member's one non-constant table names its family, so the families are
    disjoint.  Independent of enumerate_iia_swfs, and builds no SWF.
    """
    # fixed holds the two constant bits in pair order; the varying bit goes in at k
    families = sum(
        not any(fixed[:k] + (b,) + fixed[k:] in CYCLIC_CODES for b in (0, 1))
        for k in range(3)
        for fixed in itertools.product((0, 1), repeat=2)
    )
    return families * ((1 << (1 << n)) - 2)


def census(classes: Mapping[PairwiseSwf, SwfClass]) -> dict[str, int]:
    """How many SWFs carry each class tag.  The Tang-Lin classification
    holds iff the UNCLASSIFIED count is 0."""
    out = {tag: 0 for tag in CLASS_TAGS}
    for c in classes.values():
        out[c.tag] += 1
    return out


def survivors(
    classes: Mapping[PairwiseSwf, SwfClass], axioms: frozenset[str] | set[str]
) -> tuple[PairwiseSwf, ...]:
    """The SWFs that meet every axiom in axioms, a subset of {UN, ND}: the
    SWFs that the models of encode_arrow(n, axioms) must decode to.

    classes maps each enumerated SWF, in enumeration order, to its class;
    the survivors keep that order.
    """
    axioms = _axiom_set(axioms)
    un, nd = UN in axioms, ND in axioms
    return tuple(
        s for s, c in classes.items() if (not un or satisfies_unanimity(s)) and (not nd or c.tag != DICTATORIAL)
    )


def onto_survivors(classes: Mapping[PairwiseSwf, SwfClass]) -> tuple[PairwiseSwf, ...]:
    """Wilson's filter: the SWFs whose range is all six orders.

    A dictator's or inverse dictator's range is all six orders; every other
    class carries its range.
    """
    return tuple(
        s
        for s, c in classes.items()
        if c.tag in (DICTATORIAL, INVERSELY_DICTATORIAL) or len(c.orders) == 6
    )


def entry_var(n: int, pair: int, entry: int) -> int:
    """The variable of entry `entry` of pair `pair`'s table, in 1..3*2^n."""
    return pair * (1 << n) + entry + 1


def _axiom_set(axioms: frozenset[str] | set[str]) -> frozenset[str]:
    axioms = frozenset(axioms)
    unknown = axioms - {UN, ND}
    if unknown:
        raise ValueError(f"unknown axioms {sorted(unknown)}; supported: UN, ND")
    return axioms


def encode_arrow(n: int, axioms: frozenset[str] | set[str] = frozenset()) -> Cnf:
    """The base-case CNF for n agents over three alternatives, over the
    3*2^n pairwise truth-table entries, numbered by entry_var.

    Independence is structural: the variables *are* the table entries, so
    only acyclicity and the requested axioms need clauses.
    """
    _check_agent_count(n)
    axioms = _axiom_set(axioms)
    size = 1 << n
    var = partial(entry_var, n)
    clauses: list[tuple[int, ...]] = []
    # the entry triples that the profiles select: per group, each bc entry in its mask
    for i1, i2, mask in _entry_pair_groups(n):
        v1, v2 = var(0, i1), var(1, i2)
        for i3 in range(size):
            if mask >> (size - 1 - i3) & 1:
                v3 = var(2, i3)
                clauses.append((v1, -v2, v3))   # forbid social code 010
                clauses.append((-v1, v2, -v3))  # forbid social code 101
    if UN in axioms:
        for k in range(3):
            clauses.append((var(k, size - 1),))
            clauses.append((-var(k, 0),))
    if ND in axioms:
        # agent i is no dictator: some entry of some table differs from i's bit
        for i in range(n):
            bits = _agent_bits(n, i)
            lits = (-var(k, j) if bits >> (size - 1 - j) & 1 else var(k, j) for k in range(3) for j in range(size))
            clauses.append(tuple(lits))
    return Cnf(3 * size, tuple(sorted(clauses)))


def var_names(n: int) -> dict[int, str]:
    """The name of each variable of encode_arrow(n): its pair and entry."""
    return {entry_var(n, k, j): f"{PAIR_NAMES[k]}:{j:0{n}b}" for k in range(3) for j in range(1 << n)}


def decode_model(n: int, model: dict[int, bool]) -> PairwiseSwf:
    """Read the n-agent table entries out of a model of encode_arrow; must
    yield a valid SWF."""
    _check_agent_count(n)
    size = 1 << n
    # entry_var numbers the ab, ac and bc tables in turn, each from entry 0,
    # its most significant bit, so the variables read in order are the three
    # tables end to end
    bits = 0
    try:
        for v in range(1, 3 * size + 1):
            bits = bits << 1 | (1 if model[v] else 0)
    except KeyError:
        missing = [v for v in range(1, 3 * size + 1) if v not in model]
        raise ValueError(f"model must assign all encoding variables; missing {missing[:5]}") from None
    table = (1 << size) - 1
    tables = (bits >> 2 * size, bits >> size & table, bits & table)
    try:
        return PairwiseSwf(n, tables)
    except ValueError as e:
        raise RuntimeError(f"encoder bug: model decodes to an invalid SWF ({e})") from e


def pairwise_to_json(swf: PairwiseSwf) -> dict:
    width = f"0{1 << swf.n}b"
    tables = {PAIR_NAMES[k]: format(swf.tables[k], width) for k in range(3)}
    return {"form": "pairwise", "n": swf.n, "tables": tables}

def swf_class_to_json(c: SwfClass) -> dict:
    out: dict = {"tag": c.tag}
    if c.agent is not None:
        out["agent"] = c.agent
    if c.orders is not None:
        out["orders"] = [str(o) for o in c.orders]
    return out
