"""Preferences over nonempty subsets of a small ordered universe.

Objects are indices 0..m-1 ranked by index, so object 0 is the best.
Subsets are nonzero bitmasks.  A relation is a full boolean matrix
geq[A][B] meaning "A is at least as good as B"; the strict part is derived
as geq(A,B) and not geq(B,A).

The axiom catalog is grounded into concrete constraints over the geq atoms,
which serve both direct checking of a given relation and CNF encoding for
the axiom-subset impossibility search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .orders import ALTERNATIVE_NAMES
from .satkit import Cnf, SolveResult, Solver


class Axiom(Enum):
    SIMPLE_DOMINANCE = "dominance"
    INDEPENDENCE = "independence"
    UNCERTAINTY_AVERSION = "aversion"
    UNCERTAINTY_APPEAL = "appeal"
    SIMPLE_TOP_MONOTONICITY = "topmono"


CATALOG = tuple(Axiom)


class RelationClass(Enum):
    TRANSITIVE = "transitive"
    WEAK_ORDER = "weak"
    LINEAR_ORDER = "linear"


@dataclass(frozen=True)
class Universe:
    """Objects 0..m-1; an object's index is its rank, 0 the best."""

    m: int

    def __post_init__(self):
        if not 2 <= self.m <= 6:
            raise ValueError(f"universe size {self.m} outside supported range 2..6")

    def subsets(self) -> range:
        return range(1, 1 << self.m)

    def subset_name(self, mask: int) -> str:
        return "{" + ",".join(ALTERNATIVE_NAMES[x] for x in range(self.m) if mask >> x & 1) + "}"


@dataclass(frozen=True)
class GroundConstraint:
    """Either an unconditional preference or a one-step implication.

    With an antecedent: strict(antecedent) implies the consequent.  The
    consequent is strict or weak per the flag; strict(A,B) expands to
    geq(A,B) and not geq(B,A).
    """

    antecedent: tuple[int, int] | None
    consequent: tuple[int, int]
    strict: bool

    def sort_key(self) -> tuple[int, int, int, int]:
        ant = self.antecedent if self.antecedent is not None else (0, 0)
        return (*ant, *self.consequent)

    def describe(self, u: Universe) -> str:
        cons = f"{u.subset_name(self.consequent[0])} {'>' if self.strict else '>='} {u.subset_name(self.consequent[1])}"
        if self.antecedent is None:
            return cons
        return f"{u.subset_name(self.antecedent[0])} > {u.subset_name(self.antecedent[1])} implies {cons}"


@dataclass(frozen=True)
class SetRelation:
    universe: Universe
    geq: tuple[tuple[bool, ...], ...]  # indexed [A-1][B-1] over nonempty masks
    relation_class: RelationClass

    def __post_init__(self):
        size = (1 << self.universe.m) - 1
        if len(self.geq) != size or any(len(row) != size for row in self.geq):
            raise ValueError(f"geq matrix must be {size}x{size}")
        problem = class_violation(self.geq, self.relation_class)
        if problem:
            raise ValueError(f"declared class {self.relation_class.value} does not hold: {problem}")

    def geq_at(self, a: int, b: int) -> bool:
        return self.geq[a - 1][b - 1]

    def strict(self, a: int, b: int) -> bool:
        return self.geq[a - 1][b - 1] and not self.geq[b - 1][a - 1]


def _mask(bits) -> int:
    """The booleans of a row or column as an int, entry i at bit i."""
    return sum(1 << i for i, v in enumerate(bits) if v)


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def class_violation(geq, relation_class: RelationClass) -> str | None:
    """First failed class constraint, scanning masks in ascending order.

    Rows and columns are int bitmasks: transitivity fails at (a, b, c) when
    c is in row b but not in row a, so the lowest bit of rows[b] & ~rows[a]
    is the first failing c for each (a, b) with geq[a][b].
    """
    size = len(geq)
    rows = [_mask(row) for row in geq]
    for a, out in enumerate(rows):
        pending = out
        while pending:
            b = _low(pending)
            pending &= pending - 1
            missing = rows[b] & ~out
            if missing:
                return f"transitivity fails at ({a + 1},{b + 1},{_low(missing) + 1})"
    if relation_class is RelationClass.TRANSITIVE:
        return None
    cols = [_mask(col) for col in zip(*geq)]
    full = (1 << size) - 1
    for a in range(size):
        missing = full & ~(rows[a] | cols[a]) >> a << a
        if missing:
            return f"totality fails at ({a + 1},{_low(missing) + 1})"
    if relation_class is RelationClass.WEAK_ORDER:
        return None
    for a in range(size):
        both = rows[a] & cols[a] >> (a + 1) << (a + 1)
        if both:
            return f"antisymmetry fails at ({a + 1},{_low(both) + 1})"
    return None


def strongest_class(geq) -> RelationClass:
    for cls in (RelationClass.LINEAR_ORDER, RelationClass.WEAK_ORDER, RelationClass.TRANSITIVE):
        if class_violation(geq, cls) is None:
            return cls
    raise ValueError("relation is not even transitive")


def minmax_relation(u: Universe) -> SetRelation:
    """Rank sets by worst element, breaking ties by best element.

    Ties remain between distinct sets sharing worst and best (first at m=3),
    so the relation is a weak order rather than a linear one there.
    """
    masks = list(u.subsets())
    # the worst object's rank is the highest set bit, the best's the lowest
    wb = {mask: (mask.bit_length() - 1, _low(mask)) for mask in masks}
    geq = tuple(
        tuple(
            wb[a][0] < wb[b][0] or (wb[a][0] == wb[b][0] and wb[a][1] <= wb[b][1])
            for b in masks
        )
        for a in masks
    )
    return SetRelation(u, geq, strongest_class(geq))


def ground_axiom(u: Universe, ax: Axiom) -> tuple[GroundConstraint, ...]:
    """Instantiate one axiom over all concrete subsets of the universe, in
    sort_key order; the axiom is vacuous on u when there are none.

    Pairs and triples come in index order, so x is better than y (than z).
    """
    cs: list[GroundConstraint] = []
    if ax is Axiom.SIMPLE_DOMINANCE:
        for x, y in itertools.combinations(range(u.m), 2):
            cs.append(GroundConstraint(None, (1 << x, (1 << x) | (1 << y)), True))
            cs.append(GroundConstraint(None, ((1 << x) | (1 << y), 1 << y), True))
    elif ax is Axiom.INDEPENDENCE:
        for a in u.subsets():
            for b in u.subsets():
                if a == b:
                    continue
                for x in range(u.m):
                    bit = 1 << x
                    if (a | b) & bit:
                        continue
                    cs.append(GroundConstraint((a, b), (a | bit, b | bit), False))
    elif ax is Axiom.UNCERTAINTY_AVERSION:
        for x, y, z in itertools.combinations(range(u.m), 3):
            cs.append(GroundConstraint(None, (1 << y, (1 << x) | (1 << z)), True))
    elif ax is Axiom.UNCERTAINTY_APPEAL:
        for x, y, z in itertools.combinations(range(u.m), 3):
            cs.append(GroundConstraint(None, ((1 << x) | (1 << z), 1 << y), True))
    elif ax is Axiom.SIMPLE_TOP_MONOTONICITY:
        for x, y, z in itertools.combinations(range(u.m), 3):
            cs.append(GroundConstraint(None, ((1 << x) | (1 << z), (1 << y) | (1 << z)), True))
    else:
        raise ValueError(f"unknown axiom {ax}")
    cs.sort(key=GroundConstraint.sort_key)
    return tuple(cs)


@dataclass(frozen=True)
class AxiomCheck:
    holds: bool
    vacuous: bool
    violation: GroundConstraint | None = None


def check_relation(rel: SetRelation, ax: Axiom) -> AxiomCheck:
    """First ground constraint the relation violates, in canonical order."""
    return check_grounded(rel, ground_axiom(rel.universe, ax))


def check_grounded(rel: SetRelation, constraints: tuple[GroundConstraint, ...]) -> AxiomCheck:
    """check_relation over an axiom already grounded on the relation's universe."""
    for c in constraints:
        if c.antecedent is not None and not rel.strict(*c.antecedent):
            continue
        a, b = c.consequent
        ok = rel.strict(a, b) if c.strict else rel.geq_at(a, b)
        if not ok:
            return AxiomCheck(False, not constraints, c)
    return AxiomCheck(True, not constraints)


def _var(u: Universe, a: int, b: int) -> int:
    size = (1 << u.m) - 1
    return (a - 1) * size + (b - 1) + 1


def _class_clauses(u: Universe, relation_class: RelationClass) -> list[tuple[int, ...]]:
    """Transitivity, plus totality and antisymmetry as the class demands.

    A linear order gets no transitivity clause per ordered triple, only one
    per directed 3-cycle over distinct sets: the reflexive, totality and
    antisymmetry clauses make the relation a tournament, and a tournament is
    transitive iff it has no 3-cycle, so the models are the same.  Without
    antisymmetry the rotations of a triple are not equivalent, so the
    transitive and weak-order classes keep the full transitivity clauses.

    The atom of (a, b) is _var's (a - 1) * size + b, written out inline.
    """
    clauses: list[tuple[int, ...]] = []
    size = (1 << u.m) - 1
    masks = list(u.subsets())
    if relation_class is RelationClass.LINEAR_ORDER:
        for a, b, c in itertools.combinations(masks, 3):
            ra, rb, rc = (a - 1) * size, (b - 1) * size, (c - 1) * size
            clauses.append((-(ra + b), -(rb + c), -(rc + a)))
            clauses.append((-(ra + c), -(rc + b), -(rb + a)))
    else:
        for a in masks:
            ra = (a - 1) * size
            for b in masks:
                if a == b:
                    continue
                ab, rb = ra + b, (b - 1) * size
                clauses.extend((-ab, -(rb + c), ra + c) for c in masks if c != b)
    if relation_class in (RelationClass.WEAK_ORDER, RelationClass.LINEAR_ORDER):
        for a in masks:
            ra = (a - 1) * size
            for b in masks:
                if a < b:
                    clauses.append((ra + b, (b - 1) * size + a))
                elif a == b:
                    clauses.append((ra + a,))
    if relation_class is RelationClass.LINEAR_ORDER:
        for a in masks:
            ra = (a - 1) * size
            clauses.extend((-(ra + b), -((b - 1) * size + a)) for b in masks if a < b)
    return clauses


def _axiom_clauses(u: Universe, constraints: tuple[GroundConstraint, ...]) -> list[tuple[int, ...]]:
    """The ground constraints of one axiom as clauses over the geq atoms,
    with _var's atom of (a, b) written out inline as (a - 1) * size + b."""
    size = (1 << u.m) - 1
    clauses: list[tuple[int, ...]] = []
    for c in constraints:
        ca, cb = c.consequent
        cons_lits = [((ca - 1) * size + cb,)]
        if c.strict:
            cons_lits.append((-((cb - 1) * size + ca),))
        if c.antecedent is None:
            clauses.extend(cons_lits)
        else:
            aa, ab = c.antecedent
            guard = (-((aa - 1) * size + ab), (ab - 1) * size + aa)
            for lits in cons_lits:
                clauses.append(guard + lits)
    return clauses


def encode_ranksets(
    u: Universe, axioms, relation_class: RelationClass = RelationClass.LINEAR_ORDER
) -> Cnf:
    """CNF with one variable per ordered subset pair (A,B) for geq(A,B)."""
    clauses = _class_clauses(u, relation_class)
    for ax in dict.fromkeys(axioms):
        clauses.extend(_axiom_clauses(u, ground_axiom(u, ax)))
    # distinct already: no two constraints ground to the same clause
    ordered = sorted(tuple(sorted(cl, key=abs)) for cl in clauses)
    return Cnf(((1 << u.m) - 1) ** 2, tuple(ordered))


def var_names(u: Universe) -> dict[int, str]:
    """The name of each geq atom of an encoding over u."""
    masks = list(u.subsets())
    return {_var(u, a, b): f"geq({u.subset_name(a)},{u.subset_name(b)})" for a in masks for b in masks}


def _guarded_solver(u: Universe, grounded, relation_class: RelationClass) -> Solver:
    """One solver for every axiom subset at one universe size.

    `grounded` holds the catalog's axioms grounded on u, in catalog order.
    Axiom k of the catalog gets the selector variable numbered k after the
    geq atoms, and each of its clauses is guarded as (-selector, *clause).
    """
    atoms = ((1 << u.m) - 1) ** 2
    guarded = ((-(atoms + k), *c) for k, g in enumerate(grounded, 1) for c in _axiom_clauses(u, g))
    return Solver(Cnf(atoms + len(grounded), (*_class_clauses(u, relation_class), *guarded)))


def _solve_subset(solver: Solver, subset) -> SolveResult:
    """The subset's axioms switched on and the rest of the catalog off.

    The selectors come after every geq atom, so the geq part of the model
    is the one a fresh solve of encode_ranksets would return.
    """
    atoms = solver.num_vars - len(CATALOG)
    return solver.solve([atoms + k if ax in subset else -(atoms + k) for k, ax in enumerate(CATALOG, 1)])


def decode_ranksets(
    u: Universe, model: dict[int, bool], relation_class: RelationClass, grounded=()
) -> SetRelation:
    """Read the geq atoms out of a model; must yield a relation of the class
    that meets each axiom in grounded, each grounded on u."""
    masks = list(u.subsets())
    geq = tuple(tuple(model[_var(u, a, b)] for b in masks) for a in masks)
    try:
        rel = SetRelation(u, geq, relation_class)
    except ValueError as e:
        raise RuntimeError(f"encoder bug: model decodes to an invalid relation ({e})") from e
    if not all(check_grounded(rel, g).holds for g in grounded):
        raise RuntimeError("decoded model fails an enabled axiom; encoder bug")
    return rel


@dataclass(frozen=True)
class SubsetFinding:
    axioms: tuple[Axiom, ...]
    statuses: dict[int, str]  # m -> "sat" | "unsat"
    minimal_unsat_m: int | None
    witness: SetRelation | None = None  # model at the largest satisfiable m


def find_inconsistent_subsets(
    u_max: int, relation_class: RelationClass = RelationClass.LINEAR_ORDER
) -> tuple[SubsetFinding, ...]:
    """Minimal universe size at which each nonempty subset of the catalog
    becomes unsatisfiable.

    Subsets are taken in order, smallest first, in-process, on one solver
    per universe size whose axiom clauses are switched on and off by
    assumptions.  One dict holds the witness of each cell (subset S, size
    m), None where S is unsat at m; the empty subset's cells come first.

    A cell is answered without a solve when the witness of some S - {ax}
    at m passes check_grounded for ax; only otherwise is S solved.  That
    is exact because of how the witnesses are chosen: every Sat answer of
    the solver is the lexicographically greatest model over the geq atoms
    (the selectors are numbered after them), and the greatest model of F,
    if it satisfies G, is also the greatest model of F and G.  So the
    reused witness is the one a solve of S would return, and each report
    is what solving every cell gives.  The reuse depends on that canonical
    choice of model: a solver that may return any model, such as a
    heuristic CDCL answering bare verdicts, must not back these witnesses.
    Every witness passes check_grounded on every axiom of its subset: a
    solved one in decode_ranksets, and a reused one here for ax and, when
    the witness of S - {ax} was made, for the other axioms.
    """
    sizes = range(2, Universe(u_max).m + 1)  # Universe refuses a u_max outside its range
    grounded = {m: {ax: ground_axiom(Universe(m), ax) for ax in CATALOG} for m in sizes}
    solvers = {m: _guarded_solver(Universe(m), grounded[m].values(), relation_class) for m in sizes}
    witness: dict[tuple[frozenset[Axiom], int], SetRelation | None] = {}
    findings: list[SubsetFinding] = []
    for subset in (s for r in range(len(CATALOG) + 1) for s in itertools.combinations(CATALOG, r)):
        key = frozenset(subset)
        for m in sizes:
            for ax in subset:
                w = witness[key - {ax}, m]
                if w is not None and check_grounded(w, grounded[m][ax]).holds:
                    break
            else:
                res = _solve_subset(solvers[m], subset)
                axioms = [grounded[m][ax] for ax in subset]
                w = decode_ranksets(Universe(m), res.assignment, relation_class, axioms) if res.satisfiable else None
            witness[key, m] = w
        if subset:
            statuses = {m: "sat" if witness[key, m] is not None else "unsat" for m in sizes}
            unsat = [m for m in sizes if witness[key, m] is None]
            sat = [witness[key, m] for m in sizes if witness[key, m] is not None]
            findings.append(SubsetFinding(subset, statuses, unsat[0] if unsat else None, sat[-1] if sat else None))
    return tuple(findings)


def relation_to_json(rel: SetRelation) -> dict:
    masks = list(rel.universe.subsets())
    return {
        "m": rel.universe.m,
        "class": rel.relation_class.value,
        "subsets": [rel.universe.subset_name(a) for a in masks],
        "geq_rows": ["".join("1" if v else "0" for v in row) for row in rel.geq],
    }
