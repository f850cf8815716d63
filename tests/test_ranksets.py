import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from implab.ranksets import (
    CATALOG,
    Axiom,
    GroundConstraint,
    RelationClass,
    SetRelation,
    SubsetFinding,
    Universe,
    _axiom_clauses,
    _class_clauses,
    _guarded_solver,
    _solve_subset,
    _var,
    check_relation,
    class_violation,
    decode_ranksets,
    encode_ranksets,
    find_inconsistent_subsets,
    ground_axiom,
    minmax_relation,
    relation_to_json,
    strongest_class,
)
from implab.satkit import Cnf, Solver, enumerate_models, solve, to_dimacs

GOLDEN = Path(__file__).parent / "golden"

FOUR_AXIOMS = (
    Axiom.SIMPLE_DOMINANCE,
    Axiom.INDEPENDENCE,
    Axiom.UNCERTAINTY_AVERSION,
    Axiom.SIMPLE_TOP_MONOTONICITY,
)


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(1)
    with pytest.raises(ValueError):
        Universe(7)


def test_universe_defaults_to_identity_base_order():
    u = Universe(3)
    assert u.subset_name(0b101) == "{a,c}"


def test_minmax_prefers_middle_singleton_to_outer_pair():
    # with a>b>c: worst of {b} is b, worst of {a,c} is c
    rel = minmax_relation(Universe(3))
    assert rel.strict(0b010, 0b101)


def test_minmax_is_reflexive():
    rel = minmax_relation(Universe(4))
    for mask in rel.universe.subsets():
        assert rel.geq_at(mask, mask)


def test_minmax_m4_matrix_matches_golden_and_formula_oracle():
    golden = json.loads((GOLDEN / "minmax_m4.json").read_text())
    rel = minmax_relation(Universe(4))
    assert relation_to_json(rel)["geq_rows"] == golden["geq_rows"]
    # independent recompute straight from the displayed definition
    pos = {x: x for x in range(4)}
    masks = list(range(1, 16))
    for a in masks:
        for b in masks:
            wa = max(pos[x] for x in range(4) if a >> x & 1)
            ba = min(pos[x] for x in range(4) if a >> x & 1)
            wb = max(pos[x] for x in range(4) if b >> x & 1)
            bb = min(pos[x] for x in range(4) if b >> x & 1)
            want = wa < wb or (wa == wb and ba <= bb)
            assert rel.geq_at(a, b) == want


def test_minmax_total_transitive_everywhere_antisymmetric_only_at_m2():
    # distinct sets sharing worst and best are tied, so antisymmetry fails
    # from m=3 on ({a,c} vs {a,b,c}); the relation is a weak order there
    assert minmax_relation(Universe(2)).relation_class is RelationClass.LINEAR_ORDER
    for m in (3, 4, 5):
        rel = minmax_relation(Universe(m))
        assert class_violation(rel.geq, RelationClass.WEAK_ORDER) is None
        assert rel.relation_class is RelationClass.WEAK_ORDER
        assert rel.geq_at(0b101, 0b111) and rel.geq_at(0b111, 0b101)


def test_ground_dominance_m2():
    g = ground_axiom(Universe(2), Axiom.SIMPLE_DOMINANCE)
    assert g  # not vacuous
    assert [(c.consequent, c.strict) for c in g] == [
        ((0b01, 0b11), True),
        ((0b11, 0b10), True),
    ]


def test_ground_aversion_m3_single_instance():
    g = ground_axiom(Universe(3), Axiom.UNCERTAINTY_AVERSION)
    assert len(g) == 1
    c = g[0]
    assert c.consequent == (0b010, 0b101) and c.strict and c.antecedent is None


def test_aversion_and_appeal_ground_to_directly_contradictory_pair():
    u = Universe(3)
    av = ground_axiom(u, Axiom.UNCERTAINTY_AVERSION)[0]
    ap = ground_axiom(u, Axiom.UNCERTAINTY_APPEAL)[0]
    assert av.consequent == (ap.consequent[1], ap.consequent[0])


def test_vacuous_axioms_at_m2():
    u = Universe(2)
    for ax in (Axiom.UNCERTAINTY_AVERSION, Axiom.UNCERTAINTY_APPEAL, Axiom.SIMPLE_TOP_MONOTONICITY):
        assert ground_axiom(u, ax) == ()
        assert check_relation(minmax_relation(u), ax).vacuous


def test_ground_axiom_refuses_an_unknown_axiom():
    with pytest.raises(ValueError, match="unknown axiom dominance"):
        ground_axiom(Universe(3), "dominance")


def test_ground_axiom_output_is_sorted():
    for m in (3, 4):
        for ax in CATALOG:
            cs = ground_axiom(Universe(m), ax)
            assert list(cs) == sorted(cs, key=GroundConstraint.sort_key)


def test_minmax_passes_dominance_aversion_topmono_up_to_m5():
    for m in (2, 3, 4, 5):
        rel = minmax_relation(Universe(m))
        for ax in (Axiom.SIMPLE_DOMINANCE, Axiom.UNCERTAINTY_AVERSION, Axiom.SIMPLE_TOP_MONOTONICITY):
            assert check_relation(rel, ax).holds, (m, ax)


def test_minmax_independence_violation_first_appears_at_m4():
    assert check_relation(minmax_relation(Universe(3)), Axiom.INDEPENDENCE).holds
    chk = check_relation(minmax_relation(Universe(4)), Axiom.INDEPENDENCE)
    assert not chk.holds
    # frozen canonical-first witness: {b} > {a,c} but not {b,d} >= {a,c,d}
    assert chk.violation.antecedent == (0b0010, 0b0101)
    assert chk.violation.consequent == (0b1010, 0b1101)
    assert chk.violation.describe(Universe(4)) == "{b} > {a,c} implies {b,d} >= {a,c,d}"


def test_minmax_independence_witness_is_canonically_first_by_oracle():
    u = Universe(4)
    rel = minmax_relation(u)
    violated = []
    for c in ground_axiom(u, Axiom.INDEPENDENCE):
        a, b = c.antecedent
        if rel.strict(a, b) and not rel.geq_at(*c.consequent):
            violated.append(c)
    assert violated, "oracle must find the known violation"
    chk = check_relation(rel, Axiom.INDEPENDENCE)
    assert chk.violation == min(violated, key=GroundConstraint.sort_key)


def test_encode_ranksets_m4_dimensions():
    cnf = encode_ranksets(Universe(4), FOUR_AXIOMS, RelationClass.LINEAR_ORDER)
    assert cnf.num_vars == 15 * 15
    transitivity_like = [c for c in cnf.clauses if len(c) == 3 and all(l < 0 for l in c[:2])]
    assert len(transitivity_like) <= 15**3


def test_encode_ranksets_emits_each_clause_once():
    # encode_ranksets sorts its clauses without dropping duplicates; with the
    # whole catalog this covers every axiom subset, whose clauses are a sublist
    for m in range(2, 6):
        for cls in RelationClass:
            clauses = encode_ranksets(Universe(m), CATALOG, cls).clauses
            assert len(set(clauses)) == len(clauses), (m, cls)


def test_four_axioms_unsat_at_m4_under_linear_order():
    cnf = encode_ranksets(Universe(4), FOUR_AXIOMS, RelationClass.LINEAR_ORDER)
    assert not solve(cnf).satisfiable


def test_four_axioms_unsat_at_m4_even_without_totality():
    # matches the stronger reading: no transitive relation at all supports
    # the four axioms on four objects
    cnf = encode_ranksets(Universe(4), FOUR_AXIOMS, RelationClass.TRANSITIVE)
    assert not solve(cnf).satisfiable


def test_four_axioms_class_by_class_minimal_m():
    # solver-determined verdicts, frozen: antisymmetry alone already clashes
    # with dominance+independence at m=3, so the linear-order minimum is 3;
    # without it the four axioms first clash at m=4
    for cls, expected in (
        (RelationClass.TRANSITIVE, {2: True, 3: True, 4: False}),
        (RelationClass.WEAK_ORDER, {2: True, 3: True, 4: False}),
        (RelationClass.LINEAR_ORDER, {2: True, 3: False, 4: False}),
    ):
        for m, sat in expected.items():
            assert solve(encode_ranksets(Universe(m), FOUR_AXIOMS, cls)).satisfiable == sat, (cls, m)


def test_dominance_plus_independence_alone_clash_with_antisymmetry_at_m3():
    axs = (Axiom.SIMPLE_DOMINANCE, Axiom.INDEPENDENCE)
    assert not solve(encode_ranksets(Universe(3), axs, RelationClass.LINEAR_ORDER)).satisfiable
    assert solve(encode_ranksets(Universe(3), axs, RelationClass.WEAK_ORDER)).satisfiable


def test_aversion_plus_appeal_unsat_at_m3_under_bare_transitivity():
    cnf = encode_ranksets(
        Universe(3), (Axiom.UNCERTAINTY_AVERSION, Axiom.UNCERTAINTY_APPEAL), RelationClass.TRANSITIVE
    )
    assert not solve(cnf).satisfiable


def test_sat_models_decode_and_verify():
    for axioms, cls, m in (
        ((Axiom.SIMPLE_DOMINANCE,), RelationClass.LINEAR_ORDER, 3),
        ((Axiom.SIMPLE_DOMINANCE,), RelationClass.LINEAR_ORDER, 4),
        (FOUR_AXIOMS, RelationClass.WEAK_ORDER, 3),
        ((Axiom.SIMPLE_DOMINANCE, Axiom.UNCERTAINTY_AVERSION), RelationClass.WEAK_ORDER, 4),
    ):
        u = Universe(m)
        res = solve(encode_ranksets(u, axioms, cls))
        assert res.satisfiable
        rel = decode_ranksets(u, res.assignment, cls)  # validates the class
        for ax in axioms:
            assert check_relation(rel, ax).holds, (axioms, cls, m, ax)


def test_decode_rejects_relation_outside_declared_class():
    u = Universe(2)
    res = solve(encode_ranksets(u, (), RelationClass.TRANSITIVE))
    size = (1 << u.m) - 1
    # an all-false matrix is transitive but not total
    model = {v: False for v in range(1, size * size + 1)}
    assert decode_ranksets(u, model, RelationClass.TRANSITIVE) is not None
    with pytest.raises(RuntimeError, match="totality"):
        decode_ranksets(u, model, RelationClass.WEAK_ORDER)
    # and outside an axiom it is given grounded: no {x} > {x,y} holds
    with pytest.raises(RuntimeError, match="^decoded model fails an enabled axiom; encoder bug$"):
        decode_ranksets(u, model, RelationClass.TRANSITIVE, [ground_axiom(u, Axiom.SIMPLE_DOMINANCE)])
    assert res.satisfiable


def test_minmax_is_a_model_of_dominance_aversion_topmono():
    # exhibits satisfiability constructively, independently of the solver
    rel = minmax_relation(Universe(4))
    for ax in (Axiom.SIMPLE_DOMINANCE, Axiom.UNCERTAINTY_AVERSION, Axiom.SIMPLE_TOP_MONOTONICITY):
        assert check_relation(rel, ax).holds


def findings_within(report, axioms) -> tuple[SubsetFinding, ...]:
    """The findings of the report on the subsets of axioms: what a search
    over those axioms alone would report."""
    return tuple(f for f in report if set(f.axioms) <= set(axioms))


def test_find_inconsistent_subsets_aversion_appeal_minimal_m3():
    report = findings_within(
        find_inconsistent_subsets(3, relation_class=RelationClass.TRANSITIVE),
        (Axiom.UNCERTAINTY_AVERSION, Axiom.UNCERTAINTY_APPEAL),
    )
    assert len(report) == 3
    by_axioms = {f.axioms: f for f in report}
    pair = by_axioms[(Axiom.UNCERTAINTY_AVERSION, Axiom.UNCERTAINTY_APPEAL)]
    assert pair.statuses == {2: "sat", 3: "unsat"}  # vacuous at m=2
    assert pair.minimal_unsat_m == 3
    for single in ((Axiom.UNCERTAINTY_AVERSION,), (Axiom.UNCERTAINTY_APPEAL,)):
        assert by_axioms[single].minimal_unsat_m is None


def test_find_inconsistent_subsets_full_catalog_monotone_at_m_le_4():
    report = find_inconsistent_subsets(4, relation_class=RelationClass.LINEAR_ORDER)
    assert len(report) == 31
    status = {frozenset(f.axioms): f.statuses for f in report}
    for sub, stats in status.items():
        for sup, sup_stats in status.items():
            if sub < sup:
                for m in stats:
                    if stats[m] == "unsat":
                        assert sup_stats[m] == "unsat", (sub, sup, m)


def test_find_inconsistent_four_axioms_minimums_per_class():
    lin = findings_within(find_inconsistent_subsets(4, relation_class=RelationClass.LINEAR_ORDER), FOUR_AXIOMS)
    tra = findings_within(find_inconsistent_subsets(4, relation_class=RelationClass.TRANSITIVE), FOUR_AXIOMS)
    lin_all = next(f for f in lin if f.axioms == FOUR_AXIOMS)
    tra_all = next(f for f in tra if f.axioms == FOUR_AXIOMS)
    assert lin_all.minimal_unsat_m == 3
    assert tra_all.minimal_unsat_m == 4
    dom = next(f for f in tra if f.axioms == (Axiom.SIMPLE_DOMINANCE,))
    assert dom.minimal_unsat_m is None  # consistent up to u_max
    assert dom.witness is not None


def test_vacuous_only_subsets_are_sat_at_m2():
    report = findings_within(
        find_inconsistent_subsets(2, relation_class=RelationClass.LINEAR_ORDER),
        (Axiom.SIMPLE_DOMINANCE, Axiom.UNCERTAINTY_AVERSION, Axiom.SIMPLE_TOP_MONOTONICITY),
    )
    assert len(report) == 7
    for f in report:
        assert f.statuses[2] == "sat", f.axioms


def test_guarded_solver_answers_every_subset_like_a_fresh_encoding():
    subsets = [s for r in range(1, 6) for s in itertools.combinations(CATALOG, r)]
    for cls in RelationClass:
        for m in (2, 3, 4):
            u = Universe(m)
            solver = _guarded_solver(u, [ground_axiom(u, ax) for ax in CATALOG], cls)
            for subset in subsets:
                guarded = _solve_subset(solver, subset)
                fresh = solve(encode_ranksets(u, subset, cls))
                assert guarded.satisfiable == fresh.satisfiable, (cls, m, subset)
                if fresh.satisfiable:
                    assert decode_ranksets(u, guarded.assignment, cls) == decode_ranksets(
                        u, fresh.assignment, cls
                    ), (cls, m, subset)


def _full_transitivity_linear_clauses(u: Universe) -> list[tuple[int, ...]]:
    """Linear-order class clauses with one transitivity clause per ordered
    triple, the encoding the 3-cycle clauses replace."""
    masks = list(u.subsets())
    clauses = [
        (-_var(u, a, b), -_var(u, b, c), _var(u, a, c))
        for a in masks
        for b in masks
        for c in masks
        if a != b and c != b
    ]
    for a in masks:
        for b in masks:
            if a < b:
                clauses.append((_var(u, a, b), _var(u, b, a)))
                clauses.append((-_var(u, a, b), -_var(u, b, a)))
            elif a == b:
                clauses.append((_var(u, a, a),))
    return clauses


def test_linear_3cycle_clauses_have_the_full_transitivity_models_in_order():
    u = Universe(3)
    atoms = 7 * 7
    cycles = enumerate_models(Cnf(atoms, _class_clauses(u, RelationClass.LINEAR_ORDER)))
    full = enumerate_models(Cnf(atoms, _full_transitivity_linear_clauses(u)))
    assert len(full.models) == 5040  # 7! linear orders of the nonempty subsets
    assert cycles.models == full.models
    assert not cycles.truncated and not full.truncated


def test_linear_guarded_solver_matches_the_full_transitivity_encoding():
    subsets = [s for r in range(1, 6) for s in itertools.combinations(CATALOG, r)]
    cls = RelationClass.LINEAR_ORDER
    for m in (2, 3, 4):
        u = Universe(m)
        solver = _guarded_solver(u, [ground_axiom(u, ax) for ax in CATALOG], cls)
        oracle_class = _full_transitivity_linear_clauses(u)
        for subset in subsets:
            guarded = _solve_subset(solver, subset)
            clauses = oracle_class + [c for ax in subset for c in _var_axiom_clauses(u, ax)]
            oracle = solve(Cnf(((1 << m) - 1) ** 2, clauses))
            assert guarded.satisfiable == oracle.satisfiable, (m, subset)
            if oracle.satisfiable:
                assert decode_ranksets(u, guarded.assignment, cls) == decode_ranksets(
                    u, oracle.assignment, cls
                ), (m, subset)


def test_encoding_bytes_are_pinned():
    dimacs = to_dimacs(encode_ranksets(Universe(4), CATALOG, RelationClass.LINEAR_ORDER))
    assert (
        hashlib.sha256(dimacs.encode()).hexdigest()
        == "ef291975baaea4e584afc635b9ecd94c72e41d60bb9baefeb5493fdaf55c7a94"
    )


def test_set_relation_validates_matrix_shape():
    with pytest.raises(ValueError, match="matrix"):
        SetRelation(Universe(2), ((True,),), RelationClass.TRANSITIVE)


def test_strongest_class_rejects_intransitive():
    geq = (
        (True, True, False),
        (False, True, True),
        (False, False, True),
    )
    with pytest.raises(ValueError, match="not even transitive"):
        strongest_class(geq)


def test_encoding_budget_and_u_max_guard():
    with pytest.raises(ValueError):
        find_inconsistent_subsets(7)
    with pytest.raises(ValueError):
        find_inconsistent_subsets(1)


def _var_class_clauses(u: Universe, relation_class: RelationClass) -> list[tuple[int, ...]]:
    """The class clauses built through _var, the reference for the inline indices."""
    clauses: list[tuple[int, ...]] = []
    masks = list(u.subsets())
    if relation_class is RelationClass.LINEAR_ORDER:
        for a, b, c in itertools.combinations(masks, 3):
            clauses.append((-_var(u, a, b), -_var(u, b, c), -_var(u, c, a)))
            clauses.append((-_var(u, a, c), -_var(u, c, b), -_var(u, b, a)))
    else:
        for a in masks:
            for b in masks:
                if a == b:
                    continue
                for c in masks:
                    if c == b:
                        continue
                    clauses.append((-_var(u, a, b), -_var(u, b, c), _var(u, a, c)))
    if relation_class in (RelationClass.WEAK_ORDER, RelationClass.LINEAR_ORDER):
        for a in masks:
            for b in masks:
                if a < b:
                    clauses.append((_var(u, a, b), _var(u, b, a)))
                elif a == b:
                    clauses.append((_var(u, a, a),))
    if relation_class is RelationClass.LINEAR_ORDER:
        for a in masks:
            for b in masks:
                if a < b:
                    clauses.append((-_var(u, a, b), -_var(u, b, a)))
    return clauses


def _var_axiom_clauses(u: Universe, ax: Axiom) -> list[tuple[int, ...]]:
    """One axiom's clauses built through _var, the reference for the inline indices."""
    clauses: list[tuple[int, ...]] = []
    for c in ground_axiom(u, ax):
        ca, cb = c.consequent
        cons_lits = [(_var(u, ca, cb),)]
        if c.strict:
            cons_lits.append((-_var(u, cb, ca),))
        if c.antecedent is None:
            clauses.extend(cons_lits)
        else:
            aa, ab = c.antecedent
            guard = (-_var(u, aa, ab), _var(u, ab, aa))
            for lits in cons_lits:
                clauses.append(guard + lits)
    return clauses


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_inline_atom_indices_give_the_var_built_clause_lists(m):
    u = Universe(m)
    for cls in RelationClass:
        assert _class_clauses(u, cls) == _var_class_clauses(u, cls), cls
    for ax in CATALOG:
        assert _axiom_clauses(u, ground_axiom(u, ax)) == _var_axiom_clauses(u, ax), ax


def _loop_class_violation(geq, relation_class: RelationClass) -> str | None:
    """class_violation as a triple loop over the matrix, the reference for the bitmasks."""
    size = len(geq)
    for a in range(size):
        for b in range(size):
            if not geq[a][b]:
                continue
            for c in range(size):
                if geq[b][c] and not geq[a][c]:
                    return f"transitivity fails at ({a + 1},{b + 1},{c + 1})"
    if relation_class is RelationClass.TRANSITIVE:
        return None
    for a in range(size):
        for b in range(a, size):
            if not geq[a][b] and not geq[b][a]:
                return f"totality fails at ({a + 1},{b + 1})"
    if relation_class is RelationClass.WEAK_ORDER:
        return None
    for a in range(size):
        for b in range(a + 1, size):
            if geq[a][b] and geq[b][a]:
                return f"antisymmetry fails at ({a + 1},{b + 1})"
    return None


def _random_relation(rng: random.Random) -> list[list[bool]]:
    """A random matrix, weak order, linear order or product order, with up to
    two entries flipped, so every branch of class_violation is reached."""
    size = rng.randint(1, 12)
    kind = rng.randrange(4)
    if kind == 0:
        geq = [[rng.random() < 0.5 for _ in range(size)] for _ in range(size)]
    elif kind == 3:
        pts = [(rng.randrange(3), rng.randrange(3)) for _ in range(size)]
        geq = [[p[0] <= q[0] and p[1] <= q[1] for q in pts] for p in pts]
    else:
        score = [rng.randrange(3 if kind == 1 else 10**6) for _ in range(size)]
        geq = [[sa <= sb for sb in score] for sa in score]
    for _ in range(rng.randrange(3)):
        a, b = rng.randrange(size), rng.randrange(size)
        geq[a][b] = not geq[a][b]
    return geq


def test_class_violation_matches_the_triple_loop_on_random_relations():
    rng = random.Random(20111)
    kinds = set()
    for _ in range(3000):
        geq = _random_relation(rng)
        for cls in RelationClass:
            got = class_violation(geq, cls)
            assert got == _loop_class_violation(geq, cls), (geq, cls)
            kinds.add(got.split()[0] if got else None)
    assert kinds == {"transitivity", "totality", "antisymmetry", None}


def _solve_every_cell(u_max, relation_class) -> tuple[SubsetFinding, ...]:
    """find_inconsistent_subsets with one solve per (subset, size) cell: the
    reference for the search that takes witnesses from smaller subsets."""
    subsets = [s for r in range(1, len(CATALOG) + 1) for s in itertools.combinations(CATALOG, r)]
    solvers = {}
    findings = []
    for subset in subsets:
        statuses, minimal, witness = {}, None, None
        for m in range(2, u_max + 1):
            u = Universe(m)
            if m not in solvers:
                solvers[m] = _guarded_solver(u, [ground_axiom(u, ax) for ax in CATALOG], relation_class)
            res = _solve_subset(solvers[m], subset)
            statuses[m] = "sat" if res.satisfiable else "unsat"
            if res.satisfiable:
                witness = decode_ranksets(u, res.assignment, relation_class)
            elif minimal is None:
                minimal = m
        findings.append(SubsetFinding(subset, statuses, minimal, witness=witness))
    return tuple(findings)


@pytest.mark.parametrize("cls", list(RelationClass), ids=lambda c: c.value)
def test_discover_reports_equal_solving_every_cell(cls):
    for u_max in (2, 3, 4, 5):
        want = _solve_every_cell(u_max, cls)
        assert find_inconsistent_subsets(u_max, relation_class=cls) == want, u_max


@pytest.mark.parametrize(
    "cls, solves",
    [(RelationClass.LINEAR_ORDER, 60), (RelationClass.WEAK_ORDER, 73), (RelationClass.TRANSITIVE, 73)],
    ids=lambda v: getattr(v, "value", v),
)
def test_discover_solves_only_cells_no_smaller_witness_answers(monkeypatch, cls, solves):
    # 124 cells (31 subsets x m = 2..5) when every cell is solved
    calls = []
    solve_ = Solver.solve

    def counting(self, assumptions=()):
        calls.append(assumptions)
        return solve_(self, assumptions)

    monkeypatch.setattr(Solver, "solve", counting)
    find_inconsistent_subsets(5, relation_class=cls)
    assert len(calls) == solves
