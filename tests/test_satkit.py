import ast
import dataclasses
import hashlib
import itertools
import random
import re
from pathlib import Path

import pytest

from implab import satkit, swf
from implab.orders import all_linear_orders
from implab.ranksets import CATALOG, RelationClass, Universe, _guarded_solver, encode_ranksets, ground_axiom
from implab.satkit import Cnf, SolveResult, Solver, enumerate_models, from_dimacs, solve, to_dimacs
from implab.swf import (
    DICTATORIAL,
    ND,
    UN,
    SwfClass,
    classify,
    decode_model,
    encode_arrow,
    entry_var,
    enumerate_iia_swfs,
    satisfies_unanimity,
)

GOLDEN = Path(__file__).parent / "golden"


def brute_force_sat(num_vars: int, clauses) -> bool:
    """Truth-table oracle: one bit per assignment, packed into a big int."""
    total = 1 << num_vars
    full = (1 << total) - 1

    def var_mask(v: int) -> int:
        period = 1 << v
        half = 1 << (v - 1)
        block = ((1 << half) - 1) << half
        reps = full // ((1 << period) - 1)
        return block * reps

    formula = full
    for c in clauses:
        cm = 0
        for lit in c:
            m = var_mask(abs(lit))
            cm |= m if lit > 0 else (~m & full)
        formula &= cm
    return formula != 0


def random_3cnf(rng: random.Random) -> Cnf:
    num_vars = rng.randint(3, 12)
    num_clauses = rng.randint(1, 5 * num_vars)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf(num_vars, tuple(clauses))


def random_short_cnf(rng: random.Random) -> Cnf:
    """Clauses of 1 to 3 literals over few variables, each literal drawn on
    its own, so that unit clauses such as (x) and (x, x) occur."""
    num_vars = rng.randint(1, 8)
    clauses = []
    for _ in range(rng.randint(1, 2 * num_vars)):
        vs = rng.choices(range(1, num_vars + 1), k=rng.randint(1, 3))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf(num_vars, tuple(clauses))


def unit_literals(cnf: Cnf) -> list[int]:
    """The literal of each clause of one distinct literal."""
    return [c[0] for c in cnf.clauses if len(set(c)) == 1]


def truth_table(cnf: Cnf, assumptions=()) -> list[dict[int, bool]]:
    """Every model of cnf that makes each assumption literal true, found by
    trying every assignment, in lexicographically descending order."""
    n = cnf.num_vars
    clauses = cnf.clauses + tuple((lit,) for lit in assumptions)
    models = (dict(zip(range(1, n + 1), bits)) for bits in itertools.product((True, False), repeat=n))
    return [m for m in models if all(any(m[abs(lit)] == (lit > 0) for lit in c) for c in clauses)]


def reference_dpll(cnf: Cnf, assumptions=()) -> SolveResult:
    """DPLL with no watches: each round of propagation rescans every clause
    for a conflict or a unit, and each decision takes the lowest unassigned
    variable, true first."""
    clauses = cnf.clauses + tuple((lit,) for lit in assumptions)

    def closure(assignment: dict[int, bool]) -> dict[int, bool] | None:
        while True:
            units = set()
            for c in clauses:
                if any(assignment.get(abs(lit)) == (lit > 0) for lit in c):
                    continue
                free = {lit for lit in c if abs(lit) not in assignment}
                if not free:
                    return None
                if len(free) == 1:
                    units |= free
            if not units:
                return assignment
            if any(-lit in units for lit in units):
                return None
            assignment.update((abs(lit), lit > 0) for lit in units)

    def search(assignment: dict[int, bool]) -> dict[int, bool] | None:
        assignment = closure(assignment)
        if assignment is None:
            return None
        var = next((v for v in range(1, cnf.num_vars + 1) if v not in assignment), None)
        if var is None:
            return assignment
        return search({**assignment, var: True}) or search({**assignment, var: False})

    model = search({})
    return SolveResult(True, model) if model is not None else SolveResult(False)


def oracle_corpus() -> list[Cnf]:
    """Every ranksets CNF at m = 2 and 3 under each class and catalog
    subset, and the Arrow base case at n = 1 and 2 under each axiom set."""
    subsets = [s for r in range(len(CATALOG) + 1) for s in itertools.combinations(CATALOG, r)]
    assert len(subsets) == 32
    ranksets = [encode_ranksets(Universe(m), s, cls) for m in (2, 3) for cls in RelationClass for s in subsets]
    axiom_sets = [set(a) for r in range(3) for a in itertools.combinations((UN, ND), r)]
    arrow = [encode_arrow(n, axioms) for n in (1, 2) for axioms in axiom_sets]
    return ranksets + arrow


def test_solve_equivalence_formula():
    # (not p or q) and (p or not q): satisfiable exactly when p == q
    res = solve(Cnf(2, ((-1, 2), (1, -2))))
    assert res.satisfiable
    assert res.assignment[1] == res.assignment[2]


def test_solve_direct_contradiction():
    assert not solve(Cnf(1, ((1,), (-1,)))).satisfiable


def test_solve_wins_or_pays_nothing_formula():
    # (w1 or not p1) and (w2 or not p2) and (w3 or not p3), vars w_i=2i-1, p_i=2i
    cnf = Cnf(6, ((1, -2), (3, -4), (5, -6)))
    res = solve(cnf)
    assert res.satisfiable
    # the stated assignment (w1=p1=true, rest false) is a model
    stated = {1: True, 2: True, 3: False, 4: False, 5: False, 6: False}
    assert all(any(stated[abs(l)] == (l > 0) for l in c) for c in cnf.clauses)


def test_solve_empty_clause_list_is_sat_all_true():
    res = solve(Cnf(3, ()))
    assert res.satisfiable
    assert res.assignment == {1: True, 2: True, 3: True}
    # enumeration lists every assignment, greatest first, so its first model is solve's
    run = enumerate_models(Cnf(2, ()))
    assert [(m[1], m[2]) for m in run.models] == [(True, True), (True, False), (False, True), (False, False)]
    assert not run.truncated


def test_solve_model_is_total_and_satisfying():
    cnf = Cnf(4, ((1, 2), (-1, 3), (-3, -2, 4)))
    res = solve(cnf)
    assert set(res.assignment) == {1, 2, 3, 4}
    assert all(any(res.assignment[abs(l)] == (l > 0) for l in c) for c in cnf.clauses)


def test_solve_is_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        cnf = random_3cnf(rng)
        assert solve(cnf) == solve(cnf)


def test_solve_agrees_with_truth_table_oracle_on_random_cnfs():
    rng = random.Random(12345)
    for _ in range(300):
        cnf = random_3cnf(rng)
        assert solve(cnf).satisfiable == brute_force_sat(cnf.num_vars, cnf.clauses)


def test_solve_handles_duplicate_literals_and_tautologies():
    assert solve(Cnf(2, ((1, 1, -2), (-1, 1), (2, 2)))).satisfiable
    assert not solve(Cnf(2, ((1, 1), (-1, -1), (2, -2)))).satisfiable
    # a repeated first literal must not make (1, 1, 2) a unit clause
    assert solve(Cnf(2, ((1, 1, 2), (-1,)))).assignment == {1: False, 2: True}
    assert len(enumerate_models(Cnf(2, ((1, 1, 2), (2, 1, 2)))).models) == 3


def test_cnf_validation():
    with pytest.raises(ValueError, match="empty clause"):
        Cnf(2, ((),))
    with pytest.raises(ValueError, match="empty clause"):
        Cnf(2, ((1, 2), ()))
    with pytest.raises(ValueError, match="exceeds"):
        Cnf(1, ((2,),))
    with pytest.raises(ValueError, match="exceeds"):
        Cnf(2, ((1, 2), (-3,)))
    with pytest.raises(ValueError, match="terminator"):
        Cnf(1, ((0,),))
    with pytest.raises(ValueError, match="terminator"):
        Cnf(2, ((1, 2), (1, 0)))
    with pytest.raises(ValueError, match="non-negative"):
        Cnf(-1, ())


@pytest.fixture
def cnf_checks(monkeypatch):
    """Record each formula that satkit checks, by wrapping Cnf's check."""
    checked = []
    check = Cnf.__post_init__

    def recording(cnf):
        checked.append(cnf)
        check(cnf)

    monkeypatch.setattr(Cnf, "__post_init__", recording)
    return checked


# clauses over 2 variables, each with the message that names its first bad clause or literal
BAD_CLAUSES = [
    (((1, 2), (-3, 1)), "literal -3 exceeds declared 2 variable(s)"),
    (((1, 3, 0),), "literal 3 exceeds declared 2 variable(s)"),
    (((1, 0, 3),), "literal 0 is reserved as the clause terminator"),
    (((1,), (), (3,)), "empty clause not allowed at construction"),
    (((-1, 3), ()), "literal 3 exceeds declared 2 variable(s)"),
    (((1, 2), (2, -1, -5, 7)), "literal -5 exceeds declared 2 variable(s)"),
]


@pytest.mark.parametrize("run", [solve, enumerate_models], ids=["solve", "enumerate_models"])
def test_each_literal_is_checked_once_on_the_cnf_path(cnf_checks, run):
    base = encode_arrow(2)
    cnf_checks.clear()
    cnf = Cnf(base.num_vars, base.clauses)
    assert cnf_checks == [cnf]
    run(cnf)  # the solver takes the checked clauses as they are
    assert cnf_checks == [cnf]
    for clauses, message in BAD_CLAUSES:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(Cnf(2, clauses))


def test_each_literal_is_checked_once_by_the_guarded_solver(cnf_checks):
    u = Universe(4)
    grounded = [ground_axiom(u, ax) for ax in CATALOG]
    for cls in RelationClass:
        cnf_checks.clear()
        solver = _guarded_solver(u, grounded, cls)
        assert len(cnf_checks) == 1
        assert solver.clauses is cnf_checks[0].clauses


def test_solver_takes_one_cnf_and_no_further_clauses():
    assert not hasattr(Solver, "add_clause")
    assert not hasattr(satkit, "_check_clause")
    cnf = Cnf(2, ((1, 2),))
    assert Solver(cnf).clauses is cnf.clauses


def test_solver_under_assumptions_equals_a_fresh_solve_with_units():
    rng = random.Random(2024)
    for _ in range(150):
        cnf = random_3cnf(rng)
        solver = Solver(cnf)
        for _ in range(4):
            k = rng.randint(0, 3)
            a = [v if rng.random() < 0.5 else -v for v in rng.choices(range(1, cnf.num_vars + 1), k=k)]
            fresh = solve(Cnf(cnf.num_vars, cnf.clauses + tuple((lit,) for lit in a)))
            assert solver.solve(a) == fresh


def test_solver_rejects_bad_literals():
    solver = Solver(Cnf(2, ((1, 2),)))
    with pytest.raises(ValueError, match="not a literal"):
        solver.solve([0])
    with pytest.raises(ValueError, match="not a literal"):
        solver.solve([-3])


def test_solver_with_no_clauses_gives_all_true():
    solver = Solver(Cnf(3, ()))
    assert solver.solve().assignment == {1: True, 2: True, 3: True}
    assert solver.solve([2]) == solve(Cnf(3, ((2,),)))
    assert solver.solve().assignment == {1: True, 2: True, 3: True}


def test_solver_model_check_guards_every_answer(monkeypatch):
    # the search yields its models unverified; each caller refuses one that
    # falsifies a clause, here the first or the last
    cnf = Cnf(3, ((1, 2), (2, 3), (-1, -3)))
    message = "^solver bug: produced assignment fails verification$"
    for bad in ({1: False, 2: False, 3: True}, {1: True, 2: False, 3: True}):
        monkeypatch.setattr(Solver, "_search", lambda self, assumptions=(): iter([dict(bad)]))
        with pytest.raises(RuntimeError, match=message):
            solve(cnf)
        with pytest.raises(RuntimeError, match=message):
            enumerate_models(cnf)
        with pytest.raises(RuntimeError, match=message):  # the model that only sets truncated
            enumerate_models(cnf, limit=0)


def test_solve_also_refuses_a_model_that_falsifies_an_assumption(monkeypatch):
    monkeypatch.setattr(Solver, "_search", lambda self, assumptions=(): iter([{1: True, 2: True}]))
    assert Solver(Cnf(2, ((1, 2),))).solve([1]) == SolveResult(True, {1: True, 2: True})
    with pytest.raises(RuntimeError, match="^solver bug"):
        Solver(Cnf(2, ((1, 2),))).solve([-1])


def test_clause_masks_are_built_once_per_allsat_run_that_finds_a_model(monkeypatch):
    built = []
    masks = satkit._clause_masks
    monkeypatch.setattr(satkit, "_clause_masks", lambda clauses, num_vars: built.append(clauses) or masks(clauses, num_vars))
    cnf = encode_arrow(2)
    assert len(enumerate_models(cnf).models) == 94
    assert built == [cnf.clauses]
    assert enumerate_models(cnf, limit=0).truncated
    assert len(built) == 2
    # no model, no masks; solve checks its one model clause by clause
    assert enumerate_models(Cnf(1, ((1,), (-1,)))).models == ()
    assert solve(cnf).satisfiable and Solver(cnf).solve([-1]).satisfiable
    assert len(built) == 2


def test_allsat_equals_a_from_scratch_blocking_loop():
    cnf = encode_arrow(2)
    clauses = list(cnf.clauses)
    expected = []
    while (res := solve(Cnf(cnf.num_vars, tuple(clauses)))).satisfiable:
        expected.append(res.assignment)
        clauses.append(tuple(-v if res.assignment[v] else v for v in sorted(res.assignment)))
    run = enumerate_models(cnf)
    assert len(expected) == 94
    assert list(run.models) == expected


def test_enumerate_models_p_or_q():
    res = enumerate_models(Cnf(2, ((1, 2),)))
    assert len(res.models) == 3
    assert not res.truncated
    assert {(m[1], m[2]) for m in res.models} == {(True, True), (True, False), (False, True)}


def test_enumerate_models_limit_sets_truncation_flag():
    res = enumerate_models(Cnf(2, ((1, 2),)), limit=2)
    assert len(res.models) == 2
    assert res.truncated
    res_all = enumerate_models(Cnf(2, ((1, 2),)), limit=3)
    assert len(res_all.models) == 3
    assert not res_all.truncated
    with pytest.raises(TypeError):  # limit is keyword-only, so an old projection fails loudly
        enumerate_models(Cnf(2, ((1, 2),)), {1})


def test_enumerate_models_equals_the_truth_table_in_descending_order():
    rng = random.Random(777)
    for _ in range(60):
        cnf = random_3cnf(rng)
        assert list(enumerate_models(cnf).models) == truth_table(cnf)
    # unit clauses, (x, x) among them, which random_3cnf never draws
    short = [random_short_cnf(rng) for _ in range(200)]
    assert any(len(c) == 1 for cnf in short for c in cnf.clauses)
    assert any(len(c) > 1 and len(set(c)) == 1 for cnf in short for c in cnf.clauses)
    assert {bool(truth_table(cnf)) for cnf in short if unit_literals(cnf)} == {True, False}
    for cnf in short:
        assert list(enumerate_models(cnf).models) == truth_table(cnf), cnf


def test_solve_answers_the_first_model_of_allsat():
    rng = random.Random(4242)
    corpus = [random_3cnf(rng) for _ in range(60)] + [Cnf(n, ()) for n in range(5)]
    for cnf in corpus:
        res, run = solve(cnf), enumerate_models(cnf)
        assert res.satisfiable == bool(run.models)
        if res.satisfiable:
            assert res.assignment == run.models[0]
        for _ in range(2):
            k = rng.randint(1, 3) if cnf.num_vars else 0
            a = [v if rng.random() < 0.5 else -v for v in rng.choices(range(1, cnf.num_vars + 1), k=k)]
            first = next(Solver(cnf)._search(a), None)
            assert Solver(cnf).solve(a) == SolveResult(first is not None, first)
    # unit clauses, and assumptions that contradict one, against the truth
    # table: solve's first model and the whole AllSAT run under assumptions,
    # on one solver per formula, as discover uses it
    contradicted = 0
    for _ in range(200):
        cnf = random_short_cnf(rng)
        res, run = solve(cnf), enumerate_models(cnf)
        assert res == (SolveResult(True, run.models[0]) if run.models else SolveResult(False))
        solver, units = Solver(cnf), unit_literals(cnf)
        drawn = [rng.choice((v, -v)) for v in rng.choices(range(1, cnf.num_vars + 1), k=rng.randint(1, 3))]
        for a in ([-rng.choice(units)] if units else [], drawn):
            want = truth_table(cnf, a)
            assert solver.solve(a) == (SolveResult(True, want[0]) if want else SolveResult(False)), (cnf, a)
            assert list(solver._search(a)) == want, (cnf, a)
        contradicted += bool(units)
    assert contradicted > 100


def assert_watches_consistent(solver: Solver) -> None:
    """Each non-unit clause sits on exactly the watch lists of its two
    watched literals, which are two distinct literals of the clause."""
    on = {}
    for lit, occ in enumerate(solver._watches):
        for ci in occ:
            on.setdefault(ci, []).append(lit - len(solver._watches) if lit > solver.num_vars else lit)
    non_units = [ci for ci, c in enumerate(solver.clauses) if len(set(c)) > 1]
    assert sorted(on) == non_units
    for ci in non_units:
        a, b = solver._w0[ci], solver._w1[ci]
        assert a != b and a in solver.clauses[ci] and b in solver.clauses[ci]
        assert sorted(on[ci]) == sorted((a, b))


def test_no_watch_list_holds_a_unit_clause():
    rng = random.Random(31)
    corpus = [random_short_cnf(rng) for _ in range(200)] + [random_3cnf(rng) for _ in range(50)] + [encode_arrow(2)]
    for cnf in corpus:
        solver = Solver(cnf)
        assert solver._units == unit_literals(cnf)
        assert_watches_consistent(solver)
        for _ in solver._search():  # a full AllSAT run moves the watches
            pass
        assert_watches_consistent(solver)


def test_solve_equals_a_reference_dpll_without_watches():
    for cnf in oracle_corpus():
        assert solve(cnf) == reference_dpll(cnf), cnf.num_vars
    rng = random.Random(5)
    u = Universe(3)
    grounded = [ground_axiom(u, ax) for ax in CATALOG]
    for cls in RelationClass:
        solver = _guarded_solver(u, grounded, cls)
        cnf = Cnf(solver.num_vars, solver.clauses)
        atoms = ((1 << u.m) - 1) ** 2
        for _ in range(12):
            selectors = [rng.choice((s, -s)) for s in range(atoms + 1, atoms + len(CATALOG) + 1)]
            drawn = [rng.choice((v, -v)) for v in rng.sample(range(1, atoms + 1), rng.randint(0, 3))]
            a = selectors + drawn
            assert solver.solve(a) == reference_dpll(cnf, a), (cls, a)


def test_reversed_clauses_give_the_same_answers():
    # reversing each clause's literals starts the solver from other watches
    for cnf in oracle_corpus():
        rev = Cnf(cnf.num_vars, tuple(c[::-1] for c in cnf.clauses))
        assert solve(rev) == solve(cnf)
        assert enumerate_models(rev, limit=100) == enumerate_models(cnf, limit=100)

def test_each_search_owns_its_assignment():
    cnf = encode_arrow(2)
    solver = Solver(cnf)
    assert not hasattr(solver, "_value") and not hasattr(solver, "_trail")
    search = solver._search()
    for _ in range(40):  # leave a search deep in its tree
        next(search)
    assert solver.solve() == solve(cnf)
    assert solver.solve([-1]) == solve(Cnf(cnf.num_vars, cnf.clauses + ((-1,),)))
    assert not hasattr(solver, "_value") and not hasattr(solver, "_trail")


def test_to_dimacs_exact_format():
    assert to_dimacs(Cnf(2, ((1, -2), (-1, 2)))) == "p cnf 2 2\n1 -2 0\n-1 2 0\n"


def test_dimacs_round_trip_preserves_clause_multiset():
    rng = random.Random(99)
    for _ in range(50):
        cnf = random_3cnf(rng)
        back = from_dimacs(to_dimacs(cnf))
        assert back.num_vars == cnf.num_vars
        assert sorted(back.clauses) == sorted(cnf.clauses)
        assert solve(back).satisfiable == solve(cnf).satisfiable


def test_from_dimacs_error_messages_carry_line_numbers():
    with pytest.raises(ValueError, match=r"line 2: literal 2 exceeds declared 1 variable"):
        from_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(ValueError, match=r"line 2: missing terminating 0"):
        from_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(ValueError, match=r"line 1: malformed header"):
        from_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(ValueError, match=r"clause before"):
        from_dimacs("1 0\np cnf 1 1\n")
    with pytest.raises(ValueError, match=r"declares 2 clause"):
        from_dimacs("p cnf 1 2\n1 0\n")
    with pytest.raises(ValueError, match="missing 'p cnf' header"):
        from_dimacs("c nothing\n")
    with pytest.raises(ValueError, match=r"^line 2: duplicate header$"):
        from_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")
    with pytest.raises(ValueError, match=r"^line 1: negative counts in header 'p cnf -1 0'$"):
        from_dimacs("p cnf -1 0\n")
    with pytest.raises(ValueError, match=r"^line 2: empty clause$"):
        from_dimacs("p cnf 1 1\n0\n")


def test_from_dimacs_reads_only_ascii_integers():
    # int() alone reads '1_0' as 10 and the Arabic-Indic digit one as 1
    with pytest.raises(ValueError, match=r"^line 1: non-integer counts in header 'p cnf 1_0 1'$"):
        from_dimacs("p cnf 1_0 1\n1_0 -2 0\n")
    with pytest.raises(ValueError, match=r"^line 2: non-integer literal in '1_0 -2 0'$"):
        from_dimacs("p cnf 10 1\n1_0 -2 0\n")
    with pytest.raises(ValueError, match=r"^line 2: non-integer literal in '\u0661 -2 0'$"):
        from_dimacs("p cnf 2 1\n\u0661 -2 0\n")
    with pytest.raises(ValueError, match=r"^line 1: non-integer counts in header"):
        from_dimacs("p cnf \u0662 1\n1 0\n")
    # an explicit sign is still an integer
    assert from_dimacs("p cnf +2 1\n+1 -2 0\n").clauses == ((1, -2),)


def test_from_dimacs_refuses_a_number_past_the_int_limit_by_its_length():
    # a DIMACS number is a count or a variable: past 18 digits it is refused
    # by its digit count, which int()'s limit would refuse in words that name
    # no line, and which the message would otherwise echo
    long = "9" * 5000
    with pytest.raises(ValueError, match=r"^line 1: number of 5000 digits exceeds the 18-digit limit$"):
        from_dimacs(f"p cnf {long} 1\n1 0\n")
    with pytest.raises(ValueError, match=r"^line 3: number of 5000 digits exceeds the 18-digit limit$"):
        from_dimacs(f"p cnf 2 1\nc {long}\n1 -{long} 0\n")
    with pytest.raises(ValueError, match=r"^line 2: number of 19 digits exceeds the 18-digit limit$"):
        from_dimacs("p cnf 2 1\n1 -" + "0" * 18 + "1 0\n")
    assert from_dimacs("p cnf " + "9" * 18 + " 0\n").num_vars == 10**18 - 1
    # a line longer than the limit, of short numbers, is read
    assert from_dimacs("p cnf 1 1\n" + "1 " * 3000 + "0\n").clauses == ((1,) * 3000,)


def test_from_dimacs_quotes_at_most_40_characters_of_a_refused_line():
    letters = "x" * 100_000
    with pytest.raises(ValueError, match=rf"^line 2: non-integer literal in '{'x' * 40}'\.\.\.$"):
        from_dimacs(f"p cnf 1 1\n{letters}\n")
    with pytest.raises(ValueError, match=rf"^line 1: malformed header 'p cnf 1 1 {'x' * 30}'\.\.\., expected"):
        from_dimacs(f"p cnf 1 1 {letters}\n")
    # a line of 40 characters is quoted whole
    with pytest.raises(ValueError, match=rf"^line 2: non-integer literal in '{'x' * 40}'$"):
        from_dimacs("p cnf 1 1\n" + "x" * 40 + "\n")


def test_from_dimacs_accepts_a_clause_spanning_lines():
    assert from_dimacs("p cnf 3 1\n1 2\n3 0\n").clauses == ((1, 2, 3),)
    assert from_dimacs("p cnf 3 2\n1\nc inside a clause\n-2 0 2\n3 0\n").clauses == (
        (1, -2),
        (2, 3),
    )


def test_from_dimacs_stops_at_satlib_percent_line():
    cnf = from_dimacs("p cnf 2 2\n1 -2 0\n2 0\n%\n0\n\n")
    assert cnf.clauses == ((1, -2), (2,))
    with pytest.raises(ValueError, match=r"line 2: missing terminating 0"):
        from_dimacs("p cnf 2 1\n1 2\n%\n0\n")


def test_from_dimacs_skips_comments_and_blank_lines():
    cnf = from_dimacs("c a comment\n\np cnf 2 1\nc another\n1 -2 0\n")
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, -2),)


def test_encode_arrow_var_count_and_names():
    cnf = encode_arrow(2, {UN, ND})
    assert cnf.num_vars == 12
    # a Cnf is a formula alone: the names come from the encoder's module
    assert [f.name for f in dataclasses.fields(Cnf)] == ["num_vars", "clauses"]
    names = swf.var_names(2)
    assert sorted(names) == list(range(1, cnf.num_vars + 1))
    assert names[entry_var(2, 0, 3)] == "ab:11"
    assert names[entry_var(2, 2, 0)] == "bc:00"
    assert names[entry_var(2, 1, 2)] == "ac:10"
    # the numbering is a bijection from (pair, entry) onto 1..12
    assert sorted(entry_var(2, k, j) for k in range(3) for j in range(4)) == list(range(1, 13))


def test_encode_arrow_axiom_validation():
    with pytest.raises(ValueError, match="unknown axioms"):
        encode_arrow(2, {"XX"})
    with pytest.raises(ValueError):
        encode_arrow(0)


def test_arrow_unsat_with_unanimity_and_nondictatorship():
    assert not solve(encode_arrow(2, {UN, ND})).satisfiable


def test_arrow_two_models_with_unanimity_only():
    cnf = encode_arrow(2, {UN})
    run = enumerate_models(cnf)
    assert len(run.models) == 2
    decoded = [decode_model(2, m) for m in run.models]
    assert all(classify(s).tag == DICTATORIAL for s in decoded)
    assert {classify(s) for s in decoded} == {SwfClass(DICTATORIAL, agent=i) for i in (0, 1)}
    assert all(satisfies_unanimity(s) for s in decoded)


def test_arrow_94_models_without_axioms():
    cnf = encode_arrow(2)
    run = enumerate_models(cnf)
    assert len(run.models) == 94


def test_sat_route_equals_enumeration_route():
    cnf = encode_arrow(2)
    decoded = {decode_model(2, m) for m in enumerate_models(cnf).models}
    assert decoded == set(enumerate_iia_swfs(2))


def test_decode_model_trivial_examples():
    copy_agent0 = {entry_var(2, k, j): bool((j >> 1) & 1) for k in range(3) for j in range(4)}
    assert classify(decode_model(2, copy_agent0)) == SwfClass(DICTATORIAL, agent=0)
    negate_agent1 = {entry_var(2, k, j): not bool(j & 1) for k in range(3) for j in range(4)}
    assert classify(decode_model(2, negate_agent1)).tag == "inversely_dictatorial"


def test_decode_model_requires_total_assignment():
    message = "model must assign all encoding variables; missing [2, 3, 4, 5, 6]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decode_model(2, {1: True})


# sha256 of to_dimacs(encode_arrow(n, axioms)), per n and axiom set
ARROW_DIMACS_SHA256 = {
    (1, ()): "9ff86f4c7c032606c147480d43a2720e182a28aafdfc5a0b411de5e7924d4cc2",
    (1, (UN,)): "e1386e02dbde89eb1fd53638f1a6023cf38d442cf240ad3a5ac2e452b4024558",
    (1, (ND,)): "b6a1e6a89681ff5550a233d6a159202b9dbcdc20c3e4ff2e8eac2b536112a931",
    (1, (UN, ND)): "0dec64b5ad01c40fcc445cb727f331dcd08a6ce85ff40daa775f0941401e106b",
    (2, ()): "5fbbe7965ee8ef6ac15eefd3e74a34a4e656e51627ab2ddface75db2f20abd8a",
    (2, (UN,)): "e6bbd5404f190eac121a605c6ddce6e7b4b3fd46655439f1901cb72c919b2751",
    (2, (ND,)): "e251ffed608162500fb3b3313bce3c8bbdbb9961bf149c2fa91ec9a439f25796",
    (2, (UN, ND)): "8c9d0b6bdcf10ffb97a2f0a5656823497dbc2ad5621d65553b424ad529e155d1",
    (3, ()): "8b42bfa3fe81f233c1781ebee1dc509c411d35341e46d8a220ed4554e1562efe",
    (3, (UN,)): "c7f38b9fe6d65b45276c7d066c72a6c800a9d44875b27d51846efa07a84052ad",
    (3, (ND,)): "e43150aff2bf105721df522310ec6c44279a2b56b38ca5b9d1a2b9c6f7f38935",
    (3, (UN, ND)): "5cbccb6b892286382678489bdbb74b5b1ccc4c4586ad213363a17dd3632df3b0",
    (4, ()): "52bd7275831699281e9d189a88e09a4400518a24717319890bd63c25e025136c",
    (4, (UN,)): "7b551caca802cdd355c58923f6ca83e74dcc00d05faa53864d1707595eae01c8",
    (4, (ND,)): "6e572e9c4aeba810e84fe5f0dbd30b5d7ab843b02398df17913e4fe77b4419f3",
    (4, (UN, ND)): "8c6b331d2f57d70026c4802b791329a5a0a9f3bb25a7f0f7d07227b6ba63d1ce",
}


@pytest.mark.parametrize(
    ("n", "axioms"),
    list(ARROW_DIMACS_SHA256),
    ids=[f"n{n}-{'+'.join(axioms) or 'none'}" for n, axioms in ARROW_DIMACS_SHA256],
)
def test_arrow_dimacs_bytes_are_stable(n, axioms):
    text = to_dimacs(encode_arrow(n, set(axioms)))
    assert hashlib.sha256(text.encode()).hexdigest() == ARROW_DIMACS_SHA256[n, axioms]
    if (n, axioms) == (2, (UN, ND)):
        assert text == (GOLDEN / "arrow_n2_un_nd.cnf").read_text()


def test_satkit_imports_no_implab_module():
    tree = ast.parse(Path(satkit.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import from {node.module!r}"
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[0] == "implab" for name in names), names


def test_arrow_encoding_round_trip():
    cnf = encode_arrow(2, {UN, ND})
    back = from_dimacs(to_dimacs(cnf))
    assert back.num_vars == cnf.num_vars
    assert sorted(back.clauses) == sorted(cnf.clauses)
    assert solve(back).satisfiable == solve(cnf).satisfiable


def test_encoded_acyclicity_matches_profile_count():
    # two clauses per profile, plus 6 unanimity units and 2 non-dictatorship clauses
    n2_profiles = len(all_linear_orders(3)) ** 2
    assert len(encode_arrow(2).clauses) == 2 * n2_profiles
    assert len(encode_arrow(2, {UN, ND}).clauses) == 2 * n2_profiles + 6 + 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_unsat_has_no_filtered_survivor_and_vice_versa(n):
    # cross-route agreement for each axiom subset; the filters here are the
    # oracle for swf.survivors as well as for the decoded models
    swfs = enumerate_iia_swfs(n)
    classes = {s: classify(s) for s in swfs}
    for axioms in (frozenset(), {UN}, {ND}, {UN, ND}):
        cnf = encode_arrow(n, axioms)
        survivors = swfs
        if UN in axioms:
            survivors = [s for s in survivors if satisfies_unanimity(s)]
        if ND in axioms:
            survivors = [s for s in survivors if classify(s).tag != DICTATORIAL]
        assert swf.survivors(classes, axioms) == tuple(survivors)
        res = solve(cnf)
        assert res.satisfiable == bool(survivors)
        decoded = {decode_model(n, m) for m in enumerate_models(cnf).models}
        assert decoded == set(survivors)
