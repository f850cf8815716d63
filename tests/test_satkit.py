import ast
import itertools
import random
from pathlib import Path

import pytest

from implab import satkit
from implab.orders import all_profiles
from implab.satkit import Cnf, Solver, enumerate_models, from_dimacs, solve, to_dimacs
from implab.swf import (
    DICTATORIAL,
    ND,
    UN,
    classify,
    decode_model,
    encode_arrow,
    enumerate_iia_swfs,
    is_dictatorial,
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


def test_solve_empty_clause_list_is_sat_all_false():
    res = solve(Cnf(3, ()))
    assert res.satisfiable
    assert res.assignment == {1: False, 2: False, 3: False}
    # enumeration has no such shortcut: it lists every assignment, greatest first
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


def test_cnf_validation():
    with pytest.raises(ValueError, match="empty clause"):
        Cnf(2, ((),))
    with pytest.raises(ValueError, match="exceeds"):
        Cnf(1, ((2,),))
    with pytest.raises(ValueError, match="terminator"):
        Cnf(1, ((0,),))


def test_solver_under_assumptions_equals_a_fresh_solve_with_units():
    rng = random.Random(2024)
    for _ in range(150):
        cnf = random_3cnf(rng)
        solver = Solver(cnf.num_vars, cnf.clauses)
        for _ in range(4):
            k = rng.randint(0, 3)
            a = [v if rng.random() < 0.5 else -v for v in rng.choices(range(1, cnf.num_vars + 1), k=k)]
            fresh = solve(Cnf(cnf.num_vars, cnf.clauses + tuple((lit,) for lit in a)))
            assert solver.solve(a) == fresh


def test_solver_add_clause_after_sat_and_after_unsat_solves():
    solver = Solver(2, [(1, 2)])
    assert solver.solve().assignment == {1: True, 2: True}
    solver.add_clause((-1,))
    assert solver.solve().assignment == {1: False, 2: True}
    assert not solver.solve([-2]).satisfiable
    solver.add_clause((-2, 1, -2))
    assert not solver.solve().satisfiable
    assert not solver.solve([2]).satisfiable

    solver = Solver(2, [(1, 2)])
    assert not solver.solve([-1, -2]).satisfiable
    solver.add_clause((1,))
    assert solver.solve().assignment == {1: True, 2: True}
    assert solver.solve([-2]).assignment == {1: True, 2: False}


def test_solver_rejects_bad_literals():
    with pytest.raises(ValueError, match="exceeds"):
        Solver(2, [(1, 3)])
    solver = Solver(2, [(1, 2)])
    with pytest.raises(ValueError, match="terminator"):
        solver.add_clause((1, 0))
    with pytest.raises(ValueError, match="exceeds"):
        solver.add_clause((-3,))
    with pytest.raises(ValueError, match="empty clause"):
        solver.add_clause(())
    with pytest.raises(ValueError, match="not a literal"):
        solver.solve([0])
    with pytest.raises(ValueError, match="not a literal"):
        solver.solve([-3])
    with pytest.raises(ValueError, match="non-negative"):
        Solver(-1)


def test_solver_with_no_clauses_gives_all_false():
    solver = Solver(3)
    assert solver.solve().assignment == {1: False, 2: False, 3: False}
    assert solver.solve([2]) == solve(Cnf(3, ((2,),)))
    assert solver.solve().assignment == {1: False, 2: False, 3: False}


def test_solver_model_check_guards_every_answer(monkeypatch):
    monkeypatch.setattr(satkit, "_check_model", lambda clauses, assignment: False)
    with pytest.raises(RuntimeError, match="solver bug"):
        Solver(2, [(1, 2)]).solve([-1])
    with pytest.raises(RuntimeError, match="solver bug"):
        enumerate_models(Cnf(2, ((1, 2),)))


def test_allsat_equals_a_from_scratch_blocking_loop():
    cnf = encode_arrow(2).cnf
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
        n = cnf.num_vars
        want = []
        for bits in itertools.product((True, False), repeat=n):
            model = dict(zip(range(1, n + 1), bits))
            if all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in cnf.clauses):
                want.append(model)
        assert list(enumerate_models(cnf).models) == want


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
    enc = encode_arrow(2, {UN, ND})
    assert enc.cnf.num_vars == 12
    assert enc.cnf.var_names[enc.var_of[(0, 3)]] == "ab:11"
    assert enc.cnf.var_names[enc.var_of[(2, 0)]] == "bc:00"
    assert enc.entry_of[enc.var_of[(1, 2)]] == (1, 2)


def test_encode_arrow_axiom_validation():
    with pytest.raises(ValueError, match="unknown axioms"):
        encode_arrow(2, {"XX"})
    with pytest.raises(ValueError):
        encode_arrow(0)


def test_arrow_unsat_with_unanimity_and_nondictatorship():
    assert not solve(encode_arrow(2, {UN, ND}).cnf).satisfiable


def test_arrow_two_models_with_unanimity_only():
    enc = encode_arrow(2, {UN})
    run = enumerate_models(enc.cnf)
    assert len(run.models) == 2
    decoded = [decode_model(enc, m) for m in run.models]
    assert all(classify(s).tag == DICTATORIAL for s in decoded)
    assert {is_dictatorial(s) for s in decoded} == {0, 1}
    assert all(satisfies_unanimity(s)[0] for s in decoded)


def test_arrow_94_models_without_axioms():
    enc = encode_arrow(2)
    run = enumerate_models(enc.cnf)
    assert len(run.models) == 94


def test_sat_route_equals_enumeration_route():
    enc = encode_arrow(2)
    decoded = {decode_model(enc, m) for m in enumerate_models(enc.cnf).models}
    assert decoded == set(enumerate_iia_swfs(2))


def test_decode_model_trivial_examples():
    enc = encode_arrow(2)
    copy_agent0 = {enc.var_of[(k, j)]: bool((j >> 1) & 1) for k in range(3) for j in range(4)}
    assert is_dictatorial(decode_model(enc, copy_agent0)) == 0
    negate_agent1 = {enc.var_of[(k, j)]: not bool(j & 1) for k in range(3) for j in range(4)}
    assert classify(decode_model(enc, negate_agent1)).tag == "inversely_dictatorial"


def test_decode_model_requires_total_assignment():
    enc = encode_arrow(2)
    with pytest.raises(ValueError, match="missing"):
        decode_model(enc, {1: True})


def test_arrow_dimacs_bytes_are_stable():
    enc = encode_arrow(2, {UN, ND})
    assert to_dimacs(enc.cnf) == (GOLDEN / "arrow_n2_un_nd.cnf").read_text()


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
    enc = encode_arrow(2, {UN, ND})
    back = from_dimacs(to_dimacs(enc.cnf))
    assert back.num_vars == enc.cnf.num_vars
    assert sorted(back.clauses) == sorted(enc.cnf.clauses)
    assert solve(back).satisfiable == solve(enc.cnf).satisfiable


def test_encoded_acyclicity_matches_profile_count():
    # two clauses per profile, plus 6 unanimity units and 2 non-dictatorship clauses
    n2_profiles = len(all_profiles(2, 3))
    assert len(encode_arrow(2).cnf.clauses) == 2 * n2_profiles
    assert len(encode_arrow(2, {UN, ND}).cnf.clauses) == 2 * n2_profiles + 6 + 2


def test_every_unsat_has_no_filtered_survivor_and_vice_versa():
    # cross-route agreement for each axiom subset
    for axioms in (frozenset(), {UN}, {ND}, {UN, ND}):
        enc = encode_arrow(2, axioms)
        survivors = enumerate_iia_swfs(2)
        if UN in axioms:
            survivors = [s for s in survivors if satisfies_unanimity(s)[0]]
        if ND in axioms:
            survivors = [s for s in survivors if is_dictatorial(s) is None]
        res = solve(enc.cnf)
        assert res.satisfiable == bool(survivors)
        decoded = {decode_model(enc, m) for m in enumerate_models(enc.cnf).models}
        assert decoded == set(survivors)
