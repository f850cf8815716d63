"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in captured output on failure.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from implab.cli import main as cli_main
from implab.ranksets import Axiom, RelationClass, Universe, check_relation, encode_ranksets, minmax_relation
from implab.satkit import Cnf, enumerate_models, from_dimacs, solve, to_dimacs
from implab.swf import (
    CONSTANT,
    DICTATORIAL,
    INVERSELY_DICTATORIAL,
    ND,
    SMALL_RANGE,
    UN,
    UNCLASSIFIED,
    census,
    classify,
    decode_model,
    encode_arrow,
    enumerate_iia_swfs,
    onto_survivors,
    recount_small_range,
)
from implab.auctions import (
    check_soundness,
    check_weak_dominance,
    max_classical,
    max_constructive,
    outcome_violations,
    parse_grid,
    run_first_price,
    sweep_soundness,
)

from test_satkit import brute_force_sat, random_3cnf


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {description}")
        raise
    print(f"criterion {num:02d} PASS: {description}")


def run_arrow_cli(capsys, *extra):
    code = cli_main(["arrow", "--agents", "2", *extra])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_01_iia_census(capsys):
    with criterion(1, "94 IIA SWFs with census 84/6/2/2 in under a second"):
        started = time.perf_counter()
        code, report = run_arrow_cli(capsys)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert report["iia_count"] == 94
        assert report["census"] == {
            SMALL_RANGE: 84,
            CONSTANT: 6,
            DICTATORIAL: 2,
            INVERSELY_DICTATORIAL: 2,
            UNCLASSIFIED: 0,
        }
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_arrow_base_case(capsys):
    with criterion(2, "unanimity leaves 2 dictatorial survivors; UN+ND is UNSAT; under a second"):
        started = time.perf_counter()
        code, report = run_arrow_cli(capsys)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert report["un_survivors"] == 2
        assert [c["tag"] for c in report["un_survivor_classes"]] == [DICTATORIAL, DICTATORIAL]
        assert report["sat_verdict"] == "UNSAT"
        assert report["verdict"] == "impossibility holds"
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_03_cross_route_equivalence():
    with criterion(3, "SAT models of the bare encoding equal the enumerated 94, element-wise"):
        cnf = encode_arrow(2, frozenset())
        models = enumerate_models(cnf)
        assert not models.truncated
        decoded = {decode_model(2, m) for m in models.models}
        enumerated = set(enumerate_iia_swfs(2))
        assert len(decoded) == len(models.models) == 94
        assert decoded == enumerated


def test_criterion_04_range_classification_theorem():
    with criterion(4, "zero unclassified among the 94; 3x2x14 recount agrees"):
        counts = census({s: classify(s) for s in enumerate_iia_swfs(2)})
        assert counts[UNCLASSIFIED] == 0
        assert recount_small_range(2) == 3 * 2 * 14 == counts[SMALL_RANGE]


def test_criterion_05_wilson_filter():
    with criterion(5, "surjectivity leaves 4 survivors: 2 dictatorial, 2 inversely dictatorial"):
        classes = {s: classify(s) for s in enumerate_iia_swfs(2)}
        onto = onto_survivors(classes)
        assert len(onto) == 4
        tags = sorted(classes[s].tag for s in onto)
        assert tags == [DICTATORIAL, DICTATORIAL, INVERSELY_DICTATORIAL, INVERSELY_DICTATORIAL]


def test_criterion_06_ranking_sets():
    with criterion(6, "set-ranking impossibilities and min-max checks within 30 seconds"):
        started = time.perf_counter()
        four_axioms = (
            Axiom.SIMPLE_DOMINANCE,
            Axiom.INDEPENDENCE,
            Axiom.UNCERTAINTY_AVERSION,
            Axiom.SIMPLE_TOP_MONOTONICITY,
        )
        assert not solve(encode_ranksets(Universe(4), four_axioms, RelationClass.LINEAR_ORDER)).satisfiable
        duo = (Axiom.UNCERTAINTY_AVERSION, Axiom.UNCERTAINTY_APPEAL)
        assert not solve(encode_ranksets(Universe(3), duo, RelationClass.LINEAR_ORDER)).satisfiable
        for m in (2, 3, 4, 5):
            rel = minmax_relation(Universe(m))
            for ax in (
                Axiom.SIMPLE_DOMINANCE,
                Axiom.UNCERTAINTY_AVERSION,
                Axiom.SIMPLE_TOP_MONOTONICITY,
            ):
                assert check_relation(rel, ax).holds, (m, ax)
        violation = check_relation(minmax_relation(Universe(4)), Axiom.INDEPENDENCE).violation
        assert violation is not None
        assert violation.antecedent == (0b0010, 0b0101)
        assert violation.consequent == (0b1010, 0b1101)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_07_vickrey_dominance():
    with criterion(7, "truthful bidding dominant on the 0..4 grid; first-price mutant refuted; under 10 seconds"):
        started = time.perf_counter()
        grid = parse_grid("0:4:1")
        for values in ([3, 1, 2], [0, 4, 2], [4, 4, 4]):
            assert check_weak_dominance(values, grid).holds
        mutant = check_weak_dominance([2, 2], parse_grid("0:2:1"), rule=run_first_price)
        assert not mutant.holds
        assert mutant.counterexample.deviation_payoff > mutant.counterexample.truthful_payoff
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_08_outcome_soundness():
    with criterion(8, "unique winner, losers pay zero, non-negative payments, deterministic"):
        grid = parse_grid("0:2:1")
        sweep = sweep_soundness(3, grid)
        assert sweep.cells == 27
        assert sweep.unsound == ()
        for n in (1, 2, 4):
            for bids in itertools.product(grid.points, repeat=n):
                rep = check_soundness(bids)
                assert rep.sound, (bids, rep.violations)
                assert outcome_violations(rep.outcome, n) == []


def test_criterion_09_max_equivalence():
    with criterion(9, "classical and constructive maxima agree on 1000 seeded lists"):
        rng = random.Random(20240809)
        disagreements = 0
        for _ in range(1000):
            xs = [
                Fraction(rng.randint(-10_000, 10_000), rng.randint(1, 100))
                for _ in range(rng.randint(1, 60))
            ]
            if max_classical(xs) != max_constructive(xs):
                disagreements += 1
        assert disagreements == 0


def test_criterion_10_solver_correctness():
    with criterion(10, "solver agrees with the truth-table oracle on 1000 CNFs; DIMACS round trips"):
        rng = random.Random(987654321)
        disagreements = 0
        for _ in range(1000):
            cnf = random_3cnf(rng)
            if solve(cnf).satisfiable != brute_force_sat(cnf.num_vars, cnf.clauses):
                disagreements += 1
        assert disagreements == 0
        corpus: list[Cnf] = []
        for axioms in (frozenset(), {UN}, {ND}, {UN, ND}):
            corpus.append(encode_arrow(1, axioms))
            corpus.append(encode_arrow(2, axioms))
        corpus.append(
            encode_ranksets(
                Universe(3),
                (Axiom.UNCERTAINTY_AVERSION, Axiom.UNCERTAINTY_APPEAL),
                RelationClass.TRANSITIVE,
            )
        )
        corpus.append(
            encode_ranksets(
                Universe(4),
                (
                    Axiom.SIMPLE_DOMINANCE,
                    Axiom.INDEPENDENCE,
                    Axiom.UNCERTAINTY_AVERSION,
                    Axiom.SIMPLE_TOP_MONOTONICITY,
                ),
                RelationClass.LINEAR_ORDER,
            )
        )
        corpus.append(encode_ranksets(Universe(4), (Axiom.SIMPLE_DOMINANCE,), RelationClass.LINEAR_ORDER))
        for cnf in corpus:
            back = from_dimacs(to_dimacs(cnf))
            assert back.num_vars == cnf.num_vars
            assert sorted(back.clauses) == sorted(cnf.clauses)
            assert solve(back).satisfiable == solve(cnf).satisfiable
