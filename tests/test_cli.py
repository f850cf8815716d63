import argparse
import ast
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import implab
from implab import auctions, cli, ranksets, satkit, swf
from implab.cli import AXIOM_NAMES, CLASS_NAMES, RULE_NAMES, build_parser, main

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.lstrip().startswith("{") else out


def strip_duration(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "duration_seconds"}


def test_arrow_default_report(capsys):
    code, report = run_cli(capsys, "arrow", "--agents", "2")
    assert code == 0
    assert report["verdict"] == "impossibility holds"
    assert report["iia_count"] == 94
    assert report["census"] == {
        "small_range": 84,
        "constant": 6,
        "dictatorial": 2,
        "inversely_dictatorial": 2,
        "unclassified": 0,
    }
    assert report["un_survivors"] == 2
    assert [c["tag"] for c in report["un_survivor_classes"]] == ["dictatorial", "dictatorial"]
    assert report["wilson_survivors"] == 4
    assert report["sat_verdict"] == "UNSAT"
    assert report["cross_check_agree"] is True
    assert report["small_range_recount"] == 84


def test_arrow_drop_nd_counts_two_models(capsys):
    code, report = run_cli(capsys, "arrow", "--agents", "2", "--drop-axiom", "nd", "--count-models")
    assert code == 0
    assert report["sat_verdict"] == "SAT"
    assert report["sat_model_count"] == 2
    assert len(report["models"]) == 2
    assert report["cross_check_agree"] is True


def test_arrow_drop_both_counts_94(capsys):
    code, report = run_cli(
        capsys, "arrow", "--agents", "2", "--drop-axiom", "nd", "--drop-axiom", "un"
    )
    assert code == 0
    assert report["sat_model_count"] == 94


def test_arrow_emit_dimacs_header_matches_body(capsys, tmp_path):
    path = tmp_path / "arrow.cnf"
    code, _ = run_cli(capsys, "arrow", "--agents", "2", "--emit-dimacs", str(path))
    assert code == 0
    text = path.read_text()
    header = text.splitlines()[0].split()
    declared = int(header[3])
    body = [l for l in text.splitlines()[1:] if l.strip()]
    assert declared == len(body)
    assert text == (GOLDEN / "arrow_n2_un_nd.cnf").read_text()
    sidecar = (tmp_path / "arrow.cnf.vars.json").read_bytes()
    assert json.loads(sidecar)["1"] == "ab:00"
    assert len(sidecar) == 198
    assert hashlib.sha256(sidecar).hexdigest() == "4fd9f7a84345584dd3f05f499700716e6004b952f7042bb89a391d2f2751afba"


def test_arrow_three_agents(capsys):
    code, report = run_cli(capsys, "arrow", "--agents", "3")
    assert code == 0
    assert report["verdict"] == "impossibility holds"
    # closed form 6 + 2n + 6(2^(2^n) - 2); test_swf checks it at n = 1, 2
    assert report["iia_count"] == 6 + 2 * 3 + 6 * (2 ** (2**3) - 2) == 1536
    assert report["census"] == {
        "dictatorial": 3,
        "inversely_dictatorial": 3,
        "constant": 6,
        "small_range": 1524,
        "unclassified": 0,
    }
    assert report["small_range_recount"] == 1524
    assert report["un_survivors"] == 3
    assert report["wilson_survivors"] == 6
    assert report["cross_check_agree"]


def test_arrow_recount_disagreeing_with_the_census_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(swf, "recount_small_range", lambda n: 83)
    code, report = run_cli(capsys, "arrow", "--agents", "2")
    assert code == 2
    assert report["census"]["small_range"] == 84 and report["small_range_recount"] == 83
    assert report["cross_check_agree"] is False


def test_arrow_three_agents_classifies_each_swf_once_and_never_calls_solve(capsys, monkeypatch):
    calls = {"classify": 0, "range_of": 0}

    def counting(name):
        original = getattr(swf, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    def no_solve(cnf):
        raise AssertionError("arrow must not call satkit.solve")

    for name in calls:
        monkeypatch.setattr(swf, name, counting(name))
    monkeypatch.setattr(satkit, "solve", no_solve)
    code, report = run_cli(capsys, "arrow", "--agents", "3")
    assert code == 0 and report["verdict"] == "impossibility holds"
    assert 0 < calls["classify"] <= 1536
    assert 0 < calls["range_of"] <= 1536


def test_arrow_three_agents_computes_each_swfs_masks_once(capsys, monkeypatch):
    calls = []
    met = swf._bc_entries_met
    monkeypatch.setattr(swf, "_bc_entries_met", lambda *args: calls.append(args) or met(*args))
    code, report = run_cli(capsys, "arrow", "--agents", "3")
    assert code == 0 and report["iia_count"] == 1536
    # one per SWF, in its constructor; range_of reads the stored masks
    assert len(calls) == 1536


def test_arrow_builds_clause_masks_only_for_an_allsat_run_that_finds_a_model(capsys, monkeypatch):
    built = []
    masks = satkit._clause_masks
    monkeypatch.setattr(satkit, "_clause_masks", lambda *args: built.append(args) or masks(*args))
    code, report = run_cli(capsys, "arrow", "--agents", "3")
    assert code == 0 and report["verdict"] == "impossibility holds"
    assert built == []  # its AllSAT run finds no model
    code, report = run_cli(capsys, "arrow", "--agents", "3", "--drop-axiom", "un", "--count-models")
    assert code == 0 and len(built) == 1


def test_arrow_budget_error_exits_1(capsys):
    code = main(["arrow", "--agents", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeds budget" in err


def test_arrow_far_over_budget_is_refused_without_sizing_the_space(capsys):
    start = time.perf_counter()
    code = main(["arrow", "--agents", "64"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: agent count 64 outside supported range 1..8\n"
    assert elapsed < 0.5


def test_arrow_agent_count_past_the_cap_is_refused_at_once_under_any_budget(capsys, monkeypatch):
    # 2^(3*2^9) candidates fit a budget of 2^1600, but the entry-pair groups
    # at n = 9 took 10.8 s to build before the cap was checked first
    monkeypatch.setenv("IMPLAB_BUDGET", str(1 << 1600))
    start = time.perf_counter()
    code = main(["arrow", "--agents", "9"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: agent count 9 outside supported range 1..8\n")
    assert elapsed < 0.5


def test_arrow_agent_count_is_refused_before_any_power_of_two_is_built(capsys):
    # 2^N would take N/8 bytes; the refusal reads only the exponent
    tracemalloc.start()
    try:
        code = main(["arrow", "--agents", "100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: agent count 100000000 outside supported range 1..8\n"
    assert peak < 1 << 20


ARROW_REPORT_SHA256 = {
    ("--agents", "1"): "14a2ab714f15b63a27871e7bc8fa79cbe8265531347722eaa5561c59ac3dc60f",
    ("--agents", "2"): "0abf2ea91740f4c9cffc5a3da5f0116adf00c4610ad1bb44d96778e1791a75ad",
    ("--agents", "3"): "4b483b9cb3d3c5a45c8dbbd1b607ee8fe51e404271603101704f36bf941a56c6",
    ("--agents", "2", "--drop-axiom", "nd", "--count-models"):
        "90142d9a030c535c59f9740c28a44aa73398808ba8f2c4fb0699ac511aac9baf",
    ("--agents", "2", "--drop-axiom", "un", "--count-models"):
        "6fc34ef592c05b196079e5d92a7cf7450b595388b88a227caa07f1cfdd1b8bce",
    ("--agents", "2", "--drop-axiom", "un", "--drop-axiom", "nd", "--count-models"):
        "a36b34c269513f306a8411ca84fbd8cb6ce190d6f8009626ef261efb7398895a",
    # all 1533 decoded models in enumeration order: pins AllSAT's order and completeness
    ("--agents", "3", "--drop-axiom", "un", "--count-models"):
        "fc03ff87f45ac512ae8b6fd5bfb534be469522da7e64ab5972765ebfb5267f13",
}


@pytest.mark.parametrize("argv", sorted(ARROW_REPORT_SHA256), ids=" ".join)
def test_arrow_reports_are_pinned(capsys, argv):
    code, report = run_cli(capsys, "arrow", *argv)
    assert code == 0
    text = json.dumps(strip_duration(report), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ARROW_REPORT_SHA256[argv]


def test_ranksets_check_bbp4_m4_unsat(capsys):
    code, report = run_cli(
        capsys, "ranksets", "check", "--axioms", "dominance,independence,aversion,topmono", "--m", "4"
    )
    assert code == 0
    assert report["verdict"] == "UNSAT"
    assert report["num_vars"] == 225
    assert report["model"] is None


def test_ranksets_check_aversion_appeal_m3_unsat(capsys):
    code, report = run_cli(capsys, "ranksets", "check", "--axioms", "aversion,appeal", "--m", "3")
    assert code == 0
    assert report["verdict"] == "UNSAT"


def test_ranksets_check_sat_includes_verified_model(capsys):
    code, report = run_cli(capsys, "ranksets", "check", "--axioms", "dominance", "--m", "3")
    assert code == 0
    assert report["verdict"] == "SAT"
    assert len(report["model"]["geq_rows"]) == 7


def test_ranksets_check_refuses_a_repeated_axiom(capsys):
    assert main(["ranksets", "check", "--axioms", "dominance,dominance", "--m", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: axiom dominance is listed more than once" in captured.err


def test_ranksets_check_refuses_a_model_that_fails_an_enabled_axiom(capsys, monkeypatch):
    # without the axiom clauses the solver's model need not satisfy the axiom,
    # and decode_ranksets, which checks the models of check and discover alike, catches it
    monkeypatch.setattr(ranksets, "_axiom_clauses", lambda u, constraints: [])
    for argv in (["ranksets", "check", "--axioms", "dominance", "--m", "3"], ["ranksets", "discover", "--max-m", "3"]):
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: decoded model fails an enabled axiom; encoder bug\n")


def test_ranksets_minmax_independence_witness(capsys):
    code, report = run_cli(capsys, "ranksets", "minmax", "--m", "4", "--axiom", "independence")
    assert code == 0
    assert report["verdict"] == "violated"
    assert report["axiom_checks"]["independence"]["violation"] == "{b} > {a,c} implies {b,d} >= {a,c,d}"


def test_ranksets_minmax_all_axioms(capsys):
    code, report = run_cli(capsys, "ranksets", "minmax", "--m", "3")
    assert code == 0
    checks = report["axiom_checks"]
    assert checks["dominance"]["holds"] and checks["aversion"]["holds"]
    assert not checks["appeal"]["holds"]  # dual of aversion must fail on minmax


def test_ranksets_discover_reports_all_31_subsets(capsys):
    code, report = run_cli(capsys, "ranksets", "discover", "--max-m", "3")
    assert code == 0
    assert len(report["findings"]) == 31
    by_axioms = {tuple(f["axioms"]): f for f in report["findings"]}
    assert by_axioms[("aversion", "appeal")]["minimal_unsat_m"] == 3
    assert by_axioms[("dominance",)]["minimal_unsat_m"] is None
    assert by_axioms[("dominance",)]["witness"] is not None


# sha256 of each report without duration_seconds
RANKSETS_REPORT_SHA256 = {
    # taken when --prune went, so config has no prune and no finding a pruned
    # key; the rest of the report is as it was before linear-order
    # transitivity became one clause per 3-cycle
    ("discover", "--max-m", "5"): "8f2440fb826f98f66d2dd1c5c37581aae5056721814cf483567c3ff05a0afbf3",
    # taken when minmax stopped taking --class, so config has no relation_class;
    # the rest of each report is as it was while Universe still took a base order
    ("minmax", "--m", "3"): "099f22eef0bb3b219b62d6b6c971bd711d676a153ebc2489ade57182c6d21c80",
    ("minmax", "--m", "4"): "b6f95b105103b8ebef9f0c092592ca147579ef6f84300ebf4d58537417a26618",
}


@pytest.mark.parametrize("argv", sorted(RANKSETS_REPORT_SHA256), ids=" ".join)
def test_ranksets_reports_are_pinned(capsys, argv):
    code, report = run_cli(capsys, "ranksets", *argv)
    assert code == 0
    text = json.dumps(strip_duration(report), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == RANKSETS_REPORT_SHA256[argv]


def test_vickrey_dominance_holds(capsys):
    code, report = run_cli(
        capsys, "vickrey", "dominance", "--n", "3", "--grid", "0:4:1", "--values", "3,1,2"
    )
    assert code == 0
    assert report["verdict"] == "holds"
    assert report["cells"] == 375
    assert report["counterexample"] is None


def test_vickrey_first_price_counterexample_exits_3(capsys):
    code, report = run_cli(
        capsys,
        "vickrey", "dominance", "--rule", "first-price",
        "--n", "2", "--grid", "0:2:1", "--values", "2,2",
    )
    assert code == 3
    assert report["verdict"] == "counterexample"
    ce = report["counterexample"]
    assert ce["agent"] == 0
    assert ce["truthful_payoff"] == "0"
    assert ce["deviation_payoff"] == "2"


def test_vickrey_efficiency(capsys):
    code, report = run_cli(capsys, "vickrey", "efficiency", "--values", "2,2")
    assert code == 0
    assert report["verdict"] == "holds"
    assert report["winner"] == 0
    assert report["winner_valuation"] == "2"


def test_vickrey_soundness_sweep(capsys):
    code, report = run_cli(capsys, "vickrey", "soundness", "--n", "3", "--grid", "0:2:1")
    assert code == 0
    assert report["verdict"] == "sound"
    assert report["swept"] == 27
    assert report["violations"] == []


def test_vickrey_abstract_per_n(capsys):
    code, report = run_cli(
        capsys, "vickrey", "abstract", "--n-max", "4", "--value", "10", "--delta", "1"
    )
    assert code == 0
    assert report["verdict"] == "holds"
    assert [e["n"] for e in report["per_n"]] == [2, 3, 4]
    assert all(e["holds"] for e in report["per_n"])


def test_vickrey_maxcheck_sweeps_every_order_type(capsys):
    code, report = run_cli(capsys, "vickrey", "maxcheck")
    assert code == 0
    # 1 + 3 + 13 + 75 + 541 + 4683 + 47293 weak orders of 1..7 items
    assert (report["verdict"], report["lists"], report["max_length"]) == ("equivalent", 52609, 7)
    assert report["disagreements"] == 0


def test_vickrey_maxcheck_exits_3_on_a_wrong_maximum(capsys, monkeypatch):
    monkeypatch.setattr(auctions, "max_constructive", lambda xs: xs[0])
    code, report = run_cli(capsys, "vickrey", "maxcheck")
    assert (code, report["verdict"]) == (3, "divergent")
    wrong = sum(1 for ranks in auctions.order_types(7) if ranks[0] != max(ranks))
    assert report["disagreements"] == wrong > 0


def test_vickrey_mismatched_values_is_an_error(capsys):
    code = main(["vickrey", "dominance", "--n", "3", "--grid", "0:2:1", "--values", "1,2"])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


BENCH_VALUES = "7/2,5/2,11/2,5/2"
# exit code and sha256 of each report without duration_seconds, taken before
# the dominance sweeps moved to scaled integers
VICKREY_REPORT_SHA256 = {
    ("dominance", "--n", "4", "--grid", "0:10:1", "--values", BENCH_VALUES):
        (0, "41a5179430466b9f762e967a4f59c1d7cb84b2a3e21c816a9a3f718388e906b3"),
    ("dominance", "--n", "4", "--grid", "0:10:1", "--values", BENCH_VALUES, "--rule", "first-price"):
        (3, "e122fc4b429a29d27423961f9bc07b11a6bfc25727ff6791bf98dd098c0baca5"),
    ("soundness", "--n", "4", "--grid", "0:10:1"):
        (0, "709bbee72627e45a12cb3c07370f05e4e3f32cce3325c57ca92d1f2d19c04e59"),
    ("abstract", "--n-max", "8", "--value", "7/2", "--delta", "1"):
        (0, "4894e0afb3ed6ba3e21482fe1e04b3f44377d4bb3f1627151614a5b983b17131"),
    ("dominance", "--n", "3", "--grid", "0:3:1/3", "--values", "1,5/3,0"):
        (0, "509f5bf2606434fc777ab223fba95d006ae52e028a3a30ace396847f6b1cd324"),
    # grid 0, 1/3, 5/6 sweeps at scale 6 and maps each counterexample back
    ("abstract", "--n-max", "6", "--value", "1/3", "--delta", "1/2", "--rule", "first-price"):
        (3, "228dfa21125a95e5aa13cb5a8fcd9865213cc2b8457a3bfe52227db00ad70e85"),
    # taken on Fraction bids, before the soundness sweep moved to scaled integers
    ("soundness", "--n", "3", "--grid", "0:2:1/3"):
        (0, "31c372215002e9dcfa3c6e63df9cdf5f2a14173430681e7d09a3df83821eab7b"),
    # taken on the per-agent sweep, before each bid vector went through the rule once for every agent
    ("dominance", "--n", "5", "--grid", "0:6:1", "--values", "7/2,1/3,11/2,5/2,4"):
        (0, "a51332e28bdd8b778ebc6c46e27b448c627d22192593409f3a39ce36ffb1a7c0"),
    # agent 0 values the good at 0 and never gains, so the other agents' hits decide the witness
    ("dominance", "--n", "5", "--grid", "0:6:1", "--values", "0,7/2,11/3,5/2,4", "--rule", "first-price"):
        (3, "b39d2ed226779700ba2824e7292a4e8b9f798fbd165658e1e856b6b3d9358a55"),
}


@pytest.mark.parametrize("argv", sorted(VICKREY_REPORT_SHA256), ids=" ".join)
def test_vickrey_reports_are_pinned(capsys, argv):
    code, report = run_cli(capsys, "vickrey", *argv)
    text = json.dumps(strip_duration(report), indent=2, sort_keys=True) + "\n"
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == VICKREY_REPORT_SHA256[argv]


ZERO_DENOMINATOR_CASES = [
    (("dominance", "--n", "2", "--grid", "1/0:2:1", "--values", "1,2"), "1/0"),
    (("dominance", "--n", "2", "--grid", "0,1/0", "--values", "1,2"), "1/0"),
    (("dominance", "--n", "2", "--grid", "0:2:1", "--values", "1/0,2"), "1/0"),
    (("efficiency", "--values", "1,2/0"), "2/0"),
    (("soundness", "--n", "2", "--grid", "0:3/0:1"), "3/0"),
    (("abstract", "--value", "1/0", "--delta", "1"), "1/0"),
    (("abstract", "--value", "1", "--delta", "1/0"), "1/0"),
]


@pytest.mark.parametrize(
    "argv, amount", ZERO_DENOMINATOR_CASES, ids=[" ".join(argv) for argv, _ in ZERO_DENOMINATOR_CASES]
)
def test_zero_denominator_is_a_usage_error(capsys, argv, amount):
    assert main(["vickrey", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: amount '{amount}' has a zero denominator\n"


@pytest.mark.parametrize("amount", ["1e5000", "1e999999999"])
def test_exponent_amounts_are_a_usage_error(capsys, amount):
    start = time.perf_counter()
    assert main(["vickrey", "efficiency", "--values", f"{amount},1"]) == 1
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: amount '{amount}' uses exponent notation; write a decimal or a fraction\n"
    )
    assert elapsed < 0.5


# Python's int() converts at most 4300 digits by default, and its refusal names no input
LONG_NUMBER = "9" * 5000


@pytest.mark.parametrize("amount", [LONG_NUMBER, f"{LONG_NUMBER}/7"], ids=["integer", "fraction"])
def test_amounts_of_more_digits_than_int_converts_are_refused_by_their_length(capsys, amount):
    assert main(["vickrey", "efficiency", "--values", f"1,{amount}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: amount with a 5000-digit number exceeds the 4300-digit limit\n"
    # a number at the limit is read as before
    code, report = run_cli(capsys, "vickrey", "efficiency", "--values", "1," + "9" * 4300)
    assert code == 0 and report["winner_valuation"] == "9" * 4300


# a number of as many digits as int() converts, so no reader refuses it for
# the int-conversion limit
LIMIT_NUMBER = "9" * 4300

# each integer option, given a number of more digits than any count
LONG_OPTION_ARGVS = [
    ["--jobs", LONG_NUMBER, "vickrey", "maxcheck"],
    ["arrow", "--agents", LONG_NUMBER],
    ["ranksets", "check", "--axioms", "dominance", "--m", LONG_NUMBER],
    ["ranksets", "minmax", "--m", LONG_NUMBER],
    ["ranksets", "discover", "--max-m", LONG_NUMBER],
    ["vickrey", "dominance", "--n", LONG_NUMBER, "--grid", "0", "--values", "1"],
    ["vickrey", "soundness", "--n", LONG_NUMBER, "--grid", "0"],
    ["vickrey", "abstract", "--n-max", LONG_NUMBER, "--value", "1", "--delta", "1"],
    # within the int-conversion limit, these were echoed in full by the range refusals
    ["arrow", "--agents", LIMIT_NUMBER],
    ["ranksets", "minmax", "--m", LIMIT_NUMBER],
    ["ranksets", "discover", "--max-m", LIMIT_NUMBER],
    ["vickrey", "soundness", "--n", LIMIT_NUMBER, "--grid", "0"],
]


def option_refusal(argv: list[str]) -> str:
    """argparse's refusal of the option before the long number, named by
    the parser of the subcommand words before the first option."""
    first_option = next(k for k, arg in enumerate(argv) if arg.startswith("-"))
    prog = " ".join(["implab", *argv[:first_option]])
    number = next(arg for arg in argv if arg in (LONG_NUMBER, LIMIT_NUMBER))
    option = argv[argv.index(number) - 1]
    return f"{prog}: error: argument {option}: value of {len(number)} digits exceeds the 18-digit limit"


# a payoff, the difference of two amounts within the limit, whose denominator is not
PAYOFF_ARGV = [
    "vickrey", "dominance", "--n", "2", "--grid", "1/" + "9" * 2200,
    "--values", ",".join(["1/" + "9" * 2199 + "7"] * 2), "--rule", "first-price",
]
# grid points computed from two amounts within the limit, v + delta and a range's second point
ABSTRACT_POINT_ARGV = ["vickrey", "abstract", "--n-max", "2", "--value", "1/" + "9" * 2200, "--delta", "1/" + "9" * 2199 + "7"]
RANGE_POINT_ARGV = [
    "vickrey", "dominance", "--n", "2", "--values", "0,0",
    "--grid", ":".join(["1/" + "9" * 2200, "2/" + "9" * 2199 + "7", "1/" + "9" * 2199 + "7"]),
]

# (IMPLAB_BUDGET or None, argv, stdin, the last line of stderr) for each
# reader of an outside number: amounts and IMPLAB_BUDGET are refused past
# the int-conversion limit, and counts past 18 digits
LONG_NUMBER_CASES = [
    *((None, argv, "", option_refusal(argv)) for argv in LONG_OPTION_ARGVS[:8]),
    (LONG_NUMBER, ["vickrey", "maxcheck"], "", "error: IMPLAB_BUDGET of 5000 digits exceeds the 4300-digit limit"),
    (
        None,
        ["vickrey", "efficiency", "--values", f"1,{LONG_NUMBER}"],
        "",
        "error: amount with a 5000-digit number exceeds the 4300-digit limit",
    ),
    # each run of digits is within the limit, but not the numerator they make
    (
        None,
        ["vickrey", "efficiency", "--values", "1,1." + "1" * 4300],
        "",
        "error: amount with a 4301-digit number exceeds the 4300-digit limit",
    ),
    (None, ["sat", "-"], f"p cnf {LONG_NUMBER} 1\n1 0\n", "error: line 1: number of 5000 digits exceeds the 18-digit limit"),
    (
        None,
        ["sat", "-"],
        f"p cnf 1 1\nc\n1 -{LONG_NUMBER} 0\n",
        "error: line 3: number of 5000 digits exceeds the 18-digit limit",
    ),
    *((None, argv, "", option_refusal(argv)) for argv in LONG_OPTION_ARGVS[8:]),
    (
        None,
        ["sat", "-"],
        f"p cnf 1 1\nc\n1 -{LIMIT_NUMBER} 0\n",
        "error: line 3: number of 4300 digits exceeds the 18-digit limit",
    ),
    # no number at all: the refusal quotes the line's first 40 characters
    (None, ["sat", "-"], "p cnf 1 1\n" + "x" * 100_000 + "\n", f"error: line 2: non-integer literal in {'x' * 40!r}..."),
    (None, PAYOFF_ARGV, "", "error: payoff with a 4400-digit number exceeds the 4300-digit limit"),
    (None, ABSTRACT_POINT_ARGV, "", "error: grid point with a 4400-digit number exceeds the 4300-digit limit"),
    (None, RANGE_POINT_ARGV, "", "error: grid point with a 4400-digit number exceeds the 4300-digit limit"),
]
LONG_NUMBER_IDS = [
    "--jobs", "--agents", "check --m", "minmax --m", "--max-m", "dominance --n", "soundness --n", "--n-max",
    "IMPLAB_BUDGET", "integer amount", "decimal amount", "DIMACS header", "DIMACS literal",
    "--agents at the limit", "minmax --m at the limit", "--max-m at the limit", "soundness --n at the limit",
    "DIMACS literal at the limit", "DIMACS letters", "payoff", "abstract grid point", "range grid point",
]


@pytest.mark.parametrize("budget, argv, stdin, refusal", LONG_NUMBER_CASES, ids=LONG_NUMBER_IDS)
def test_every_number_reader_refuses_a_long_number_by_its_digit_count(
    capsys, monkeypatch, budget, argv, stdin, refusal
):
    if budget is None:
        monkeypatch.delenv("IMPLAB_BUDGET", raising=False)
    else:
        monkeypatch.setenv("IMPLAB_BUDGET", budget)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's refusal of an option
        code = e.code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.splitlines()[-1] == refusal
    assert len(captured.err.encode()) < 300
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "argv, prog, option, value",
    [
        (["arrow", "--agents", "\u0663"], "implab arrow", "--agents", "\u0663"),
        (["arrow", "--agents", "1_0"], "implab arrow", "--agents", "1_0"),
        (["--jobs", "1_0", "vickrey", "maxcheck"], "implab", "--jobs", "1_0"),
        (["vickrey", "soundness", "--n", "two", "--grid", "0"], "implab vickrey soundness", "--n", "two"),
    ],
)
def test_integer_options_read_only_ascii_digits(capsys, argv, prog, option, value):
    # int() alone reads the Arabic-Indic digit three as 3 and '1_0' as 10
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (1, "")
    assert captured.err.splitlines()[-1] == f"{prog}: error: argument {option}: invalid int value: {value!r}"
    # a sign and surrounding blanks are read as int() reads them
    assert build_parser().parse_args(["--jobs", " +2 ", "vickrey", "maxcheck"]).jobs == 2


NOT_ASCII_DIGITS_CASES = [
    (("dominance", "--n", "2", "--grid", "0:2:1", "--values", "\u0663,1"), "\u0663"),
    (("efficiency", "--values", "\u0663,1"), "\u0663"),
    (("soundness", "--n", "2", "--grid", "0,1_0"), "1_0"),
    (("soundness", "--n", "2", "--grid", "1_0:20:1"), "1_0"),
    (("abstract", "--value", "1_0", "--delta", "1"), "1_0"),
    (("abstract", "--value", "10", "--delta", "\u0661"), "\u0661"),
]


@pytest.mark.parametrize(
    "argv, amount", NOT_ASCII_DIGITS_CASES, ids=[" ".join(argv) for argv, _ in NOT_ASCII_DIGITS_CASES]
)
def test_non_ascii_digits_and_underscores_in_amounts_are_a_usage_error(capsys, argv, amount):
    # Fraction would read the first as 3 and the grid 1_0:20:1 as starting at 10
    assert main(["vickrey", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: amount {amount!r} is not written in ASCII digits without '_'\n"


VACUOUS_CASES = [
    (("abstract", "--n-max", "1", "--value", "1", "--delta", "1"), "--n-max must be at least 2, got 1"),
    (("soundness", "--n", "0", "--grid", "0:1:1"), "--n must be at least 1, got 0"),
    (("soundness", "--n=-1", "--grid", "0:1:1"), "--n must be at least 1, got -1"),
]


@pytest.mark.parametrize("argv, message", VACUOUS_CASES, ids=[" ".join(argv) for argv, _ in VACUOUS_CASES])
def test_vacuous_sweeps_are_refused(capsys, argv, message):
    assert main(["vickrey", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sat_command_equivalence_formula(capsys, tmp_path):
    path = tmp_path / "eq3.cnf"
    path.write_text("c equivalence\np cnf 2 2\n-1 2 0\n1 -2 0\n")
    code, report = run_cli(capsys, "sat", str(path))
    assert code == 0
    assert report["verdict"] == "SAT"
    assert report["model"]["1"] == report["model"]["2"]


def test_sat_command_unsat_exit_20(capsys, tmp_path):
    path = tmp_path / "contra.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, report = run_cli(capsys, "sat", str(path))
    assert code == 20
    assert report["verdict"] == "UNSAT"


def test_sat_command_reads_dimacs_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf 2 2\n1 2 0\n-1 0\n"))
    code, report = run_cli(capsys, "sat", "-")
    assert (code, report["verdict"], report["model"]) == (0, "SAT", {"1": False, "2": True})


def test_sat_command_parse_error_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 1 1\n2 0\n")
    code = main(["sat", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [("p cnf 1_0 1\n1_0 -2 0\n", 1), ("p cnf 2 1\n1_0 -2 0\n", 2), ("p cnf 2 1\n\u0661 -2 0\n", 2)],
)
def test_sat_command_refuses_non_ascii_integers(capsys, tmp_path, text, line):
    path = tmp_path / "bad.cnf"
    path.write_text(text, encoding="utf-8")
    assert main(["sat", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: line {line}: non-integer ")


def test_sat_header_over_the_variable_budget_exits_1_before_any_solver(capsys, monkeypatch, tmp_path):
    built = []
    solver = satkit.Solver
    monkeypatch.setattr(satkit, "Solver", lambda cnf: built.append(cnf.num_vars) or solver(cnf))
    monkeypatch.setenv("IMPLAB_BUDGET", "10")
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 11 1\n1 0\n")
    assert main(["sat", str(path)]) == 1
    assert capsys.readouterr().err == "error: header of 11 variables exceeds budget 10\n"
    assert built == []
    path.write_text("p cnf 10 1\n1 0\n")
    code, report = run_cli(capsys, "sat", str(path))
    assert code == 0 and report["num_vars"] == 10
    assert built == [10]


def test_sat_command_model_out(capsys, tmp_path):
    path = tmp_path / "sat.cnf"
    model_path = tmp_path / "model.txt"
    for dimacs, line in (("p cnf 2 1\n1 2 0\n", "v 1 2 0\n"), ("p cnf 0 0\n", "v 0\n")):
        path.write_text(dimacs)
        code, _ = run_cli(capsys, "sat", str(path), "--model-out", str(model_path))
        assert code == 0
        assert model_path.read_text() == line


def test_reports_are_deterministic_modulo_duration(capsys):
    _, first = run_cli(capsys, "arrow", "--agents", "2")
    _, second = run_cli(capsys, "arrow", "--agents", "2")
    assert strip_duration(first) == strip_duration(second)
    _, v1 = run_cli(capsys, "vickrey", "dominance", "--n", "2", "--grid", "0:3:1", "--values", "2,1")
    _, v2 = run_cli(capsys, "vickrey", "dominance", "--n", "2", "--grid", "0:3:1", "--values", "2,1")
    assert strip_duration(v1) == strip_duration(v2)


def test_jobs_flag_does_not_change_reports(capsys):
    _, seq = run_cli(capsys, "vickrey", "dominance", "--n", "3", "--grid", "0:3:1", "--values", "3,1,2")
    _, par = run_cli(
        capsys, "--jobs", "2", "vickrey", "dominance", "--n", "3", "--grid", "0:3:1", "--values", "3,1,2"
    )
    assert strip_duration({k: v for k, v in seq.items() if k != "config"}) == strip_duration(
        {k: v for k, v in par.items() if k != "config"}
    )


@pytest.mark.parametrize(
    "argv", [("arrow", "--agents", "x"), ("ranksets", "discover", "--class", "bogus")], ids=" ".join
)
def test_usage_errors_exit_1_with_usage_text(capsys, argv):
    # exit 2 is reserved for a disagreement between the enumeration and SAT routes
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"usage: implab {argv[0]}")
    assert f"error: argument {argv[-2]}: invalid" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("ranksets", "discover", "--prune"),
        ("vickrey", "maxcheck", "--trials", "1"),
        ("vickrey", "maxcheck", "--seed", "0"),
    ],
    ids=" ".join,
)
def test_dropped_knobs_are_unrecognized_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[2:])}" in captured.err


# every command's own options, positionals by their name; a new knob edits this table
OPTION_TABLE = {
    "": ("--output", "--summary", "--jobs"),
    "arrow": ("--agents", "--drop-axiom", "--count-models", "--emit-dimacs"),
    "ranksets": (),
    "ranksets check": ("--axioms", "--m", "--class", "--emit-dimacs"),
    "ranksets minmax": ("--m", "--axiom"),
    "ranksets discover": ("--max-m", "--class"),
    "vickrey": (),
    "vickrey dominance": ("--n", "--grid", "--values", "--rule"),
    "vickrey efficiency": ("--values", "--rule"),
    "vickrey soundness": ("--n", "--grid", "--rule"),
    "vickrey abstract": ("--n-max", "--value", "--delta", "--rule"),
    "vickrey maxcheck": (),
    "sat": ("path", "--model-out"),
}


def _option_table(parser: argparse.ArgumentParser, command: str = "") -> dict[str, tuple[str, ...]]:
    table = {command: ()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_option_table(sub, f"{command} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            table[command] += tuple(action.option_strings) or (action.dest,)
    return table


def test_option_surface_is_pinned():
    table = _option_table(build_parser())
    assert table == OPTION_TABLE
    assert sum(map(len, table.values())) == 30


def test_parser_choices_are_the_layers_own_names(capsys):
    # listed in cli so that parsing imports no layer
    assert list(AXIOM_NAMES) == [a.value for a in ranksets.Axiom]
    assert list(CLASS_NAMES) == [c.value for c in ranksets.RelationClass]
    assert list(RULE_NAMES) == sorted(auctions.RULES)
    with pytest.raises(SystemExit) as exc:
        main(["ranksets", "discover", "--class", "bogus"])
    assert exc.value.code == 1
    assert "invalid choice: 'bogus' (choose from 'transitive', 'weak', 'linear')\n" in capsys.readouterr().err


# (argv, stdin, the layers that command imports)
COMMAND_LAYERS = [
    (("vickrey", "efficiency", "--values", "3,1"), "", ["auctions"]),
    (("ranksets", "minmax", "--m", "3"), "", ["orders", "ranksets", "satkit"]),
    (("ranksets", "discover", "--max-m", "2"), "", ["orders", "ranksets", "satkit"]),
    (("arrow", "--agents", "1"), "", ["orders", "satkit", "swf"]),
    (("sat", "-"), "p cnf 2 2\n1 2 0\n-1 0\n", ["satkit"]),
]


@pytest.mark.parametrize("argv, stdin, layers", COMMAND_LAYERS, ids=[" ".join(c[0]) for c in COMMAND_LAYERS])
def test_each_command_imports_only_the_layers_it_runs(argv, stdin, layers):
    code = (
        "import sys, implab.cli\n"
        f"status = implab.cli.main({list(argv)!r})\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('implab.'))))\n"
        "sys.exit(status)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], input=stdin, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stderr) == sorted(["implab.cli", *(f"implab.{m}" for m in layers)])


@pytest.mark.parametrize(
    "agents, status, verdict, stderr",
    [("1", 0, "impossibility holds", ""), ("9", 1, None, "error: agent count 9 outside supported range 1..8\n")],
)
def test_the_cli_module_runs_as_a_script(agents, status, verdict, stderr):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "implab.cli", "arrow", "--agents", agents]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (status, stderr)
    assert (json.loads(out.stdout)["verdict"] if out.stdout else None) == verdict


def test_the_package_root_binds_only_its_version_and_loads_no_layer():
    # each name has one import path, its module's: implab.satkit.Cnf, not implab.Cnf
    code = (
        "import sys, implab; print(sorted(m for m in sys.modules if m.startswith('implab.')), "
        "sorted(name for name in vars(implab) if not name.startswith('__')), implab.__version__)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[] [] 0.1.0\n"


def test_no_module_imports_random():
    # every verdict is exhaustive; none is drawn from a random sample
    for path in sorted(Path(implab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "random" not in [m.split(".")[0] for m in modules], path.name


def test_every_module_parses_at_the_declared_python_floor():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    paths = sorted(Path(implab.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))


# Program names that perfbench/layers.py hooks but that are no longer bound
# where it looks; its traced runs print them as "names not found to trace".
UNTRACED = {
    "implab.auctions.check_abstract_dominance",
    "implab.orders.all_profiles",
    "implab.ranksets.solve",
    "implab.satkit.decode_model",
    "implab.satkit.encode_arrow",
    "implab.swf.all_profiles",
    "implab.swf.evaluate",
}


def test_benchmark_tracer_finds_every_other_name_it_hooks():
    # a program change that unbinds a traced name silently zeroes its layer metrics
    code = "from layers import Tracer; t = Tracer(); t.install(); print(sorted(t.missing))"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}  # no cache under perfbench/
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert set(ast.literal_eval(out.stdout)) <= UNTRACED


def test_minmax_takes_no_class_flag(capsys):
    # the min-max ordering is one fixed relation; no relation class applies to it
    with pytest.raises(SystemExit) as exc:
        main(["ranksets", "minmax", "--m", "4", "--class", "transitive"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: implab")
    assert "error: unrecognized arguments: --class transitive" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ranksets", "discover", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: implab ranksets discover")


def test_jobs_below_one_exits_1(capsys):
    assert main(["--jobs", "0", "vickrey", "efficiency", "--values", "3,1"]) == 1
    assert "--jobs must be at least 1, got 0" in capsys.readouterr().err


def test_range_grid_over_budget_exits_1_before_sweeping(capsys):
    code = main(["vickrey", "soundness", "--n", "1", "--grid", "0:100000000:1"])
    assert code == 1
    assert "grid of 100000001 points exceeds budget" in capsys.readouterr().err


def test_list_grid_over_budget_exits_1_like_a_range(capsys, monkeypatch):
    monkeypatch.setenv("IMPLAB_BUDGET", "100")
    for grid in (",".join(map(str, range(11))), "0:10:1"):
        assert main(["vickrey", "soundness", "--n", "2", "--grid", grid]) == 1
        assert capsys.readouterr().err == "error: grid of 11 points over 2 bidders exceeds budget 100\n"


def test_range_grid_is_sized_against_the_sweep_before_it_is_built(capsys):
    started = time.perf_counter()
    code = main(["vickrey", "dominance", "--n", "2", "--grid", "0:9999999:1", "--values", "1,2"])
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert capsys.readouterr().err == "error: grid of 10000000 points over 2 bidders exceeds budget 10000000\n"
    assert main(["vickrey", "soundness", "--n", "3", "--grid", "0:9999999:1"]) == 1
    assert capsys.readouterr().err == "error: grid of 10000000 points over 3 bidders exceeds budget 10000000\n"


def test_dominance_below_two_bidders_is_refused_before_the_grid_is_built(capsys):
    # a million Fraction points would take over 100 MB
    tracemalloc.start()
    try:
        code = main(["vickrey", "dominance", "--n", "1", "--grid", "0:999999:1", "--values", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: dominance check needs more than one participant, got 1\n"
    assert peak < 1 << 20


def test_grid_of_a_count_beyond_29_digits_is_refused_in_closed_form(capsys):
    # the point count has 5000 digits, past Python's limit for converting an int to str
    grid = f"0:{'9' * 4000}:1/1{'0' * 1000}"
    assert main(["vickrey", "soundness", "--n", "1", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: grid of at least 10^29 points exceeds budget 10000000\n")


@pytest.mark.parametrize(
    "budget, argv, expected",
    [
        ("121", ("soundness", "--n", "2", "--grid", "0:10:1"),
         "19899a77148b8ce753335ea3b00ab96ba4d5ea7c06d494e313a52ac2589dba51"),
        ("18", ("dominance", "--n", "2", "--values", "1,2", "--grid", "0:2:1"),
         "1baae10116700f7494038d823f173c343e65b1d4e2e84358efb5cd1ad73ba6e6"),
    ],
    ids=["soundness", "dominance"],
)
def test_grids_just_within_budget_give_the_pinned_reports(capsys, monkeypatch, budget, argv, expected):
    # taken before the three sweeps shared one budget rule
    monkeypatch.setenv("IMPLAB_BUDGET", budget)
    code, report = run_cli(capsys, "vickrey", *argv)
    text = json.dumps(strip_duration(report), indent=2, sort_keys=True) + "\n"
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, expected)


def test_abstract_sweep_over_budget_is_refused_before_any_rule_call(capsys, monkeypatch):
    calls = []
    rule = auctions.RULES["second-price"]
    monkeypatch.setitem(auctions.RULES, "second-price", lambda bids: calls.append(bids) or rule(bids))
    monkeypatch.setenv("IMPLAB_BUDGET", "100")
    # grid 0, 1, 2: 3**n cells, which grow with n, so the n = 10 sweep decides
    assert main(["vickrey", "abstract", "--n-max", "10", "--value", "1", "--delta", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: dominance sweep of 59049 cells exceeds budget 100\n")
    assert calls == []


@pytest.mark.parametrize("value, k", [("1", 3), ("0", 2)])
@pytest.mark.parametrize("n_max", [2, 5])
def test_abstract_sweep_runs_at_k_to_the_n_max_cells_and_is_refused_one_below(capsys, monkeypatch, value, k, n_max):
    calls = []
    rule = auctions.RULES["second-price"]
    monkeypatch.setitem(auctions.RULES, "second-price", lambda bids: calls.append(bids) or rule(bids))
    argv = ["vickrey", "abstract", "--n-max", str(n_max), "--value", value, "--delta", "1"]
    # the grid holds the value, so agent 0 has k deviations and the largest sweep k**n_max cells
    monkeypatch.setenv("IMPLAB_BUDGET", str(k**n_max - 1))
    assert main(argv) == 1
    captured = capsys.readouterr()
    refusal = f"error: dominance sweep of {k**n_max} cells exceeds budget {k**n_max - 1}\n"
    assert (captured.out, captured.err) == ("", refusal)
    assert calls == []
    monkeypatch.setenv("IMPLAB_BUDGET", str(k**n_max))
    code, report = run_cli(capsys, *argv)
    assert (code, [e["n"] for e in report["per_n"]]) == (0, list(range(2, n_max + 1)))
    assert [e["cells"] for e in report["per_n"]] == [k**n for n in range(2, n_max + 1)]


def test_soundness_sweep_over_more_bidders_than_the_budget_is_refused_before_any_rule_call(
    capsys, monkeypatch
):
    calls = []
    rule = auctions.RULES["second-price"]
    monkeypatch.setitem(auctions.RULES, "second-price", lambda bids: calls.append(bids) or rule(bids))
    monkeypatch.setenv("IMPLAB_BUDGET", "100")
    # a one-point grid has one bid vector at any n, but it holds n bids
    assert main(["vickrey", "soundness", "--n", "101", "--grid", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: soundness sweep over 101 bidders exceeds budget 100\n")
    assert calls == []
    code, report = run_cli(capsys, "vickrey", "soundness", "--n", "100", "--grid", "0")
    assert (code, report["verdict"], report["swept"]) == (0, "sound", 1)
    assert calls == [(0,) * 100] * auctions.SOUNDNESS_RUNS


def test_dominance_sweep_over_more_bids_than_the_budget_is_refused_before_any_rule_call(
    capsys, monkeypatch
):
    calls = []
    rule = auctions.RULES["second-price"]
    monkeypatch.setitem(auctions.RULES, "second-price", lambda bids: calls.append(bids) or rule(bids))
    monkeypatch.setenv("IMPLAB_BUDGET", "100")
    # a one-point grid has 2n cells at most, but each of the n agents' payoffs takes n-bid vectors
    assert main(["vickrey", "dominance", "--n", "11", "--grid", "0", "--values", ",".join("1" * 11)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: dominance sweep over 11 bidders exceeds budget 100\n")
    assert calls == []
    argv = ["vickrey", "dominance", "--n", "10", "--grid", "0", "--values", ",".join("1" * 10)]
    code, report = run_cli(capsys, *argv)
    text = json.dumps(strip_duration(report), indent=2, sort_keys=True) + "\n"
    # taken before the bidder check was added
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == (
        0,
        "c57d13ccd0d088117083c43d19c7e99620d2d202ae218949763bac6ef21e9e93",
    )
    assert calls


def test_abstract_negative_value_is_refused_by_name(capsys):
    assert main(["vickrey", "abstract", "--value", "-1", "--delta", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: negative value -1\n")


def test_grids_at_the_point_limit_give_the_same_reports(capsys, monkeypatch):
    dominance = ["vickrey", "dominance", "--n", "2", "--values", "1,2", "--grid"]
    soundness = ["vickrey", "soundness", "--n", "3", "--grid"]
    full = [run_cli(capsys, *dominance, "0:2:1"), run_cli(capsys, *soundness, "0:1:1")]
    # 2 agents * 3**1 * 3 = 18 dominance cells and k**n = 2**3 = 8 bid vectors
    monkeypatch.setenv("IMPLAB_BUDGET", "18")
    code, report = run_cli(capsys, *dominance, "0:2:1")
    assert (code, strip_duration(report)) == (full[0][0], strip_duration(full[0][1]))
    assert report["cells"] == 18
    # 4**2 = 16 is within budget, so the grid is built, and its 32 cells are refused
    assert main([*dominance, "0:3:1"]) == 1
    assert capsys.readouterr().err == "error: dominance sweep of 32 cells exceeds budget 18\n"
    monkeypatch.setenv("IMPLAB_BUDGET", "8")
    code, report = run_cli(capsys, *soundness, "0:1:1")
    assert (code, strip_duration(report)) == (full[1][0], strip_duration(full[1][1]))
    assert main([*soundness, "0:2:1"]) == 1
    assert capsys.readouterr().err == "error: grid of 3 points over 3 bidders exceeds budget 8\n"


def test_internal_check_failure_exits_4_without_a_traceback(capsys, monkeypatch, tmp_path):
    path = tmp_path / "eq.cnf"
    path.write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")
    monkeypatch.setattr(satkit, "_check_model", lambda clauses, assignment: False)
    assert main(["sat", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solver bug: produced assignment fails verification\n"


@pytest.mark.parametrize(
    "argv",
    [["ranksets", "check", "--axioms", "dominance", "--m", "3"], ["ranksets", "discover", "--max-m", "3"]],
    ids=["check", "discover"],
)
def test_ranksets_model_outside_its_class_exits_4(capsys, monkeypatch, argv):
    # without the class clauses the solver returns a model that is no linear order
    monkeypatch.setattr(ranksets, "_class_clauses", lambda u, relation_class: [])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: encoder bug: model decodes to an invalid relation (declared class linear does not hold: "
    )


def test_output_flag_writes_report_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--output", str(out), "vickrey", "efficiency", "--values", "3,1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "report written to" in printed
    report = json.loads(out.read_text())
    assert report["verdict"] == "holds"


def test_summary_prints_the_verdict_on_stderr(capsys):
    assert main(["--summary", "vickrey", "efficiency", "--values", "3,1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "holds"
    assert captured.err == "vickrey: verdict=holds\n"


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_1_without_a_traceback(capsys, tmp_path, target):
    out = tmp_path / target
    assert main(["--output", str(out), "vickrey", "efficiency", "--values", "3,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_config_is_echoed(capsys):
    _, report = run_cli(capsys, "vickrey", "efficiency", "--values", "3,1")
    assert report["config"]["values"] == "3,1"
    assert report["tool"] == "implab"
    assert report["version"]


def test_budget_env_var_overrides_caps(capsys, monkeypatch):
    monkeypatch.setenv("IMPLAB_BUDGET", "10")
    code = main(["arrow", "--agents", "2"])
    assert code == 1
    assert "exceeds budget 10" in capsys.readouterr().err
    monkeypatch.setenv("IMPLAB_BUDGET", "100000")
    code = main(["arrow", "--agents", "2"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("raw", ["abc", "-3"])
def test_budget_env_var_must_be_a_non_negative_integer(capsys, monkeypatch, raw):
    monkeypatch.setenv("IMPLAB_BUDGET", raw)
    assert main(["vickrey", "soundness", "--n", "2", "--grid", "0:1:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: IMPLAB_BUDGET must be a non-negative integer, got '{raw}'\n"


def test_a_budget_of_more_digits_than_int_converts_is_refused_by_its_length(capsys, monkeypatch):
    monkeypatch.setenv("IMPLAB_BUDGET", LONG_NUMBER)
    assert main(["arrow", "--agents", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: IMPLAB_BUDGET of 5000 digits exceeds the 4300-digit limit\n"


def test_ranksets_emit_dimacs(capsys, tmp_path):
    path = tmp_path / "rs.cnf"
    code, _ = run_cli(
        capsys, "ranksets", "check", "--axioms", "aversion,appeal", "--m", "3",
        "--emit-dimacs", str(path),
    )
    assert code == 0
    header = path.read_text().splitlines()[0].split()
    assert header[:2] == ["p", "cnf"] and int(header[2]) == 49
    sidecar = path.with_name(path.name + ".vars.json").read_bytes()
    assert json.loads(sidecar)["1"] == "geq({a},{a})"
    assert len(sidecar) == 1310
    assert hashlib.sha256(sidecar).hexdigest() == "4f47b5b7fb94561e506abe7d95a51f3ee43c9c68063fa7a90afe31ed6eb04547"


def test_ranksets_emit_dimacs_is_written_before_the_solve(capsys, monkeypatch, tmp_path):
    path = tmp_path / "rs.cnf"

    def failing_solve(cnf):
        raise RuntimeError("solver stopped")

    monkeypatch.setattr(satkit, "solve", failing_solve)
    code = main(
        ["ranksets", "check", "--axioms", "aversion,appeal", "--m", "3", "--emit-dimacs", str(path)]
    )
    assert code == 4
    assert capsys.readouterr().err == "error: solver stopped\n"
    header = path.read_text().splitlines()[0].split()
    assert header[:3] == ["p", "cnf", "49"]
    assert (tmp_path / "rs.cnf.vars.json").exists()


def readme_commands() -> list[list[str]]:
    """The `implab ...` lines of the README's command block, as argv lists."""
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("implab ")]


def test_readme_package_layout_names_every_module():
    block = re.search(r"## Package layout\n\n```\nsrc/implab/\n(.*?)```", README.read_text(), re.S).group(1)
    named = re.findall(r"^  (\w+\.py) ", block, re.M)
    package = Path(swf.__file__).parent
    assert sorted(named) == sorted(p.name for p in package.glob("*.py"))


def readme_budget_examples() -> list[tuple[str | None, list[str], str]]:
    """(IMPLAB_BUDGET or None, argv, message) of each `implab ...` example that
    the README's Budgets section says exits 1 with a quoted message."""
    section = re.search(r"### Budgets\n(.*?)\n## ", README.read_text(), re.S).group(1)
    pattern = r'`(?:IMPLAB_BUDGET=(\d+) )?implab ([^`]+)` exits 1 (?:at once )?with "([^"]+)"'
    return [
        (budget or None, shlex.split(command), message)
        for budget, command, message in re.findall(pattern, " ".join(section.split()))
    ]


def test_readme_budget_examples_print_their_messages(capsys, monkeypatch):
    examples = readme_budget_examples()
    assert len(examples) == 9
    for budget, argv, message in examples:
        if budget is None:
            monkeypatch.delenv("IMPLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("IMPLAB_BUDGET", budget)
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.cnf").write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")
    commands = readme_commands()
    assert len(commands) == 14
    for argv in commands:
        expected = 3 if "first-price" in argv else 0  # the mutant rule's counterexample
        assert main(argv) == expected, argv
        capsys.readouterr()


def test_reports_and_sidecars_are_the_libraries_indented_sorted_json(capsys, monkeypatch, tmp_path):
    # cli writes its own JSON text; it must stay json.dumps(o, indent=2, sort_keys=True)'s
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.cnf").write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")
    encoded = []
    iterencode = cli._ReportEncoder.iterencode
    monkeypatch.setattr(
        cli._ReportEncoder, "iterencode", lambda self, o, _one_shot=False: encoded.append(o) or iterencode(self, o)
    )
    commands = readme_commands() + [
        ["arrow", "--agents", "3", "--drop-axiom", "un", "--count-models"],
        ["ranksets", "check", "--axioms", "aversion,appeal", "--m", "3", "--emit-dimacs", "rs.cnf"],
    ]
    for argv in commands:
        encoded.clear()
        main(argv)
        *sidecars, report = encoded
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n", argv
        if "--emit-dimacs" in argv:
            (names,) = sidecars
            path = tmp_path / (argv[argv.index("--emit-dimacs") + 1] + ".vars.json")
            assert path.read_text() == json.dumps(names, indent=2, sort_keys=True) + "\n", argv
        else:
            assert sidecars == [], argv
    assert sorted(p.name for p in tmp_path.glob("*.vars.json")) == ["arrow.cnf.vars.json", "rs.cnf.vars.json"]


def test_report_encoder_matches_the_library_and_refuses_what_no_report_holds():
    encode = cli._ReportEncoder().encode
    value = {"b": [1, -2, 2**70, 0.1, 1e-7, True, False, None], "a": {}, "é\n": ("x", [], {"z": [[]]})}
    assert encode(value) == json.dumps(value, indent=2, sort_keys=True)
    assert encode([]) == "[]" and encode("☃") == '"\\u2603"'
    for bad in ({1: 2}, {"a": {1, 2}}, [Fraction(1, 2)], 1j):
        with pytest.raises(TypeError):
            encode(bad)
    with pytest.raises(ValueError):
        encode([float("nan")])


GC_FAMILIES = [
    ["arrow", "--agents", "2", "--drop-axiom", "nd", "--count-models", "--emit-dimacs", "arrow.cnf"],
    ["ranksets", "discover", "--max-m", "3"],
    ["vickrey", "dominance", "--n", "2", "--grid", "0:3:1", "--values", "2,1"],
    ["vickrey", "abstract", "--n-max", "3", "--value", "7/2", "--delta", "1"],
    ["sat", "problem.cnf"],
]


@pytest.mark.parametrize("argv", GC_FAMILIES, ids=" ".join)
def test_a_command_leaves_no_cyclic_garbage(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.cnf").write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")
    main(argv)  # the first run fills the caches and builds the parser
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_classify_reads_range_of_through_the_module_and_the_traced_names_stay_bound(monkeypatch):
    # perfbench/layers.py times these three by replacing the module attributes
    for name in ("enumerate_iia_swfs", "classify", "range_of"):
        assert callable(getattr(swf, name)), name
    seen = []
    range_of = swf.range_of
    monkeypatch.setattr(swf, "range_of", lambda s: seen.append(s) or range_of(s))
    small = swf.PairwiseSwf(2, (0b1111, 0b1111, 0b0111))
    assert swf.classify(small).tag == swf.SMALL_RANGE
    assert seen == [small]
    dictator = swf.PairwiseSwf(1, (0b01, 0b01, 0b01))
    assert swf.classify(dictator).tag == swf.DICTATORIAL
    assert seen == [small]  # a dictator is found by its tables
