import hashlib
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from implab import auctions, satkit, swf
from implab.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


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
    sidecar = json.loads((tmp_path / "arrow.cnf.vars.json").read_text())
    assert sidecar["1"] == "ab:00"
    assert len(sidecar) == 12


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
    assert captured.err == "error: candidate space of 2^(3*2^64) table triples exceeds budget 16777216\n"
    assert elapsed < 0.5


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


def test_ranksets_discover_prune_findings_are_pinned(capsys):
    expected = {
        "linear": "9c2de9cbb03ed62a83f047a7710f0d31a3335ee73504473db9070164e88cb7f9",
        "transitive": "d84e7f86f7c6058ba78f2f5e8dfdb961d7f0458640d30c4292f3207b2f3add7b",
    }
    for cls, digest in expected.items():
        code, report = run_cli(capsys, "ranksets", "discover", "--max-m", "4", "--prune", "--class", cls)
        assert code == 0
        text = json.dumps(report["findings"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, cls


# sha256 of each report without duration_seconds, taken before linear-order
# transitivity became one clause per 3-cycle
RANKSETS_REPORT_SHA256 = {
    ("discover", "--max-m", "5"): "78d93f7d8155e2a9f5710c2683e02c5b8ad44f2c744a91476e09a603305966f6",
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


def test_vickrey_maxcheck_seeded(capsys):
    code, report = run_cli(capsys, "vickrey", "maxcheck", "--trials", "200", "--seed", "7")
    assert code == 0
    assert report["verdict"] == "equivalent"
    assert report["disagreements"] == 0


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


VACUOUS_CASES = [
    (("abstract", "--n-max", "1", "--value", "1", "--delta", "1"), "--n-max must be at least 2, got 1"),
    (("maxcheck", "--trials", "-1"), "--trials must be at least 1, got -1"),
    (("maxcheck", "--trials", "0"), "--trials must be at least 1, got 0"),
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


def test_sat_command_parse_error_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 1 1\n2 0\n")
    code = main(["sat", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_sat_header_over_the_variable_budget_exits_1_before_any_solver(capsys, monkeypatch, tmp_path):
    built = []
    solver = satkit.Solver
    monkeypatch.setattr(satkit, "Solver", lambda *a: built.append(a[0]) or solver(*a))
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
    path.write_text("p cnf 2 1\n1 2 0\n")
    model_path = tmp_path / "model.txt"
    code, _ = run_cli(capsys, "sat", str(path), "--model-out", str(model_path))
    assert code == 0
    assert model_path.read_text().startswith("v ")
    assert model_path.read_text().strip().endswith("0")


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


def test_jobs_with_prune_gives_the_serial_report(capsys):
    argv = ("ranksets", "discover", "--max-m", "3", "--prune")
    code, par = run_cli(capsys, "--jobs", "2", *argv)
    assert code == 0
    _, seq = run_cli(capsys, "--jobs", "1", *argv)
    assert any(f["pruned"] for f in seq["findings"])
    assert {k: v for k, v in strip_duration(par).items() if k != "config"} == {
        k: v for k, v in strip_duration(seq).items() if k != "config"
    }


def test_range_grid_over_budget_exits_1_before_sweeping(capsys):
    code = main(["vickrey", "soundness", "--n", "1", "--grid", "0:100000000:1"])
    assert code == 1
    assert "grid of 100000001 points exceeds budget" in capsys.readouterr().err


def test_list_grid_over_budget_exits_1_like_a_range(capsys, monkeypatch):
    monkeypatch.setenv("IMPLAB_BUDGET", "100")
    for grid in (",".join(map(str, range(11))), "0:10:1"):
        assert main(["vickrey", "soundness", "--n", "2", "--grid", grid]) == 1
        assert capsys.readouterr().err == "error: grid of 11 points exceeds budget 10\n"


def test_range_grid_is_sized_against_the_sweep_before_it_is_built(capsys):
    started = time.perf_counter()
    code = main(["vickrey", "dominance", "--n", "2", "--grid", "0:9999999:1", "--values", "1,2"])
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert "grid of 10000000 points exceeds budget 2236" in capsys.readouterr().err
    assert main(["vickrey", "soundness", "--n", "3", "--grid", "0:9999999:1"]) == 1
    assert "exceeds budget 215" in capsys.readouterr().err


def test_abstract_sweep_over_budget_is_refused_before_any_rule_call(capsys, monkeypatch):
    calls = []
    rule = auctions.RULES["second-price"]
    monkeypatch.setitem(auctions.RULES, "second-price", lambda bids: calls.append(bids) or rule(bids))
    monkeypatch.setenv("IMPLAB_BUDGET", "100")
    # grid 0, 1, 2: 3**n cells, and n = 5 is the first over 100
    assert main(["vickrey", "abstract", "--n-max", "10", "--value", "1", "--delta", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: abstract sweep of 243 cells exceeds budget 100\n")
    assert calls == []


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


def test_abstract_negative_value_is_refused_by_name(capsys):
    assert main(["vickrey", "abstract", "--value", "-1", "--delta", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: negative value -1\n")


def test_grids_at_the_point_limit_give_the_same_reports(capsys, monkeypatch):
    dominance = ["vickrey", "dominance", "--n", "2", "--values", "1,2", "--grid"]
    soundness = ["vickrey", "soundness", "--n", "3", "--grid"]
    full = [run_cli(capsys, *dominance, "0:2:1"), run_cli(capsys, *soundness, "0:1:1")]
    # n * k**n = 2 * 3**2 = 18 dominance cells and k**n = 2**3 = 8 bid vectors, at most
    monkeypatch.setenv("IMPLAB_BUDGET", "18")
    code, report = run_cli(capsys, *dominance, "0:2:1")
    assert (code, strip_duration(report)) == (full[0][0], strip_duration(full[0][1]))
    assert report["cells"] == 18
    assert main([*dominance, "0:3:1"]) == 1
    assert "grid of 4 points exceeds budget 3" in capsys.readouterr().err
    monkeypatch.setenv("IMPLAB_BUDGET", "8")
    code, report = run_cli(capsys, *soundness, "0:1:1")
    assert (code, strip_duration(report)) == (full[1][0], strip_duration(full[1][1]))
    assert main([*soundness, "0:2:1"]) == 1
    assert "grid of 3 points exceeds budget 2" in capsys.readouterr().err


def test_internal_check_failure_exits_4_without_a_traceback(capsys, monkeypatch, tmp_path):
    path = tmp_path / "eq.cnf"
    path.write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")
    monkeypatch.setattr(satkit, "_check_model", lambda clauses, assignment: False)
    assert main(["sat", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solver bug: produced assignment fails verification\n"


def test_output_flag_writes_report_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--output", str(out), "vickrey", "efficiency", "--values", "3,1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "report written to" in printed
    report = json.loads(out.read_text())
    assert report["verdict"] == "holds"


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_1_without_a_traceback(capsys, tmp_path, target):
    out = tmp_path / target
    assert main(["--output", str(out), "vickrey", "maxcheck", "--trials", "1"]) == 1
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


def test_ranksets_emit_dimacs(capsys, tmp_path):
    path = tmp_path / "rs.cnf"
    code, _ = run_cli(
        capsys, "ranksets", "check", "--axioms", "aversion,appeal", "--m", "3",
        "--emit-dimacs", str(path),
    )
    assert code == 0
    header = path.read_text().splitlines()[0].split()
    assert header[:2] == ["p", "cnf"] and int(header[2]) == 49
    sidecar = json.loads((path.with_name(path.name + ".vars.json")).read_text())
    assert sidecar["1"] == "geq({a},{a})"


def readme_commands() -> list[list[str]]:
    """The `implab ...` lines of the README's command block, as argv lists."""
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("implab ")]


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.cnf").write_text("p cnf 2 2\n-1 2 0\n1 -2 0\n")
    commands = readme_commands()
    assert len(commands) == 14
    for argv in commands:
        expected = 3 if "first-price" in argv else 0  # the mutant rule's counterexample
        assert main(argv) == expected, argv
        capsys.readouterr()
