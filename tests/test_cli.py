import hashlib
import json
import time
from pathlib import Path

import pytest

from implab import satkit, swf
from implab.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


def test_jobs_below_one_exits_1(capsys):
    assert main(["--jobs", "0", "vickrey", "efficiency", "--values", "3,1"]) == 1
    assert "--jobs must be at least 1, got 0" in capsys.readouterr().err


def test_jobs_with_prune_exits_1(capsys):
    assert main(["--jobs", "2", "ranksets", "discover", "--max-m", "3", "--prune"]) == 1
    assert "runs serially; got jobs=2" in capsys.readouterr().err


def test_range_grid_over_budget_exits_1_before_sweeping(capsys):
    code = main(["vickrey", "soundness", "--n", "1", "--grid", "0:100000000:1"])
    assert code == 1
    assert "grid of 100000001 points exceeds budget" in capsys.readouterr().err


def test_range_grid_is_sized_against_the_sweep_before_it_is_built(capsys):
    started = time.perf_counter()
    code = main(["vickrey", "dominance", "--n", "2", "--grid", "0:9999999:1", "--values", "1,2"])
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert "grid of 10000000 points exceeds budget 2236" in capsys.readouterr().err
    assert main(["vickrey", "soundness", "--n", "3", "--grid", "0:9999999:1"]) == 1
    assert "exceeds budget 215" in capsys.readouterr().err


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
