"""Batch command line front end.

Every subcommand emits one JSON report (stdout, or --output PATH with a
one-line summary on stdout instead).  Reports are deterministic given the
flags, except for the duration_seconds field.  Exit codes: 0 success,
1 usage/budget/parse error, 2 cross-route disagreement (arrow), 3 property
counterexample or soundness violation (vickrey), 4 an internal check failed
(a solver model that fails its clauses, a model that decodes to an invalid
object, an auction rule with an unsound outcome), 20 UNSAT (sat).

The IMPLAB_BUDGET environment variable, a non-negative integer, overrides
the enumeration and sweep budgets of the underlying modules and the number
of variables a `sat` header may declare.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import __version__
from . import auctions, ranksets, satkit, swf
from .ranksets import Axiom, RelationClass, Universe


def _budget(default: int) -> int:
    raw = os.environ.get("IMPLAB_BUDGET")
    if not raw:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"IMPLAB_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw)


def _emit_dimacs(cnf: satkit.Cnf, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(satkit.to_dimacs(cnf))
    names = {str(v): name for v, name in (cnf.var_names or {}).items()}
    with open(path + ".vars.json", "w", encoding="utf-8") as f:
        json.dump(names, f, indent=2, sort_keys=True)
        f.write("\n")


def _dominance_ce_json(ce: auctions.DominanceCounterexample) -> dict:
    return {
        "agent": ce.agent,
        "truthful_bids": list(map(str, ce.truthful_bids)),
        "deviation_bids": list(map(str, ce.deviation_bids)),
        "truthful_payoff": str(ce.truthful_payoff),
        "deviation_payoff": str(ce.deviation_payoff),
    }


def cmd_arrow(args) -> tuple[dict, int]:
    axioms = {swf.UN, swf.ND} - {a.upper() for a in args.drop_axiom}
    budget = _budget(swf.DEFAULT_CANDIDATE_BUDGET)

    swfs = swf.enumerate_iia_swfs(args.agents, budget)
    classes = {s: swf.classify(s) for s in swfs}
    census = swf.census(classes)
    recount = swf.recount_small_range(args.agents)
    un = swf.survivors(classes, {swf.UN})
    expected = swf.survivors(classes, axioms)

    enc = swf.encode_arrow(args.agents, axioms)
    if args.emit_dimacs:
        _emit_dimacs(enc.cnf, args.emit_dimacs)
    # one AllSAT run gives both the verdict (SAT iff it finds a model) and the model set
    run = satkit.enumerate_models(enc.cnf, limit=len(expected) + 1)
    decoded = [swf.decode_model(enc, m) for m in run.models]
    agree = not run.truncated and set(decoded) == set(expected) and recount == census[swf.SMALL_RANGE]
    sat = bool(decoded)

    if axioms == {swf.UN, swf.ND}:
        holds = not sat and not expected
        verdict = "impossibility holds" if holds else "impossibility falsified"
    else:
        verdict = "SAT" if sat else "UNSAT"

    payload = {
        "verdict": verdict,
        "iia_count": len(swfs),
        "census": census,
        "small_range_recount": recount,
        "tang_lin_holds": census[swf.UNCLASSIFIED] == 0,
        "un_survivors": len(un),
        "un_survivor_classes": [swf.swf_class_to_json(classes[s]) for s in un],
        "un_survivor_swfs": [swf.pairwise_to_json(s) for s in un],
        "wilson_survivors": len(swf.onto_survivors(classes)),
        "sat_axioms": sorted(axioms),
        "sat_verdict": "SAT" if sat else "UNSAT",
        "sat_model_count": len(decoded),
        "sat_models_truncated": run.truncated,
        "cross_check_agree": agree,
    }
    if args.count_models:
        payload["models"] = [swf.pairwise_to_json(s) for s in decoded]
    return payload, 0 if agree else 2


def cmd_ranksets(args) -> tuple[dict, int]:
    if args.ranksets_cmd == "check":
        cls = RelationClass(args.relation_class)
        u = Universe(args.m)
        axioms = [Axiom(a) for a in args.axioms.split(",")]
        cnf = ranksets.encode_ranksets(u, axioms, cls)
        res = satkit.solve(cnf)
        if args.emit_dimacs:
            _emit_dimacs(cnf, args.emit_dimacs)
        payload = {
            "verdict": "SAT" if res.satisfiable else "UNSAT",
            "m": args.m,
            "class": cls.value,
            "axioms": [a.value for a in axioms],
            "num_vars": cnf.num_vars,
            "num_clauses": len(cnf.clauses),
            "model": None,
        }
        if res.satisfiable:
            rel = ranksets.decode_ranksets(u, res.assignment, cls)
            checks = [ranksets.check_relation(rel, ax) for ax in axioms]
            if not all(c.holds for c in checks):
                raise RuntimeError("decoded model fails an enabled axiom; encoder bug")
            payload["model"] = ranksets.relation_to_json(rel)
        return payload, 0
    if args.ranksets_cmd == "minmax":
        u = Universe(args.m)
        rel = ranksets.minmax_relation(u)
        wanted = [Axiom(args.axiom)] if args.axiom else list(ranksets.CATALOG)
        results = {}
        for ax in wanted:
            chk = ranksets.check_relation(rel, ax)
            results[ax.value] = {
                "holds": chk.holds,
                "vacuous": chk.vacuous,
                "violation": chk.violation.describe(u) if chk.violation else None,
            }
        payload = {
            "verdict": "holds" if all(r["holds"] for r in results.values()) else "violated",
            "m": args.m,
            "relation_class": rel.relation_class.value,
            "axiom_checks": results,
        }
        return payload, 0
    if args.ranksets_cmd == "discover":
        cls = RelationClass(args.relation_class)
        report = ranksets.find_inconsistent_subsets(args.max_m, relation_class=cls, prune=args.prune)
        findings = []
        for f in report.findings:
            findings.append(
                {
                    "axioms": [a.value for a in f.axioms],
                    "statuses": {str(m): s for m, s in f.statuses.items()},
                    "minimal_unsat_m": f.minimal_unsat_m,
                    "pruned": f.pruned,
                    "witness": ranksets.relation_to_json(f.witness) if f.witness else None,
                }
            )
        inconsistent = sum(1 for f in report.findings if f.minimal_unsat_m is not None)
        payload = {
            "verdict": f"{inconsistent} inconsistent axiom subsets up to m={args.max_m}",
            "u_max": args.max_m,
            "class": cls.value,
            "findings": findings,
        }
        return payload, 0
    raise ValueError(f"unknown ranksets subcommand {args.ranksets_cmd!r}")


def cmd_vickrey(args) -> tuple[dict, int]:
    budget = _budget(auctions.DEFAULT_SWEEP_BUDGET)
    rule = auctions.RULES[args.rule] if hasattr(args, "rule") else auctions.run_spa
    if args.vickrey_cmd == "dominance":
        values = args.values.split(",")
        if args.n != len(values):
            raise ValueError(f"--n {args.n} does not match {len(values)} --values entries")
        grid = auctions.parse_grid(args.grid, auctions.dominance_point_limit(args.n, budget))
        res = auctions.check_weak_dominance(values, grid, rule, budget, jobs=args.jobs)
        payload = {
            "verdict": "holds" if res.holds else "counterexample",
            "rule": args.rule,
            "values": list(map(str, auctions.to_amounts(values))),
            "grid": list(map(str, grid.points)),
            "cells": res.cells,
            "counterexample": _dominance_ce_json(res.counterexample) if res.counterexample else None,
        }
        return payload, 0 if res.holds else 3
    if args.vickrey_cmd == "efficiency":
        res = auctions.check_efficiency(args.values.split(","), rule)
        payload = {
            "verdict": "holds" if res.holds else "counterexample",
            "rule": args.rule,
            "winner": res.winner,
            "winner_valuation": str(res.winner_valuation),
            "max_valuation": str(res.max_valuation),
        }
        return payload, 0 if res.holds else 3
    if args.vickrey_cmd == "soundness":
        if args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        grid = auctions.parse_grid(args.grid, auctions.soundness_point_limit(args.n, budget))
        sweep = auctions.sweep_soundness(args.n, grid, rule, budget)
        payload = {
            "verdict": "sound" if not sweep.unsound else "violations",
            "rule": args.rule,
            "swept": sweep.cells,
            "violations": [
                {"bids": list(map(str, r.bids)), "problems": list(r.violations)}
                for r in sweep.unsound
            ],
        }
        return payload, 0 if not sweep.unsound else 3
    if args.vickrey_cmd == "abstract":
        if args.n_max < 2:
            raise ValueError(f"--n-max must be at least 2, got {args.n_max}")
        grid = auctions.abstract_grid(args.value, args.delta)
        auctions.check_abstract_budget(args.n_max, grid, budget)
        value = auctions.to_amount(args.value)
        per_n = []
        all_hold = True
        for n in range(2, args.n_max + 1):
            # the abstraction checks one distinguished bidder, agent 0
            res = auctions.check_dominance(n, ((0, value),), grid, rule, budget)
            all_hold &= res.holds
            per_n.append(
                {
                    "n": n,
                    "holds": res.holds,
                    "grid": list(map(str, grid.points)),
                    "cells": res.cells,
                    "counterexample": _dominance_ce_json(res.counterexample)
                    if res.counterexample
                    else None,
                }
            )
        payload = {
            "verdict": "holds" if all_hold else "counterexample",
            "rule": args.rule,
            "value": str(value),
            "delta": str(auctions.to_amount(args.delta)),
            "per_n": per_n,
        }
        return payload, 0 if all_hold else 3
    if args.vickrey_cmd == "maxcheck":
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        rng = random.Random(args.seed)
        disagreements = 0
        for _ in range(args.trials):
            xs = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 50))]
            if auctions.max_classical(xs) != auctions.max_constructive(xs):
                disagreements += 1
        payload = {
            "verdict": "equivalent" if disagreements == 0 else "divergent",
            "trials": args.trials,
            "seed": args.seed,
            "disagreements": disagreements,
        }
        return payload, 0 if disagreements == 0 else 3
    raise ValueError(f"unknown vickrey subcommand {args.vickrey_cmd!r}")


def cmd_sat(args) -> tuple[dict, int]:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as f:
            text = f.read()
    cnf = satkit.from_dimacs(text)
    budget = _budget(satkit.DEFAULT_VAR_BUDGET)
    if cnf.num_vars > budget:
        raise ValueError(f"header of {cnf.num_vars} variables exceeds budget {budget}")
    res = satkit.solve(cnf)
    payload = {
        "verdict": "SAT" if res.satisfiable else "UNSAT",
        "num_vars": cnf.num_vars,
        "num_clauses": len(cnf.clauses),
        "model": {str(v): val for v, val in res.assignment.items()} if res.satisfiable else None,
    }
    if res.satisfiable and args.model_out:
        lits = " ".join(str(v if res.assignment[v] else -v) for v in sorted(res.assignment))
        with open(args.model_out, "w", encoding="utf-8") as f:
            f.write(f"v {lits} 0\n")
    return payload, 0 if res.satisfiable else 20


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every refused input does; exit 2 is reserved
    for a cross-route disagreement.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="implab",
        description="Exhaustive and SAT-based checks of impossibility theorems and auction properties",
    )
    parser.add_argument("--output", help="write the JSON report to this path instead of stdout")
    parser.add_argument("--summary", action="store_true", help="also print a prose summary to stderr")
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for the vickrey dominance sweep (default 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrow", help="base-case social welfare function analysis")
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--drop-axiom", action="append", default=[], choices=["un", "nd"])
    p.add_argument("--count-models", action="store_true")
    p.add_argument("--emit-dimacs", metavar="PATH")

    p = sub.add_parser("ranksets", help="set-ranking axiom analysis")
    rsub = p.add_subparsers(dest="ranksets_cmd", required=True)
    pc = rsub.add_parser("check", help="solve one axiom subset at one universe size")
    pc.add_argument("--axioms", required=True, help="comma list: dominance,independence,aversion,appeal,topmono")
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--class", dest="relation_class", default="linear", choices=[c.value for c in RelationClass])
    pc.add_argument("--emit-dimacs", metavar="PATH")
    pm = rsub.add_parser("minmax", help="check axioms against the min-max ordering")
    pm.add_argument("--m", type=int, required=True)
    pm.add_argument("--axiom", choices=[a.value for a in Axiom])
    pd = rsub.add_parser("discover", help="minimal inconsistent universe per axiom subset")
    pd.add_argument("--max-m", type=int, default=4)
    pd.add_argument("--class", dest="relation_class", default="linear", choices=[c.value for c in RelationClass])
    pd.add_argument("--prune", action="store_true")

    p = sub.add_parser("vickrey", help="second-price auction checks")
    vsub = p.add_subparsers(dest="vickrey_cmd", required=True)
    pv = vsub.add_parser("dominance")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--grid", required=True, help="start:stop:step or comma list")
    pv.add_argument("--values", required=True, help="comma list of valuations")
    pv.add_argument("--rule", default="second-price", choices=sorted(auctions.RULES))
    pe = vsub.add_parser("efficiency")
    pe.add_argument("--values", required=True)
    pe.add_argument("--rule", default="second-price", choices=sorted(auctions.RULES))
    ps = vsub.add_parser("soundness")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--grid", required=True)
    ps.add_argument("--rule", default="second-price", choices=sorted(auctions.RULES))
    pa = vsub.add_parser("abstract")
    pa.add_argument("--n-max", type=int, default=6)
    pa.add_argument("--value", required=True)
    pa.add_argument("--delta", required=True)
    pa.add_argument("--rule", default="second-price", choices=sorted(auctions.RULES))
    pq = vsub.add_parser("maxcheck")
    pq.add_argument("--trials", type=int, default=1000)
    pq.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sat", help="solve a DIMACS CNF file")
    p.add_argument("path", help="DIMACS file, or - for stdin")
    p.add_argument("--model-out", metavar="PATH")
    return parser


_DISPATCH = {
    "arrow": cmd_arrow,
    "ranksets": cmd_ranksets,
    "vickrey": cmd_vickrey,
    "sat": cmd_sat,
}


def _config_echo(args) -> dict:
    skip = {"command", "output", "summary"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and not k.startswith("_")
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        payload, code = _DISPATCH[args.command](args)
        report = {
            "tool": "implab",
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args),
            **payload,
            "duration_seconds": round(time.perf_counter() - started, 6),
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"{args.command}: {report['verdict']} (report written to {args.output})")
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    if args.summary:
        print(f"{args.command}: verdict={report['verdict']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
