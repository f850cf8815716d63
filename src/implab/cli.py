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
import functools
import json
import math
import os
import sys
import time

from . import __version__

# Each command imports the layers it runs inside its function, so a process
# loads only those.  The parser's choices are listed here for the same reason;
# a test pins them to ranksets.Axiom, ranksets.RelationClass and auctions.RULES.
AXIOM_NAMES = ("dominance", "independence", "aversion", "appeal", "topmono")
CLASS_NAMES = ("transitive", "weak", "linear")
RULE_NAMES = ("first-price", "second-price")
COUNT_DIGITS = 18  # an integer option is a count, and no count a run reaches has more digits


def _budget(default: int) -> int:
    raw = os.environ.get("IMPLAB_BUDGET")
    if not raw:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"IMPLAB_BUDGET must be a non-negative integer, got {raw!r}")
    # int() would refuse more digits in words that name no input.  A limit
    # of 0 is none, and Python before 3.10.7 has none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(raw) > limit:
        raise ValueError(f"IMPLAB_BUDGET of {len(raw)} digits exceeds the {limit}-digit limit")
    return int(raw)


def _int_option(text: str) -> int:
    """argparse's type=int, except that a number of more than COUNT_DIGITS
    digits is refused by its digit count instead of echoed, and that
    non-ASCII digits and '_' separators, which int() reads, are refused as
    amounts, DIMACS and IMPLAB_BUDGET refuse them."""
    digits = sum(map(str.isdigit, text))
    if digits > COUNT_DIGITS:
        raise argparse.ArgumentTypeError(f"value of {digits} digits exceeds the {COUNT_DIGITS}-digit limit")
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _ReportEncoder(json.JSONEncoder):
    """The text of json.dumps(o, indent=2, sort_keys=True), for both
    json.dumps (encode) and json.dump (iterencode).  The library builds that
    text with nested closures that refer to each other, so each call leaves
    a cycle of garbage for the collector; here one module-level function
    recurses over the report and leaves none."""

    def encode(self, o) -> str:
        return "".join(self.iterencode(o))

    def iterencode(self, o, _one_shot: bool = False) -> list[str]:
        out: list[str] = []
        _write_json(o, out, "\n")
        return out


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _write_json(o, out: list[str], newline: str) -> None:
    """Append o's indented JSON text to out; newline is a line break and the
    indent of o's own line.  A report holds only these types, with str keys,
    and only finite floats."""
    kind = type(o)
    if kind is str:
        out.append(json.encoder.encode_basestring_ascii(o))
    elif kind is int:
        out.append(int.__repr__(o))
    elif kind is float:
        if not -math.inf < o < math.inf:
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        out.append(float.__repr__(o))
    elif kind is bool or o is None:
        out.append(_JSON_WORDS[o])
    elif kind is dict:
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        head, comma = "{" + inner, "," + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(head)
            out.append(json.encoder.encode_basestring_ascii(key))
            out.append(": ")
            _write_json(o[key], out, inner)
            head = comma
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        head, comma = "[" + inner, "," + inner
        for item in o:
            out.append(head)
            _write_json(item, out, inner)
            head = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit_dimacs(cnf: satkit.Cnf, names: dict[int, str], path: str) -> None:
    from . import satkit

    with open(path, "w", encoding="utf-8") as f:
        f.write(satkit.to_dimacs(cnf))
    names = {str(v): name for v, name in names.items()}
    with open(path + ".vars.json", "w", encoding="utf-8") as f:
        json.dump(names, f, cls=_ReportEncoder)
        f.write("\n")


def _sweep_json(res: auctions.DominanceResult, grid: auctions.BidGrid) -> dict:
    ce = res.counterexample
    return {
        "grid": list(map(str, grid.points)),
        "cells": res.cells,
        "counterexample": ce and {
            "agent": ce.agent,
            "truthful_bids": list(map(str, ce.truthful_bids)),
            "deviation_bids": list(map(str, ce.deviation_bids)),
            "truthful_payoff": str(ce.truthful_payoff),
            "deviation_payoff": str(ce.deviation_payoff),
        },
    }


def cmd_arrow(args) -> tuple[dict, int]:
    from . import satkit, swf

    axioms = {swf.UN, swf.ND} - {a.upper() for a in args.drop_axiom}
    budget = _budget(swf.DEFAULT_CANDIDATE_BUDGET)

    swfs = swf.enumerate_iia_swfs(args.agents, budget)
    classes = {s: swf.classify(s) for s in swfs}
    census = swf.census(classes)
    recount = swf.recount_small_range(args.agents)
    un = swf.survivors(classes, {swf.UN})
    expected = swf.survivors(classes, axioms)

    cnf = swf.encode_arrow(args.agents, axioms)
    if args.emit_dimacs:
        _emit_dimacs(cnf, swf.var_names(args.agents), args.emit_dimacs)
    # one AllSAT run gives both the verdict (SAT iff it finds a model) and the model set
    run = satkit.enumerate_models(cnf, limit=len(expected) + 1)
    decoded = [swf.decode_model(args.agents, m) for m in run.models]
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
    from . import ranksets, satkit
    from .ranksets import Axiom, RelationClass, Universe

    if args.ranksets_cmd == "check":
        cls = RelationClass(args.relation_class)
        u = Universe(args.m)
        axioms = tuple(Axiom(a) for a in args.axioms.split(","))
        for k, ax in enumerate(axioms):
            if ax in axioms[:k]:
                raise ValueError(f"axiom {ax.value} is listed more than once")
        cnf = ranksets.encode_ranksets(u, axioms, cls)
        if args.emit_dimacs:
            _emit_dimacs(cnf, ranksets.var_names(u), args.emit_dimacs)
        res = satkit.solve(cnf)
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
            grounded = [ranksets.ground_axiom(u, ax) for ax in axioms]
            payload["model"] = ranksets.relation_to_json(ranksets.decode_ranksets(u, res.assignment, cls, grounded))
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
    # discover: the required subparsers admit no other name
    cls = RelationClass(args.relation_class)
    found = ranksets.find_inconsistent_subsets(args.max_m, relation_class=cls)
    findings = [
        {
            "axioms": [a.value for a in f.axioms],
            "statuses": {str(m): s for m, s in f.statuses.items()},
            "minimal_unsat_m": f.minimal_unsat_m,
            "witness": ranksets.relation_to_json(f.witness) if f.witness else None,
        }
        for f in found
    ]
    inconsistent = sum(1 for f in found if f.minimal_unsat_m is not None)
    payload = {
        "verdict": f"{inconsistent} inconsistent axiom subsets up to m={args.max_m}",
        "u_max": args.max_m,
        "class": cls.value,
        "findings": findings,
    }
    return payload, 0


def cmd_vickrey(args) -> tuple[dict, int]:
    from . import auctions

    budget = _budget(auctions.DEFAULT_SWEEP_BUDGET)
    rule = auctions.RULES[args.rule] if hasattr(args, "rule") else auctions.run_spa
    if args.vickrey_cmd == "dominance":
        values = args.values.split(",")
        if args.n != len(values):
            raise ValueError(f"--n {args.n} does not match {len(values)} --values entries")
        # check_dominance's own refusal, made before the grid is built
        if args.n < 2:
            raise ValueError(f"dominance check needs more than one participant, got {args.n}")
        grid = auctions.parse_grid(args.grid, budget, args.n)
        res = auctions.check_weak_dominance(values, grid, rule, budget, jobs=args.jobs)
        payload = {
            "verdict": "holds" if res.holds else "counterexample",
            "rule": args.rule,
            "values": list(map(str, auctions.to_amounts(values))),
            **_sweep_json(res, grid),
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
        grid = auctions.parse_grid(args.grid, budget, args.n)
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
        value = auctions.to_amount(args.value)
        per_n = []
        all_hold = True
        # largest first: the grid holds the value, so the n = --n-max sweep has
        # the most cells, and check_dominance refuses it before any rule call
        for n in range(args.n_max, 1, -1):
            # the abstraction checks one distinguished bidder, agent 0
            res = auctions.check_dominance(n, ((0, value),), grid, rule, budget)
            all_hold &= res.holds
            per_n.append({"n": n, "holds": res.holds, **_sweep_json(res, grid)})
        per_n.reverse()
        payload = {
            "verdict": "holds" if all_hold else "counterexample",
            "rule": args.rule,
            "value": str(value),
            "delta": str(auctions.to_amount(args.delta)),
            "per_n": per_n,
        }
        return payload, 0 if all_hold else 3
    # maxcheck: the required subparsers admit no other name.  Both maxima
    # read items only through >= and return one of them, so agreeing on the
    # ranks of each list is agreeing on every list
    lists = disagreements = 0
    for ranks in auctions.order_types(auctions.MAXCHECK_LENGTH):
        lists += 1
        if auctions.max_classical(ranks) != auctions.max_constructive(ranks):
            disagreements += 1
    payload = {
        "verdict": "equivalent" if disagreements == 0 else "divergent",
        "lists": lists,
        "max_length": auctions.MAXCHECK_LENGTH,
        "disagreements": disagreements,
    }
    return payload, 0 if disagreements == 0 else 3


def cmd_sat(args) -> tuple[dict, int]:
    from . import satkit

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
        lits = [str(v if res.assignment[v] else -v) for v in sorted(res.assignment)]
        with open(args.model_out, "w", encoding="utf-8") as f:
            f.write(" ".join(["v", *lits, "0"]) + "\n")
    return payload, 0 if res.satisfiable else 20


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every refused input does; exit 2 is reserved
    for a cross-route disagreement.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# One parser per process: an argparse parser is a web of reference cycles, and
# one built per main() call lingers as garbage until a full collection.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="implab",
        description="Exhaustive and SAT-based checks of impossibility theorems and auction properties",
    )
    parser.add_argument("--output", help="write the JSON report to this path instead of stdout")
    parser.add_argument("--summary", action="store_true", help="also print a prose summary to stderr")
    parser.add_argument(
        "--jobs", type=_int_option, default=1, help="parallel workers for the vickrey dominance sweep (default 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrow", help="base-case social welfare function analysis")
    p.add_argument("--agents", type=_int_option, default=2)
    p.add_argument("--drop-axiom", action="append", default=[], choices=["un", "nd"])
    p.add_argument("--count-models", action="store_true")
    p.add_argument("--emit-dimacs", metavar="PATH")

    p = sub.add_parser("ranksets", help="set-ranking axiom analysis")
    rsub = p.add_subparsers(dest="ranksets_cmd", required=True)
    pc = rsub.add_parser("check", help="solve one axiom subset at one universe size")
    pc.add_argument("--axioms", required=True, help="comma list: " + ",".join(AXIOM_NAMES))
    pc.add_argument("--m", type=_int_option, required=True)
    pc.add_argument("--class", dest="relation_class", default="linear", choices=CLASS_NAMES)
    pc.add_argument("--emit-dimacs", metavar="PATH")
    pm = rsub.add_parser("minmax", help="check axioms against the min-max ordering")
    pm.add_argument("--m", type=_int_option, required=True)
    pm.add_argument("--axiom", choices=AXIOM_NAMES)
    pd = rsub.add_parser("discover", help="minimal inconsistent universe per axiom subset")
    pd.add_argument("--max-m", type=_int_option, default=4)
    pd.add_argument("--class", dest="relation_class", default="linear", choices=CLASS_NAMES)

    p = sub.add_parser("vickrey", help="second-price auction checks")
    vsub = p.add_subparsers(dest="vickrey_cmd", required=True)
    pv = vsub.add_parser("dominance")
    pv.add_argument("--n", type=_int_option, required=True)
    pv.add_argument("--grid", required=True, help="start:stop:step or comma list")
    pv.add_argument("--values", required=True, help="comma list of valuations")
    pv.add_argument("--rule", default="second-price", choices=RULE_NAMES)
    pe = vsub.add_parser("efficiency")
    pe.add_argument("--values", required=True)
    pe.add_argument("--rule", default="second-price", choices=RULE_NAMES)
    ps = vsub.add_parser("soundness")
    ps.add_argument("--n", type=_int_option, required=True)
    ps.add_argument("--grid", required=True)
    ps.add_argument("--rule", default="second-price", choices=RULE_NAMES)
    pa = vsub.add_parser("abstract")
    pa.add_argument("--n-max", type=_int_option, default=6)
    pa.add_argument("--value", required=True)
    pa.add_argument("--delta", required=True)
    pa.add_argument("--rule", default="second-price", choices=RULE_NAMES)
    vsub.add_parser("maxcheck")

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
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


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
        text = json.dumps(report, cls=_ReportEncoder) + "\n"
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
