"""Oracles that check each report against facts computed without `implab`.

Every check returns a list of problems; an empty list means the report
passed.  Nothing here imports the program under test: welfare functions,
set-ranking axioms and auction payoffs are recomputed from their textbook
definitions, by closed form or by brute force.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

# --- social welfare functions over three alternatives a, b, c --------------

PAIRS = ((0, 1), (0, 2), (1, 2))
PAIR_KEYS = ("ab", "ac", "bc")
ORDERS = tuple(itertools.permutations(range(3)))  # best alternative first


def pair_bits(order: tuple[int, ...]) -> tuple[int, int, int]:
    """For each pair (x, y) of ab, ac, bc: 1 when the order ranks x above y."""
    return tuple(int(order.index(x) < order.index(y)) for x, y in PAIRS)


ORDER_OF_BITS = {pair_bits(o): o for o in ORDERS}


def iia_count(n: int) -> int:
    """IIA welfare functions for n agents and three alternatives (Tang & Lin 2009)."""
    return 6 + 2 * n + 6 * (2 ** (2**n) - 2)


def census(n: int) -> dict[str, int]:
    return {
        "dictatorial": n,
        "inversely_dictatorial": n,
        "constant": 6,
        "small_range": 6 * (2 ** (2**n) - 2),
        "unclassified": 0,
    }


def projection(n: int, agent: int) -> dict[str, str]:
    """Truth tables that copy one agent's bit; entry j packs agent 0 as its top bit."""
    table = "".join(str((j >> (n - 1 - agent)) & 1) for j in range(2**n))
    return {key: table for key in PAIR_KEYS}


def _profile_entries(n: int) -> list[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """Per profile: the agents' orders and the table entry each pair reads."""
    out = []
    for orders in itertools.product(ORDERS, repeat=n):
        entries = [0, 0, 0]
        for agent, order in enumerate(orders):
            for k, bit in enumerate(pair_bits(order)):
                entries[k] |= bit << (n - 1 - agent)
        out.append((orders, tuple(entries)))
    return out


@lru_cache(maxsize=None)
def brute_force_swfs(n: int) -> frozenset[tuple[str, str, str]]:
    """All table triples that give an order on every profile; n <= 2 is quick."""
    size = 2**n
    tables = ["".join(bits) for bits in itertools.product("01", repeat=size)]
    entries = [e for _, e in _profile_entries(n)]
    return frozenset(
        t
        for t in itertools.product(tables, repeat=3)
        if all((t[0][i], t[1][j], t[2][k]) not in (("0", "1", "0"), ("1", "0", "1")) for i, j, k in entries)
    )


def _kendall(o1: tuple[int, ...], o2: tuple[int, ...]) -> int:
    return sum(1 for x, y in PAIRS if (o1.index(x) < o1.index(y)) != (o2.index(x) < o2.index(y)))


def classify_brute(n: int, tables: tuple[str, str, str]) -> str:
    profiles = _profile_entries(n)
    outs = [ORDER_OF_BITS[tuple(int(tables[k][e[k]]) for k in range(3))] for _, e in profiles]
    for i in range(n):
        if all(out == orders[i] for out, (orders, _) in zip(outs, profiles)):
            return "dictatorial"
    for i in range(n):
        if all(out == orders[i][::-1] for out, (orders, _) in zip(outs, profiles)):
            return "inversely_dictatorial"
    rng = sorted(set(outs))
    if len(rng) == 1:
        return "constant"
    if len(rng) == 2 and _kendall(rng[0], rng[1]) == 1:
        return "small_range"
    return "unclassified"


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _header(report: dict, command: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "tool", report.get("tool"), "implab")
    _expect(problems, "command", report.get("command"), command)
    return problems


def check_arrow(report: dict, n: int, axioms: tuple[str, ...]) -> list[str]:
    """An `arrow --agents n` report with the given SAT axioms left in."""
    problems = _header(report, "arrow")
    _expect(problems, "iia_count", report.get("iia_count"), iia_count(n))
    _expect(problems, "census", report.get("census"), census(n))
    _expect(problems, "small_range_recount", report.get("small_range_recount"), census(n)["small_range"])
    _expect(problems, "tang_lin_holds", report.get("tang_lin_holds"), True)
    _expect(problems, "un_survivors", report.get("un_survivors"), n)
    _expect(problems, "wilson_survivors", report.get("wilson_survivors"), 2 * n)
    survivors = report.get("un_survivor_swfs") or []
    classes = report.get("un_survivor_classes") or []
    dictators = set()
    for swf, cls in itertools.zip_longest(survivors, classes):
        agent = (cls or {}).get("agent")
        if (cls or {}).get("tag") != "dictatorial" or agent not in range(n):
            problems.append(f"UN survivor class {cls!r} is not a dictatorship")
        elif (swf or {}).get("tables") != projection(n, agent):
            problems.append(f"UN survivor {swf!r} is not agent {agent}'s projection")
        dictators.add(agent)
    _expect(problems, "UN survivor dictators", dictators, set(range(n)))
    _expect(problems, "cross_check_agree", report.get("cross_check_agree"), True)
    _expect(problems, "sat_axioms", report.get("sat_axioms"), sorted(axioms))
    _expect(problems, "sat_models_truncated", report.get("sat_models_truncated"), False)
    if set(axioms) == {"UN", "ND"}:
        _expect(problems, "verdict", report.get("verdict"), "impossibility holds")
        _expect(problems, "sat_verdict", report.get("sat_verdict"), "UNSAT")
        _expect(problems, "sat_model_count", report.get("sat_model_count"), 0)
    return problems


def check_arrow_allsat(report: dict, n: int) -> list[str]:
    """`arrow --drop-axiom un --drop-axiom nd --count-models`: every IIA SWF, by brute force."""
    problems = check_arrow(report, n, ())
    truth = brute_force_swfs(n)
    _expect(problems, "verdict", report.get("verdict"), "SAT")
    _expect(problems, "sat_verdict", report.get("sat_verdict"), "SAT")
    _expect(problems, "sat_model_count", report.get("sat_model_count"), len(truth))
    models = [tuple(m.get("tables", {}).get(k) for k in PAIR_KEYS) for m in report.get("models") or []]
    if len(set(models)) != len(models):
        problems.append("models contain duplicates")
    missing, extra = truth - set(models), set(models) - truth
    if missing or extra:
        problems.append(f"models differ from brute force: {len(missing)} missing, {len(extra)} extra")
    recount = {tag: 0 for tag in census(n)}
    for t in truth:
        recount[classify_brute(n, t)] += 1
    _expect(problems, "census against brute force", report.get("census"), recount)
    return problems


# --- ranking sets of objects ---------------------------------------------------

CATALOG = ("dominance", "independence", "aversion", "appeal", "topmono")


def subset_names(m: int) -> list[str]:
    return ["{" + ",".join("abcdef"[x] for x in range(m) if mask >> x & 1) + "}" for mask in range(1, 1 << m)]


@lru_cache(maxsize=None)
def ground(m: int) -> dict[str, tuple]:
    """Each axiom as (antecedent or None, consequent) strict-preference pairs
    over subset masks, object 0 best; independence's consequent is weak."""
    single = [1 << x for x in range(m)]
    out: dict[str, list] = {name: [] for name in CATALOG}
    for x, y in itertools.combinations(range(m), 2):
        out["dominance"] += [(None, (single[x], single[x] | single[y])), (None, (single[x] | single[y], single[y]))]
    for x, y, z in itertools.combinations(range(m), 3):
        out["aversion"].append((None, (single[y], single[x] | single[z])))
        out["appeal"].append((None, (single[x] | single[z], single[y])))
        out["topmono"].append((None, (single[x] | single[z], single[y] | single[z])))
    for a, b in itertools.permutations(range(1, 1 << m), 2):
        for bit in single:
            if not (a | b) & bit:
                out["independence"].append(((a, b), (a | bit, b | bit)))
    return {name: tuple(cs) for name, cs in out.items()}


def axiom_holds(m: int, axiom: str, geq) -> bool:
    """geq(A, B) over masks; strict is geq one way and not the other."""

    def strict(a: int, b: int) -> bool:
        return geq(a, b) and not geq(b, a)

    for ant, (a, b) in ground(m)[axiom]:
        if ant is None:
            if not strict(a, b):
                return False
        elif strict(*ant) and not geq(a, b):
            return False
    return True


@lru_cache(maxsize=None)
def linear_sat_masks(m: int) -> frozenset[int]:
    """Bitmasks over CATALOG of the axiom sets some linear order satisfies."""
    masks = range(1, 1 << m)
    found = set()
    for perm in itertools.permutations(masks):
        rank = {mask: i for i, mask in enumerate(perm)}
        geq = lambda a, b: rank[a] <= rank[b]  # noqa: E731
        found.add(sum(1 << k for k, name in enumerate(CATALOG) if axiom_holds(m, name, geq)))
    return frozenset(found)


def linear_status(m: int, axioms: list[str]) -> str:
    want = sum(1 << CATALOG.index(a) for a in axioms)
    return "sat" if any(mask & want == want for mask in linear_sat_masks(m)) else "unsat"


def witness_problems(witness: dict, axioms: list[str]) -> list[str]:
    """A witness must be a linear order on the subsets that meets every axiom."""
    m = witness.get("m")
    if m not in range(2, 7):
        return [f"witness m {m!r} out of range"]
    if witness.get("class") != "linear" or witness.get("subsets") != subset_names(m):
        return [f"witness at m={m} has wrong class or subset names"]
    rows = witness.get("geq_rows") or []
    size = (1 << m) - 1
    if len(rows) != size or any(len(r) != size or set(r) - {"0", "1"} for r in rows):
        return [f"witness at m={m} is not a {size}x{size} 0/1 matrix"]
    # A relation is a linear order exactly when the numbers of sets each set
    # is at least as good as are distinct and agree with every entry.
    wins = [r.count("1") for r in rows]
    linear = sorted(wins) == list(range(1, size + 1)) and all(
        (rows[a][b] == "1") == (wins[a] >= wins[b]) for a in range(size) for b in range(size)
    )
    if not linear:
        return [f"witness at m={m} is not a linear order"]
    geq = lambda a, b: rows[a - 1][b - 1] == "1"  # noqa: E731
    return [f"witness at m={m} violates {ax}" for ax in axioms if not axiom_holds(m, ax, geq)]


def check_discover(report: dict, max_m: int) -> list[str]:
    """`ranksets discover --max-m M` over the linear-order class."""
    problems = _header(report, "ranksets")
    _expect(problems, "class", report.get("class"), "linear")
    _expect(problems, "u_max", report.get("u_max"), max_m)
    findings = report.get("findings") or []
    subsets = [list(c) for r in range(1, len(CATALOG) + 1) for c in itertools.combinations(CATALOG, r)]
    _expect(problems, "axiom subsets", [f.get("axioms") for f in findings], subsets)
    ms = list(range(2, max_m + 1))
    status: dict[tuple[str, ...], dict[int, str]] = {}
    for f in findings:
        axioms = f.get("axioms") or []
        st = {m: (f.get("statuses") or {}).get(str(m)) for m in ms}
        status[tuple(axioms)] = st
        label = ",".join(axioms)
        if f.get("pruned"):
            problems.append(f"{label}: pruned without --prune")
        if any(s not in ("sat", "unsat") for s in st.values()):
            problems.append(f"{label}: statuses {st}")
            continue
        unsat = [m for m in ms if st[m] == "unsat"]
        _expect(problems, f"{label} minimal_unsat_m", f.get("minimal_unsat_m"), unsat[0] if unsat else None)
        if unsat and unsat != ms[ms.index(unsat[0]):]:
            problems.append(f"{label}: statuses not monotone in m: {st}")
        for m in ms:
            if m <= 3:
                _expect(problems, f"{label} status at m={m} against brute force", st[m], linear_status(m, axioms))
        sat = [m for m in ms if st[m] == "sat"]
        witness = f.get("witness")
        if not sat:
            _expect(problems, f"{label} witness", witness, None)
        elif not isinstance(witness, dict) or witness.get("m") != sat[-1]:
            problems.append(f"{label}: witness is not a model at m={sat[-1]}")
        else:
            problems += [f"{label}: {p}" for p in witness_problems(witness, axioms)]
    for small, big in itertools.permutations(status, 2):
        if set(small) < set(big):
            for m in ms:
                if status[small][m] == "unsat" and status[big][m] != "unsat":
                    problems.append(f"{','.join(big)} is sat at m={m} but its subset {','.join(small)} is not")
    inconsistent = sum(1 for f in findings if f.get("minimal_unsat_m") is not None)
    _expect(problems, "verdict", report.get("verdict"), f"{inconsistent} inconsistent axiom subsets up to m={max_m}")
    return problems


# --- second-price auctions -------------------------------------------------------


def first_price_payoff(value: Fraction, agent: int, bids: tuple[Fraction, ...]) -> Fraction:
    """The highest bid wins, ties to the lowest index, and the winner pays its bid."""
    top = max(bids)
    return value - top if bids.index(top) == agent else Fraction(0)


def dominance_cells(values: list[Fraction], grid: list[Fraction]) -> int:
    n = len(values)
    return sum(len(grid) ** (n - 1) * len(set(grid) | {v}) for v in values)


def first_price_counterexample(values: list[Fraction], grid: list[Fraction]) -> dict | None:
    """The first profitable deviation in (agent, opponents, deviation) order."""
    n = len(values)
    for i, v in enumerate(values):
        deviations = sorted(set(grid) | {v})
        for others in itertools.product(grid, repeat=n - 1):
            truthful = others[:i] + (v,) + others[i:]
            truth_pay = first_price_payoff(v, i, truthful)
            for dev in deviations:
                dev_bids = others[:i] + (dev,) + others[i:]
                dev_pay = first_price_payoff(v, i, dev_bids)
                if dev_pay > truth_pay:
                    return {
                        "agent": i,
                        "truthful_bids": [str(b) for b in truthful],
                        "deviation_bids": [str(b) for b in dev_bids],
                        "truthful_payoff": str(truth_pay),
                        "deviation_payoff": str(dev_pay),
                    }
    return None


def check_dominance(report: dict, rule: str, values: list[Fraction], grid: list[Fraction]) -> list[str]:
    problems = _header(report, "vickrey")
    _expect(problems, "rule", report.get("rule"), rule)
    _expect(problems, "values", report.get("values"), [str(v) for v in values])
    _expect(problems, "grid", report.get("grid"), [str(g) for g in grid])
    _expect(problems, "cells", report.get("cells"), dominance_cells(values, grid))
    if rule == "second-price":
        _expect(problems, "verdict", report.get("verdict"), "holds")
        _expect(problems, "counterexample", report.get("counterexample"), None)
    else:
        _expect(problems, "verdict", report.get("verdict"), "counterexample")
        _expect(problems, "counterexample", report.get("counterexample"), first_price_counterexample(values, grid))
    return problems


def check_soundness(report: dict, n: int, grid: list[Fraction]) -> list[str]:
    problems = _header(report, "vickrey")
    _expect(problems, "verdict", report.get("verdict"), "sound")
    _expect(problems, "swept", report.get("swept"), len(grid) ** n)
    _expect(problems, "violations", report.get("violations"), [])
    return problems


def check_abstract(report: dict, n_max: int, value: Fraction, delta: Fraction) -> list[str]:
    problems = _header(report, "vickrey")
    _expect(problems, "verdict", report.get("verdict"), "holds")
    _expect(problems, "value", report.get("value"), str(value))
    _expect(problems, "delta", report.get("delta"), str(delta))
    points = sorted({max(Fraction(0), value - delta), value, value + delta})
    want = [
        {"n": n, "holds": True, "grid": [str(p) for p in points], "cells": len(points) ** n, "counterexample": None}
        for n in range(2, n_max + 1)
    ]
    _expect(problems, "per_n", report.get("per_n"), want)
    return problems
