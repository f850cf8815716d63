"""CNF model, a DPLL solver, DIMACS I/O, model enumeration, and the
SAT encoding of the base-case impossibility search.

Literals are nonzero integers in the usual convention: +v asserts variable
v, -v negates it.  The solver is plain DPLL with two-watched-literal unit
propagation and chronological backtracking; decisions always pick the
lowest-index unassigned variable, trying true first, so runs are fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .orders import PAIR_NAMES
from .swf import PairwiseSwf, profile_pair_indices

DEFAULT_ENCODE_AGENT_CAP = 10

UN = "UN"
ND = "ND"


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    var_names: dict[int, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for c in self.clauses:
            if not c:
                raise ValueError("empty clause not allowed at construction")
            for lit in c:
                if lit == 0:
                    raise ValueError("literal 0 is reserved as the clause terminator")
                if abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} exceeds declared {self.num_vars} variable(s)")


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    assignment: dict[int, bool] | None = None


@dataclass(frozen=True)
class ModelEnumeration:
    models: tuple[dict[int, bool], ...]
    truncated: bool


def _check_model(clauses, assignment) -> bool:
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in c) for c in clauses)


def solve(cnf: Cnf) -> SolveResult:
    """DPLL with unit propagation; Sat models are verified before return."""
    nvars = cnf.num_vars
    # duplicate literals would let both watches collapse onto one literal
    clauses = [tuple(dict.fromkeys(c)) for c in cnf.clauses]
    assign = [0] * (nvars + 1)  # 0 unassigned, 1 true, -1 false

    def model() -> SolveResult:
        full = {v: assign[v] > 0 for v in range(1, nvars + 1)}
        if not _check_model(clauses, full):
            raise RuntimeError("solver bug: produced assignment fails verification")
        return SolveResult(True, full)

    if not clauses:
        for v in range(1, nvars + 1):
            assign[v] = -1
        return model()

    # two watched literals per clause (unit clauses watch their literal twice)
    watches: dict[int, list[int]] = {}
    watched: list[list[int]] = []
    for ci, c in enumerate(clauses):
        pair = [c[0], c[1]] if len(c) > 1 else [c[0], c[0]]
        watched.append(pair)
        for lit in set(pair):
            watches.setdefault(lit, []).append(ci)

    trail: list[int] = []  # variables in assignment order

    def val(lit: int) -> int:
        v = assign[abs(lit)]
        if v == 0:
            return 0
        return 1 if (v > 0) == (lit > 0) else -1

    def enqueue(lit: int) -> bool:
        v = abs(lit)
        if assign[v] != 0:
            return (assign[v] > 0) == (lit > 0)
        assign[v] = 1 if lit > 0 else -1
        trail.append(v)
        return True

    def propagate(queue: list[int]) -> bool:
        """Make each queued literal true and propagate; False on conflict."""
        head = len(trail)
        for lit in queue:
            if not enqueue(lit):
                return False
        while head < len(trail):
            v = trail[head]
            head += 1
            falsified = -v if assign[v] > 0 else v
            occ = watches.get(falsified, [])
            i = 0
            while i < len(occ):
                ci = occ[i]
                w = watched[ci]
                other = w[1] if w[0] == falsified else w[0]
                if val(other) == 1:
                    i += 1
                    continue
                for cand in clauses[ci]:
                    if cand != other and cand != falsified and val(cand) != -1:
                        # move the watch to a non-false literal
                        w[0], w[1] = other, cand
                        watches.setdefault(cand, []).append(ci)
                        occ[i] = occ[-1]
                        occ.pop()
                        break
                else:
                    if val(other) == -1:
                        return False
                    if not enqueue(other):
                        return False
                    i += 1
        return True

    units = [c[0] for c in clauses if len(c) == 1]
    if not propagate(units):
        return SolveResult(False)

    decisions: list[tuple[int, int, bool]] = []  # (var, trail length before, tried_false)
    next_var = 1
    while True:
        while next_var <= nvars and assign[next_var] != 0:
            next_var += 1
        if next_var > nvars:
            return model()
        var = next_var
        decisions.append((var, len(trail), False))
        ok = propagate([var])
        while not ok:
            while decisions and decisions[-1][2]:
                dvar, mark, _ = decisions.pop()
                for v in trail[mark:]:
                    assign[v] = 0
                del trail[mark:]
                next_var = min(next_var, dvar)
            if not decisions:
                return SolveResult(False)
            dvar, mark, _ = decisions.pop()
            for v in trail[mark:]:
                assign[v] = 0
            del trail[mark:]
            next_var = min(next_var, dvar)
            decisions.append((dvar, mark, True))
            ok = propagate([-dvar])


def enumerate_models(
    cnf: Cnf, projection: frozenset[int] | set[int] | None = None, limit: int | None = None
) -> ModelEnumeration:
    """AllSAT over the projection variables via blocking clauses."""
    if projection is None:
        projection = set(range(1, cnf.num_vars + 1))
    projection = set(projection)
    if any(v < 1 or v > cnf.num_vars for v in projection):
        raise ValueError("projection must be a subset of the CNF's variables")
    proj = sorted(projection)
    clauses = list(cnf.clauses)
    models: list[dict[int, bool]] = []
    truncated = False
    while True:
        res = solve(Cnf(cnf.num_vars, tuple(clauses)))
        if not res.satisfiable:
            break
        part = {v: res.assignment[v] for v in proj}
        if limit is not None and len(models) == limit:
            truncated = True
            break
        models.append(part)
        if not proj:
            break
        clauses.append(tuple(-v if part[v] else v for v in proj))
    return ModelEnumeration(tuple(models), truncated)


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for c in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in c) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF.  A clause may span lines; a SATLIB '%' line ends the input."""
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    clause: list[int] = []
    clause_lineno = 0  # line of the open clause's latest literal
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {line!r}, expected 'p cnf V C'")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer counts in header {line!r}") from None
            if num_vars < 0 or declared_clauses < 0:
                raise ValueError(f"line {lineno}: negative counts in header {line!r}")
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause before 'p cnf' header")
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer literal in {line!r}") from None
        for t in tokens:
            if t == 0:
                if not clause:
                    raise ValueError(f"line {lineno}: empty clause")
                clauses.append(tuple(clause))
                clause = []
            else:
                if abs(t) > num_vars:
                    raise ValueError(
                        f"line {lineno}: literal {t} exceeds declared {num_vars} variable(s)"
                    )
                clause.append(t)
                clause_lineno = lineno
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    if clause:
        raise ValueError(f"line {clause_lineno}: missing terminating 0")
    if declared_clauses != len(clauses):
        raise ValueError(
            f"header declares {declared_clauses} clause(s) but body has {len(clauses)}"
        )
    return Cnf(num_vars, tuple(clauses))


@dataclass(frozen=True)
class ArrowEncoding:
    """CNF over the 3*2^n pairwise truth-table entries.

    Independence is structural: the variables *are* the table entries, so
    only acyclicity and the requested axioms need clauses.
    """

    n: int
    axioms: frozenset[str]
    cnf: Cnf
    var_of: dict[tuple[int, int], int] = field(repr=False)  # (pair, entry) -> var
    entry_of: dict[int, tuple[int, int]] = field(repr=False)


def encode_arrow(
    n: int, axioms: frozenset[str] | set[str] = frozenset(), agent_cap: int = DEFAULT_ENCODE_AGENT_CAP
) -> ArrowEncoding:
    """Build the base-case CNF for n agents over three alternatives."""
    if n < 1 or n > agent_cap:
        raise ValueError(f"agent count {n} outside supported range 1..{agent_cap}")
    axioms = frozenset(axioms)
    unknown = axioms - {UN, ND}
    if unknown:
        raise ValueError(f"unknown axioms {sorted(unknown)}; supported: UN, ND")
    size = 1 << n

    def var(pair: int, entry: int) -> int:
        return pair * size + entry + 1

    clauses: list[tuple[int, ...]] = []
    for i1, i2, i3 in profile_pair_indices(n):
        v1, v2, v3 = var(0, i1), var(1, i2), var(2, i3)
        clauses.append((v1, -v2, v3))   # forbid social code 010
        clauses.append((-v1, v2, -v3))  # forbid social code 101
    if UN in axioms:
        for k in range(3):
            clauses.append((var(k, size - 1),))
            clauses.append((-var(k, 0),))
    if ND in axioms:
        for i in range(n):
            lits = []
            for k in range(3):
                for j in range(size):
                    agent_bit = (j >> (n - 1 - i)) & 1
                    lits.append(-var(k, j) if agent_bit else var(k, j))
            clauses.append(tuple(lits))
    ordered = sorted(set(tuple(sorted(c, key=abs)) for c in clauses))
    var_of = {(k, j): var(k, j) for k in range(3) for j in range(size)}
    entry_of = {v: kj for kj, v in var_of.items()}
    names = {v: f"{PAIR_NAMES[k]}:{j:0{n}b}" for (k, j), v in var_of.items()}
    cnf = Cnf(3 * size, tuple(ordered), var_names=names)
    return ArrowEncoding(n=n, axioms=axioms, cnf=cnf, var_of=var_of, entry_of=entry_of)


def decode_model(enc: ArrowEncoding, model: dict[int, bool]) -> PairwiseSwf:
    """Read the table entries out of a model; must yield a valid SWF."""
    size = 1 << enc.n
    missing = [v for v in enc.entry_of if v not in model]
    if missing:
        raise ValueError(f"model must assign all encoding variables; missing {missing[:5]}")
    tables = tuple(
        tuple(1 if model[enc.var_of[(k, j)]] else 0 for j in range(size)) for k in range(3)
    )
    try:
        return PairwiseSwf(enc.n, tables)
    except ValueError as e:
        raise RuntimeError(f"encoder bug: model decodes to an invalid SWF ({e})") from e
