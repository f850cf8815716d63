"""CNF model, a DPLL solver, DIMACS I/O and model enumeration.

The solver knows nothing of what its variables mean; each encoder lives
with the objects it encodes.

Literals are nonzero integers in the usual convention: +v asserts variable
v, -v negates it.  The solver is plain DPLL with two-watched-literal unit
propagation and chronological backtracking; decisions always pick the
lowest-index unassigned variable, trying true first, so runs are fully
deterministic and every Sat answer is the lexicographically greatest model.

`Solver` is persistent: it keeps its clauses and watch lists between
calls, takes further clauses with `add_clause`, and answers
`solve(assumptions)`, which fixes the assumption literals at the root of
the search.  A clause guarded by a selector, (-s, *clause), is thus
switched on or off per call, so one solver answers a family of related
formulas.  `solve(cnf)` is a one-shot solver.  `enumerate_models` is
AllSAT by continuation: one search on one solver goes on past each model
as if it were a conflict, so it adds no blocking clauses and yields the
models in lexicographically descending order.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_clause(clause, num_vars: int) -> None:
    if not clause:
        raise ValueError("empty clause not allowed at construction")
    for lit in clause:
        if lit == 0:
            raise ValueError("literal 0 is reserved as the clause terminator")
        if abs(lit) > num_vars:
            raise ValueError(f"literal {lit} exceeds declared {num_vars} variable(s)")


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
            _check_clause(c, self.num_vars)


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    assignment: dict[int, bool] | None = None


@dataclass(frozen=True)
class ModelEnumeration:
    models: tuple[dict[int, bool], ...]
    truncated: bool


def _check_model(clauses, assignment) -> bool:
    true_lits = {v if value else -v for v, value in assignment.items()}
    return not any(map(true_lits.isdisjoint, clauses))


class Solver:
    """DPLL over a growing clause set, answering each call under assumptions.

    The clauses and their watch lists live as long as the solver.  Both
    solve(assumptions) and AllSAT run one search, `_search`, which starts
    from an empty trail, so solve's answer is that of a fresh solve of the
    clauses plus one unit clause per assumption; with the fixed decision
    order that answer is also the same model.  AllSAT takes every model the
    search yields, solve only the first.

    Per-literal state sits in lists indexed by the literal itself: +v at
    index v and -v at index -v, which Python maps into the upper half of a
    list of 2 * num_vars + 1 entries.
    """

    def __init__(self, num_vars: int, clauses=()):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []
        self._watched: list[list[int]] = []  # the two watched literals of each clause
        self._watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]  # by literal
        self._units: list[int] = []
        self._value = [0] * (2 * num_vars + 1)  # by literal: 0 unassigned, 1 true, -1 false
        self._trail: list[int] = []  # literals made true, in order
        for c in clauses:
            self.add_clause(c)

    def add_clause(self, clause) -> None:
        # duplicate literals would let both watches collapse onto one literal
        c = tuple(dict.fromkeys(clause))
        _check_clause(c, self.num_vars)
        ci = len(self.clauses)
        self.clauses.append(c)
        first, second = c[0], c[1] if len(c) > 1 else c[0]  # a unit clause watches its literal twice
        self._watched.append([first, second])
        self._watches[first].append(ci)
        if second != first:
            self._watches[second].append(ci)
        else:
            self._units.append(first)

    def solve(self, assumptions=()) -> SolveResult:
        """Lexicographically greatest model (variable 1 first, true above
        false) that makes every assumption literal true; Sat models are
        verified against every clause and assumption before return."""
        assumptions = tuple(assumptions)
        if not self.clauses and not assumptions:
            return SolveResult(True, dict.fromkeys(range(1, self.num_vars + 1), False))
        return next(self._search(assumptions), SolveResult(False))

    def _search(self, assumptions=()):
        """Yield every model that makes every assumption literal true, in
        lexicographically descending order, each verified like solve's.

        After a model the search goes on as if it were a conflict, flipping
        the latest untried decision, so no clause is added.  The search runs
        on the solver's own trail: another solve or add_clause on the same
        solver invalidates a live iterator.
        """
        nvars = self.num_vars
        assumptions = tuple(assumptions)
        for lit in assumptions:
            if lit == 0 or abs(lit) > nvars:
                raise ValueError(f"assumption {lit} is not a literal over {nvars} variable(s)")
        clauses, watches, watched = self.clauses, self._watches, self._watched
        value, trail = self._value, self._trail
        for lit in trail:
            value[lit] = value[-lit] = 0
        trail.clear()

        def model() -> SolveResult:
            full = {v: value[v] > 0 for v in range(1, nvars + 1)}
            if not (_check_model(clauses, full) and _check_model([(lit,) for lit in assumptions], full)):
                raise RuntimeError("solver bug: produced assignment fails verification")
            return SolveResult(True, full)

        def propagate(queue) -> bool:
            """Make each queued literal true and propagate; False on conflict."""
            head = len(trail)
            for lit in queue:
                if value[lit] == -1:
                    return False
                if value[lit] == 0:
                    value[lit], value[-lit] = 1, -1
                    trail.append(lit)
            while head < len(trail):
                falsified = -trail[head]
                head += 1
                occ = watches[falsified]
                i, end = 0, len(occ)
                while i < end:
                    ci = occ[i]
                    w = watched[ci]
                    other = w[1] if w[0] == falsified else w[0]
                    if value[other] == 1:
                        i += 1
                        continue
                    for cand in clauses[ci]:
                        if cand != other and cand != falsified and value[cand] != -1:
                            # move the watch to a non-false literal
                            w[0], w[1] = other, cand
                            watches[cand].append(ci)
                            end -= 1
                            occ[i] = occ[end]
                            occ.pop()
                            break
                    else:
                        if value[other] == -1:
                            return False
                        value[other], value[-other] = 1, -1
                        trail.append(other)
                        i += 1
            return True

        if not propagate(self._units + list(assumptions)):
            return

        decisions: list[tuple[int, int, bool]] = []  # (var, trail length before, tried_false)
        next_var = 1
        while True:
            while next_var <= nvars and value[next_var] != 0:
                next_var += 1
            if next_var > nvars:
                yield model()
                ok = False  # go on past the model as if it were a conflict
            else:
                decisions.append((next_var, len(trail), False))
                ok = propagate([next_var])
            while not ok:
                # drop the decisions already tried both ways, then flip the latest
                # untried one; undoing to its mark undoes every dropped one too
                while decisions and decisions[-1][2]:
                    decisions.pop()
                if not decisions:
                    return
                dvar, mark, _ = decisions[-1]
                for lit in trail[mark:]:
                    value[lit] = value[-lit] = 0
                del trail[mark:]
                next_var = min(next_var, dvar)
                decisions[-1] = (dvar, mark, True)
                ok = propagate([-dvar])


def solve(cnf: Cnf) -> SolveResult:
    """DPLL with unit propagation; Sat models are verified before return."""
    return Solver(cnf.num_vars, cnf.clauses).solve()


def enumerate_models(cnf: Cnf, *, limit: int | None = None) -> ModelEnumeration:
    """AllSAT in lexicographically descending order by one continued DPLL
    search; truncated when a model beyond the first `limit` exists."""
    models: list[dict[int, bool]] = []
    for res in Solver(cnf.num_vars, cnf.clauses)._search():
        if limit is not None and len(models) == limit:
            return ModelEnumeration(tuple(models), True)
        models.append(res.assignment)
    return ModelEnumeration(tuple(models), False)


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
