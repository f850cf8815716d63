"""CNF model, a DPLL solver, DIMACS I/O and model enumeration.

The solver knows nothing of what its variables mean: a `Cnf` is a
variable count and clauses.  Each encoder lives with the objects it
encodes, and so do the names of its variables for a DIMACS sidecar
(`swf.var_names`, `ranksets.var_names`).

Literals are nonzero integers in the usual convention: +v asserts variable
v, -v negates it.  The solver is plain DPLL with two-watched-literal unit
propagation (Chaff's scheme, with MiniSat's flat per-clause storage of the
watches) and chronological backtracking; decisions always pick the
lowest-index unassigned variable, trying true first, so runs are fully
deterministic and every Sat answer is the lexicographically greatest model.
Each clause starts out watching its last two distinct literals.  The
`ranksets` encoders put low variables first and the search assigns low
variables first, so there late watches wake later than early ones would:
linear `ranksets discover --max-m 5` visits 59,571 watches, where watching
each clause's first two literals visited 69,353.  The Arrow encoding goes
the other way: `arrow --agents 3` visits 866 watches against 767, since
`swf.encode_arrow` writes each acyclicity clause in table order (ab, ac,
bc), so the late watches sit on the tables the search assigns last.  The
watches change only what a search costs, never what it answers (see
`Solver`).

Each checker of a clause serves one caller.  `Cnf` checks every clause it
is built from in one bulk pass, and for the encoders' formulas that is the
only check.  `from_dimacs` checks each literal of `sat` input against the
header as it reads it, so that a refusal names the input line; `Cnf` then
checks the parsed clauses once more.  `Solver(cnf)` takes its formula
once, fixed from then on, and keeps its watch lists between calls of
`solve(assumptions)`, which fixes the assumption literals at the root of
the search.  A clause guarded by a selector, (-s, *clause), is thus
switched on or off per call, so one solver answers a family of related
formulas.  `solve(cnf)` is a one-shot solver.  `enumerate_models` is
AllSAT by continuation: one search on one solver goes on past each model
as if it were a conflict, so it adds no blocking clauses and yields the
models in lexicographically descending order.

No model reaches a caller unverified, but the search itself verifies
nothing: each of its two callers checks what it takes, in the way that
suits how many models it takes.  `Solver.solve` takes one and checks it
with `_check_model`, one set test per clause.  `enumerate_models` takes
every model, the one that only tells it the run is truncated included,
and checks each against per-literal clause masks that `_clause_masks`
builds at its first model: a model passes when the masks of its true
literals OR to all ones, one big-int OR per variable instead of one set
test per clause.  The masks cost about ten set passes to build, and a
solver that answers a few solves under assumptions would never earn
them back, so `solve` does not build them, and nor does an AllSAT run
that finds no model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

# variables a DIMACS header may declare: the solver allocates per variable
DEFAULT_VAR_BUDGET = 1_000_000
# the most digits of a DIMACS number, and the most characters a refusal quotes of a line
COUNT_DIGITS = 18
QUOTED_CHARS = 40


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        clauses = tuple(map(tuple, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        num_vars = self.num_vars
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        # one pass collects the distinct literals, which are then checked in
        # bulk; only a formula that fails the bulk check is walked literal by
        # literal, so that the error names its first bad clause or literal
        lits = set(chain.from_iterable(clauses))
        lo, hi = min(lits, default=0), max(lits, default=0)
        if all(clauses) and 0 not in lits and -num_vars <= lo and hi <= num_vars:
            return
        for c in clauses:
            if not c:
                raise ValueError("empty clause not allowed at construction")
            for lit in c:
                if lit == 0:
                    raise ValueError("literal 0 is reserved as the clause terminator")
                if abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} exceeds declared {num_vars} variable(s)")


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    assignment: dict[int, bool] | None = None


@dataclass(frozen=True)
class ModelEnumeration:
    models: tuple[dict[int, bool], ...]
    truncated: bool


SOLVER_BUG = "solver bug: produced assignment fails verification"


def _check_model(clauses, assignment) -> bool:
    true_lits = {v if value else -v for v, value in assignment.items()}
    return not any(map(true_lits.isdisjoint, clauses))


def _clause_masks(clauses, num_vars: int) -> list[int]:
    """Per literal, indexed like the solver's per-literal lists: the int
    with bit i set when the literal occurs in clause i."""
    masks = [0] * (2 * num_vars + 1)
    for i, c in enumerate(clauses):
        bit = 1 << i
        for lit in c:
            masks[lit] |= bit
    return masks


class Solver:
    """DPLL over one fixed formula, answering each call under assumptions.

    The solver holds the Cnf's clause tuples as they are, already checked
    by Cnf, their watch lists and their unit literals; these live as long
    as the solver.  Both solve(assumptions) and AllSAT run one search,
    `_search`, which owns its assignment and starts from an empty one, so
    solve's answer is that of a fresh solve of the clauses plus one unit
    clause per assumption; with the fixed decision order that answer is
    also the same model.  AllSAT takes every model the search yields, solve
    only the first.  The search yields its models unverified, and each
    caller verifies what it takes (see the module docstring): solve checks
    its one model clause by clause, since the clause masks that AllSAT
    checks against cost about ten such passes to build.

    A search keeps one stack, the trail of the literals it made true, in
    order, and its decisions are positions on it: one for each decision
    still on its true branch (MiniSat's `trail_lim`).  The one invariant:
    every trail literal after decision position p is implied by the
    decisions at or before p.  Unit propagation derives it from them, the
    root literals (unit clauses and assumptions), the clauses, and the
    lemma of each earlier pop.  A conflict, or a model, pops the latest
    decision d, undoes the trail to its position and propagates -d as an
    implied literal of the level below.  With d1..dk still stacked, that
    pop's lemma is the clause -d1 v ... v -dk v -d: after a conflict,
    unit propagation from d1..dk and d reaches the conflict; after a
    model, every variable is assigned, so the lemma excludes only models
    already yielded.  A backjumping search would change only the level it
    pops to.

    The two literals clause ci watches are `_w0[ci]` and `_w1[ci]`, two
    flat int lists indexed by clause, and `_watches[lit]` lists the clauses
    that watch lit.  Which literals a clause watches changes only what a
    search costs, never what it answers: unit propagation reaches the same
    closure, or a conflict, in whatever order it visits the watches, and
    each decision depends on that closure alone (the lowest unassigned
    variable, tried true first).  So the search tree, every model and the
    AllSAT order do not depend on the watches.

    Per-literal state sits in lists indexed by the literal itself: +v at
    index v and -v at index -v, which Python maps into the upper half of a
    list of 2 * num_vars + 1 entries.
    """

    def __init__(self, cnf: Cnf):
        self.num_vars = num_vars = cnf.num_vars
        self.clauses = cnf.clauses
        # clause ci first watches its last literal and the last one that
        # differs from it.  A clause of one distinct literal is a unit: each
        # search makes it true at the root and never undoes it, so no watch
        # list needs it
        self._w0 = w0 = [c[-1] for c in self.clauses]
        self._w1 = w1 = [
            c[-2] if len(c) > 1 and c[-2] != last else next((lit for lit in reversed(c) if lit != last), last)
            for c, last in zip(self.clauses, w0)
        ]
        self._units: list[int] = []
        self._watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]  # by literal
        for ci, (a, b) in enumerate(zip(w0, w1)):
            if a == b:
                self._units.append(a)
            else:
                self._watches[a].append(ci)
                self._watches[b].append(ci)

    def solve(self, assumptions=()) -> SolveResult:
        """Lexicographically greatest model (variable 1 first, true above
        false) that makes every assumption literal true: the search's first
        model, verified against every clause and assumption before return."""
        assumptions = tuple(assumptions)
        model = next(self._search(assumptions), None)
        if model is None:
            return SolveResult(False)
        if not (_check_model(self.clauses, model) and all(model[abs(lit)] == (lit > 0) for lit in assumptions)):
            raise RuntimeError(SOLVER_BUG)
        return SolveResult(True, model)

    def _search(self, assumptions=()):
        """Yield every model that makes every assumption literal true, in
        lexicographically descending order, as a dict from each variable to
        its value.  The models are not verified here: the caller verifies
        each one it takes, solve by `_check_model` and AllSAT by clause masks.

        `decisions` holds the trail position of each decision still on its
        true branch, and every trail literal after position p is implied
        by the decisions at or before p (see `Solver`).  After a model the
        search pops a decision as after a conflict, so it adds no clause.
        Each search keeps its own assignment, but the watch lists are the
        solver's and a search moves them: another search on the same
        solver invalidates a live iterator.
        """
        nvars = self.num_vars
        assumptions = tuple(assumptions)
        for lit in assumptions:
            if lit == 0 or abs(lit) > nvars:
                raise ValueError(f"assumption {lit} is not a literal over {nvars} variable(s)")
        clauses, watches, w0, w1 = self.clauses, self._watches, self._w0, self._w1
        value = [0] * (2 * nvars + 1)  # by literal: 0 unassigned, 1 true, -1 false
        trail: list[int] = []  # literals made true, in order

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
                    other = w1[ci] if w0[ci] == falsified else w0[ci]
                    if value[other] == 1:
                        i += 1
                        continue
                    for cand in clauses[ci]:
                        # move the watch to a non-false literal; falsified is false, so needs no test
                        if value[cand] != -1 and cand != other:
                            w0[ci], w1[ci] = other, cand
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

        decisions: list[int] = []  # trail position of each decision on its true branch
        next_var = 1
        while True:
            while next_var <= nvars and value[next_var] != 0:
                next_var += 1
            if next_var > nvars:
                yield {v: value[v] > 0 for v in range(1, nvars + 1)}
                ok = False  # go on past the model as if it were a conflict
            else:
                decisions.append(len(trail))
                ok = propagate([next_var])
            while not ok:
                # pop the latest decision, undo its level and imply its
                # negation at the level below
                if not decisions:
                    return
                mark = decisions.pop()
                next_var = trail[mark]
                for lit in trail[mark:]:
                    value[lit] = value[-lit] = 0
                del trail[mark:]
                ok = propagate([-next_var])


def solve(cnf: Cnf) -> SolveResult:
    """DPLL with unit propagation; Sat models are verified before return."""
    return Solver(cnf).solve()


def enumerate_models(cnf: Cnf, *, limit: int | None = None) -> ModelEnumeration:
    """AllSAT in lexicographically descending order by one continued DPLL
    search; truncated when a model beyond the first `limit` exists.  Each
    model the search yields, the one past `limit` too, is verified by the
    clause masks, built at the first model."""
    models: list[dict[int, bool]] = []
    masks = None
    for model in Solver(cnf)._search():
        if masks is None:
            masks, everything = _clause_masks(cnf.clauses, cnf.num_vars), (1 << len(cnf.clauses)) - 1
        covered = 0
        for v, true in model.items():
            covered |= masks[v] if true else masks[-v]
        if covered != everything:
            raise RuntimeError(SOLVER_BUG)
        if limit is not None and len(models) == limit:
            return ModelEnumeration(tuple(models), True)
        models.append(model)
    return ModelEnumeration(tuple(models), False)


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in cnf.clauses]
    return "\n".join(lines) + "\n"


def _ints(tokens: list[str], lineno: int, line: str, what: str) -> list[int]:
    """The tokens of a line as ints.  A DIMACS number is a count or a
    variable, so one of more than COUNT_DIGITS digits is refused by its digit
    count.  int() also reads non-ASCII digits and '_' separators, which
    DIMACS does not allow; with neither in the line, int() reads a token
    exactly when it is ASCII digits after an optional sign."""
    if max(map(len, tokens)) > COUNT_DIGITS:
        digits = max(sum(map(str.isdigit, t)) for t in tokens)
        if digits > COUNT_DIGITS:
            raise ValueError(f"line {lineno}: number of {digits} digits exceeds the {COUNT_DIGITS}-digit limit")
    try:
        if not line.isascii() or "_" in line:
            raise ValueError
        return [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"line {lineno}: {what} {_quoted(line)}") from None


def _quoted(line: str) -> str:
    """A refused line's first QUOTED_CHARS characters, then '...' if it is longer."""
    return repr(line[:QUOTED_CHARS]) + "..." * (len(line) > QUOTED_CHARS)


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
                raise ValueError(f"line {lineno}: malformed header {_quoted(line)}, expected 'p cnf V C'")
            num_vars, declared_clauses = _ints(parts[2:], lineno, line, "non-integer counts in header")
            if num_vars < 0 or declared_clauses < 0:
                raise ValueError(f"line {lineno}: negative counts in header {_quoted(line)}")
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause before 'p cnf' header")
        for t in _ints(line.split(), lineno, line, "non-integer literal in"):
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
