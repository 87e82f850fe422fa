"""Exact linear programming over integer data, with `fractions.Fraction`
results.

A program's data are ints.  Each `Constraint` holds its row's nonzero
`(column, coefficient)` terms in rising column order and an int right-hand
side, and the objective and the bounds are ints.  Every program of the
paper is such a program: 0/1 incidence rows with integer weights and
costs, and branch-and-bound nodes with integer bounds.  A rational row is
posed by scaling it by the lcm of its denominators, which divides its dual
by that factor.  Every row is an inequality, `<=` or `>=`: an equality is
posed as its `<=` and `>=` pair, and no program of the paper has one.  So
row i of a tableau has its slack or surplus in column n + i, and its dual
is read off that column.

A two-phase primal simplex with Bland's rule (guaranteed termination) plus
a deterministic branch-and-bound layer for integer programs.  A row with a
unit column (a column with no other nonzero, of the row's sign and with no
upper bound) starts basic in it, and phase 1 runs only for the rows left
with an artificial.  So the covering programs P2 and P5 start phase 2 at
once from their direct-send columns.  In a
branch-and-bound node, a bound row on such a column leaves its row to
phase 1 unless the row has another unit column.  Integrality is the
solver's choice: `solve_lp` solves a program's LP relaxation and
`solve_ilp` the same program with every variable integer.  Everything is
exact: optimal values, primal solutions, and dual certificates are
rational numbers with no tolerance anywhere.  A branch-and-bound node is
a program too: its parent with one variable bound tightened.

The simplex runs at most once per program and once per transposed pair.
A program is frozen and keeps its relaxation's result, so the root of
`solve_ilp` is free once `solve_lp` has run on the same object; and an
optimum of either program of a pair made by `transpose` answers the
other, its point being the other's row duals and its row duals the
other's point.  The kept result lives and dies with its program object;
a program made by `replace`, a branch-and-bound node included, starts
without one.

The tableau is fraction-free (in the spirit of Bareiss elimination): each
row, and the reduced-cost row, is a list of integer numerators over one
positive integer denominator.  A row enters the tableau as its own terms
over the denominator 1.  A row is checked once, when its `Constraint` is
made, and the relaxation, the integer root and every branch-and-bound
node hold the same `Constraint` objects.  A pivot touches
only the rows with a nonzero in the pivot column, subtracts only at the
pivot row's nonzero columns (the whole row is rescaled only when the pivot
does not divide its entry), and divides each updated row by one gcd.  The
ratio test cross-multiplies integers.  Fractions are built only when the
primal and the constraint rows' duals are read out, only for nonzero
values and once per distinct numerator and denominator, so the pivot
sequence and every reported value are those of a plain rational tableau.
`verify_certificate`, the package's one certificate checker, reads the
program's own terms, never the tableau; it too compares integers, each
vector of the certificate over one common denominator.

A certificate is the optimal point x and its row duals y; the reduced
costs c - yA follow from them, and the verifier derives them itself.  The
duals are shadow prices in the problem's own sense, i.e. the derivative of
the optimal value with respect to the row's right-hand side.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import compress
from math import ceil, floor, gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_NODE_LIMIT = 10**6


class DimensionError(ValueError):
    """A program's data do not fit its shape: a row's terms out of order or
    out of range, a value that is not an int, or bounds, names or keys of
    the wrong length."""


class NodeLimitExceeded(RuntimeError):
    """Branch-and-bound exhausted its node budget."""


def _bad_term(name, j, a, prev) -> str:
    """Why the term (j, a) cannot follow column `prev` in row `name`."""
    what = (f"column {j!r} is not an int" if type(j) is not int
            else f"coefficient {a!r} of column {j} is not an int" if type(a) is not int
            else f"column {j} is negative" if j < 0
            else f"column {j} is repeated" if j == prev
            else f"column {j} follows column {prev}" if j < prev
            else f"column {j} has a zero coefficient")
    return f"row {name!r}: {what}"


@dataclass(frozen=True)
class Constraint:
    """sum a * x_j over `terms` `rel` `rhs`: `terms` holds the row's nonzero
    (column j, int a) pairs in rising column order.  Checked once, here."""

    terms: tuple[tuple[int, int], ...]
    rel: str  # "<=" or ">=": an equality is posed as its "<=" and ">=" pair
    rhs: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.rel not in ("<=", ">="):
            raise DimensionError(f"row {self.name!r}: unknown relation {self.rel!r}")
        if type(self.rhs) is not int:
            raise DimensionError(f"row {self.name!r}: rhs {self.rhs!r} is not an int")
        prev = -1
        for j, a in self.terms:
            if not (type(j) is int and type(a) is int and j > prev and a):
                raise DimensionError(_bad_term(self.name, j, a, prev))
            prev = j


@dataclass(frozen=True)
class LinearProgram:
    """max/min c.x subject to linear rows and per-variable bounds.

    Frozen, so the relaxation's result that `solve_lp` keeps on it cannot
    go stale.  Neither that result nor the program `transpose` made it from
    is an argument: `replace`, and so every branch-and-bound node, starts
    without them."""

    sense: str  # "max" or "min"
    objective: tuple[int, ...]
    constraints: tuple[Constraint, ...] = ()
    lower: tuple[int, ...] = ()
    upper: tuple[int | None, ...] = ()  # None = unbounded above
    var_names: tuple[str, ...] = ()
    var_keys: tuple = ()  # per column: Cycle, PartialClique or packet id; () if unset
    _result: SolveResult | None = field(default=None, init=False, compare=False, repr=False)
    _source: LinearProgram | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.objective)
        put = partial(object.__setattr__, self)
        put("objective", tuple(self.objective))
        put("constraints", tuple(self.constraints))
        put("lower", tuple(self.lower) or (0,) * n)
        put("upper", tuple(self.upper) or (None,) * n)
        if not self.var_names:
            put("var_names", tuple(f"x{j}" for j in range(n)))
        if not (n == len(self.lower) == len(self.upper) == len(self.var_names)
                and len(self.var_keys) in (0, n)):
            raise DimensionError("bounds/names/keys must match the variable count")
        for what, values in (("objective entry", self.objective), ("lower bound", self.lower),
                             ("upper bound", self.upper)):
            for j, v in enumerate(values):
                if type(v) is not int and not (v is None and what == "upper bound"):
                    raise DimensionError(f"{what} {v!r} of column {j} is not an int")
        for lo, hi in zip(self.lower, self.upper):
            if hi is not None and lo > hi:
                raise DimensionError(f"inconsistent bounds: {lo} > {hi}")
        for c in self.constraints:
            if c.terms and c.terms[-1][0] >= n:
                raise DimensionError(
                    f"row {c.name!r}: column {c.terms[-1][0]} is out of range for {n} variables")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def transpose(lp: LinearProgram) -> LinearProgram:
    """The exact LP dual of a covering program (min, every row >=) or a
    packing program (max, every row <=) over x >= 0.

    Row i becomes column i and column j becomes row j, each under its own
    name.  The dual records `lp` as its source, so that `solve_lp` solves
    the pair once.  Any other program raises ValueError.
    """
    rel = {"min": ">=", "max": "<="}.get(lp.sense)
    if rel is None or any(c.rel != rel for c in lp.constraints):
        raise ValueError("transpose needs a min program with >= rows or a max program with <= rows")
    if any(lp.lower) or any(hi is not None for hi in lp.upper):
        raise ValueError("transpose needs x >= 0 with no other bounds")
    columns = [[] for _ in lp.objective]
    for i, con in enumerate(lp.constraints):
        for j, a in con.terms:
            columns[j].append((i, a))
    dual_rel = "<=" if rel == ">=" else ">="
    dual = LinearProgram(
        "max" if lp.sense == "min" else "min",
        tuple(c.rhs for c in lp.constraints),
        [Constraint(col, dual_rel, cj, name)
         for col, cj, name in zip(columns, lp.objective, lp.var_names)],
        var_names=tuple(c.name for c in lp.constraints),
    )
    object.__setattr__(dual, "_source", lp)
    return dual


@dataclass
class SolveResult:
    status: str
    objective: Fraction | None
    primal: tuple[Fraction, ...] = ()
    row_duals: tuple[Fraction, ...] = ()
    branch_count: int = 0
    lp: LinearProgram | None = None


def _reduce(nums, den):
    """Divide an integer row and its denominator by their common gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return [v // g for v in nums], den // g
    return nums, den


def _eliminate(nums, den, c, piv, nz):
    """Integer form of row - (row[c] / piv) * pivot_row, where the pivot row
    has the nonzeros `nz` and the entry `piv` in column c, both over one
    denominator.  Only the pivot row's nonzero columns are touched unless
    piv does not divide row[c], when the row is rescaled first."""
    g = gcd(nums[c], piv)
    f, p = nums[c] // g, piv // g
    if p != 1:
        nums = [v * p for v in nums]
        den *= p
    for j, v in nz:
        nums[j] -= f * v
    return _reduce(nums, den)


def _pivot(tab, dens, basis, r, c, cost=None):
    """In-place pivot of the integer tableau on (row r, column c).  Row i has
    the values tab[i] / dens[i]; `cost` is an optional [nums, den] reduced-cost
    row updated alongside.  Only rows with a nonzero in column c change."""
    row, piv = tab[r], tab[r][c]
    if piv < 0:
        row, piv = [-v for v in row], -piv
    # The pivot row becomes row / piv: its own denominator cancels.
    tab[r], dens[r] = row, den = _reduce(row, piv)
    nz = [(j, row[j]) for j in compress(range(len(row)), row)]
    for i, other in enumerate(tab):
        if i != r and other[c]:
            tab[i], dens[i] = _eliminate(other, dens[i], c, den, nz)
    if cost is not None and cost[0][c]:
        cost[0], cost[1] = _eliminate(cost[0], cost[1], c, den, nz)
    basis[r] = c


def _cost_row(obj, tab, dens, basis, width):
    """[nums, den] of the reduced costs of `obj` ({column: int}) against
    the current basis: the objective row with every basic column eliminated."""
    terms = [(obj[b], tab[i], dens[i]) for i, b in enumerate(basis) if b in obj]
    den = lcm(*(d for _, _, d in terms))
    nums = [0] * width
    for j, v in obj.items():
        nums[j] = v * den
    for cb, row, d in terms:
        k = cb * (den // d)
        for j in compress(range(width), row):
            nums[j] -= k * row[j]
    return list(_reduce(nums, den))


def _simplex(tab, dens, basis, cost, banned):
    """Minimize, Bland's rule.  `tab` rows are integer numerators
    [a_0..a_{n-1} | b] over `dens`; `cost` is [nums, den] of the reduced-cost
    row [cbar_0..cbar_{n-1} | -obj].  Returns status."""
    while True:
        nums = cost[0]
        enter = next((j for j in compress(range(len(nums) - 1), nums)
                      if nums[j] < 0 and j not in banned), -1)
        if enter < 0:
            return OPTIMAL
        # Ratio test b_i / a_i: both share row i's denominator, so compare by
        # cross-multiplying.  Bland tie-break on smallest basis variable index.
        leave = -1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, row[-1], a
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, dens, basis, leave, enter, cost)


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Exact optimum of the LP relaxation.

    Returns the objective, the primal point x and its certificate, the row
    duals y: one shadow price per constraint row (see `verify_certificate`).
    The result is kept on `lp` and returned by every later call.  A
    transposed pair shares one solve: an optimum of either program, solved
    first, answers the other with its point and row duals swapped, which
    is LP duality read off one tableau.  A result that is not optimal
    answers only its own program.
    """
    res = lp._result
    if res is None:
        src = lp._source
        known = None if src is None else src._result
        if known is not None and known.status == OPTIMAL:
            res = _read_off(known, lp)
        else:
            res = _solve(lp)
            if known is None and src is not None and res.status == OPTIMAL:
                object.__setattr__(src, "_result", _read_off(res, src))
        object.__setattr__(lp, "_result", res)
    return res


def _read_off(res: SolveResult, dual: LinearProgram) -> SolveResult:
    """The optimum of `dual`, the LP dual of the program `res` solves: its
    point is res's row duals and its row duals are res's point."""
    return SolveResult(OPTIMAL, res.objective, res.row_duals, res.primal, lp=dual)


class _Fractions(dict):
    """(numerator, denominator) -> the Fraction built for it, built once."""

    def __missing__(self, key):
        value = self[key] = Fraction(*key)
        return value


def _solve(lp: LinearProgram) -> SolveResult:
    """`solve_lp` by the simplex: build the tableau and pivot it."""
    n = lp.num_vars
    lower, upper = lp.lower, lp.upper
    minimize = lp.sense == "min"
    c = [cj if minimize else -cj for cj in lp.objective]
    shifted = any(lower)

    # Rows: original constraints (shifted by lower bounds), then one
    # upper-bound row x_j <= hi_j - lo_j per finite upper bound.
    rows = [(con.terms, con.rel,
             con.rhs - sum(a * lower[j] for j, a in con.terms) if shifted else con.rhs)
            for con in lp.constraints]
    rows += [(((j, 1),), "<=", hi - lower[j]) for j, hi in enumerate(upper) if hi is not None]

    m = len(rows)
    # Column layout: structural 0..n-1, then row i's slack or surplus n + i,
    # then one artificial per row that needs it.  Row i starts basic in its
    # slack unless it reads >= once a negative rhs is flipped.  Such a row
    # needs no artificial when it has a unit column: a structural column
    # with no other nonzero in any row, upper-bound rows included, and an
    # entry of the row's sign.  The lowest such column starts basic at
    # rhs / entry >= 0, and the row's surplus stays nonbasic.
    flipped = [rhs < 0 for _, _, rhs in rows]
    basis = list(range(n, n + m))
    ncols = n + m
    touched = None  # per structural column, the number of rows it is nonzero in
    for i, (terms, rel, _) in enumerate(rows):
        if (rel == ">=") != flipped[i]:
            if touched is None:
                touched = [0] * n
                for row_terms, _, _ in rows:
                    for j, _ in row_terms:
                        touched[j] += 1
            basis[i] = next((j for j, a in terms if touched[j] == 1 and (a > 0) != flipped[i]),
                            ncols)
            if basis[i] == ncols:
                ncols += 1

    # Each row enters as its own integers over 1, negated if flipped; a row
    # with a unit column is divided by its entry there.
    tab = []
    dens = []
    for i, (terms, rel, rhs) in enumerate(rows):
        sign = -1 if flipped[i] else 1
        row = [0] * (ncols + 1)
        for j, a in terms:
            row[j] = sign * a
        row[-1] = sign * rhs
        row[n + i] = sign if rel == "<=" else -sign
        den = 1
        if basis[i] < n:
            row, den = _reduce(row, row[basis[i]])
        elif basis[i] >= n + m:
            row[basis[i]] = 1
        tab.append(row)
        dens.append(den)

    arts = range(n + m, ncols)
    if arts:
        # Phase 1: minimize the sum of artificials.
        cost = _cost_row(dict.fromkeys(arts, 1), tab, dens, basis, ncols + 1)
        status = _simplex(tab, dens, basis, cost, banned=set())
        assert status == OPTIMAL  # phase 1 is always bounded below by 0
        if cost[0][-1] != 0:
            return SolveResult(INFEASIBLE, None, lp=lp)
        # Drive artificials out of the basis where possible.
        for i in range(m):
            if basis[i] in arts:
                enter = next((j for j in range(n + m) if tab[i][j] != 0), None)
                if enter is not None:
                    _pivot(tab, dens, basis, i, enter)

    # Phase 2: reduced costs of the true objective against the current basis.
    cost = _cost_row({j: cj for j, cj in enumerate(c) if cj}, tab, dens, basis, ncols + 1)
    status = _simplex(tab, dens, basis, cost, banned=arts)
    if status == UNBOUNDED:
        return SolveResult(UNBOUNDED, None, lp=lp)

    # Readout: the only place Fractions are built from the integer tableau,
    # one per distinct numerator and denominator; x_j is lo_j plus its
    # shifted value.
    nums, den = cost
    made = _Fractions()
    primal = [made[lo, 1] for lo in lower]
    for i, b in enumerate(basis):
        if b < n and tab[i][-1]:
            primal[b] = made[tab[i][-1] + lower[b] * dens[i], dens[i]]
    # The internal minimized objective, c.lo plus the shifted program's.
    obj_min = sum(cj * lo for cj, lo in zip(c, lower)) - Fraction(nums[-1], den)
    objective = obj_min if minimize else -obj_min

    # Internal duals y_i (for the minimized problem) of the constraint rows,
    # the first rows, read off their slack columns, then converted to shadow
    # prices in lp.sense.  Row negation and slack orientation flip together,
    # so the original row's dual depends only on its relation.
    sense_flip = 1 if minimize else -1
    row_duals = [made[(-nums[n + i] if con.rel == "<=" else nums[n + i]) * sense_flip, den]
                 for i, con in enumerate(lp.constraints)]
    return SolveResult(OPTIMAL, objective, tuple(primal), tuple(row_duals), lp=lp)


def _as_integers(values) -> tuple[int, list[int]]:
    """(d, [v * d, ...]): rationals (or ints) as integers over d, the lcm of
    their denominators."""
    d = lcm(*{v.denominator for v in values})
    return d, [v.numerator * (d // v.denominator) for v in values]


def verify_certificate(lp: LinearProgram, res: SolveResult) -> bool:
    """Check that the point x and the row duals y of `res` prove its
    objective optimal, exactly and with no tolerance.

    x must be feasible, every row with y_i != 0 tight, and every y_i of its
    shadow-price sign.  The reduced cost s_j = sgn (c_j - sum_i y_i a_ij),
    sgn = 1 for min and -1 for max, is derived here: s_j > 0 needs x_j at
    lo_j and s_j < 0 needs x_j at a finite hi_j, so s_j splits into bound
    multipliers that make y dual feasible with value c.x, and the objective
    must be c.x.  The check thus accepts exactly the optimal primal-dual
    pairs.  A point or duals that are not a sequence, or a sequence of the
    wrong length, are rejected, and so is a certificate with an entry or
    objective that is not an int or a Fraction.

    It reads the program's own terms, rhs, costs and bounds, which are
    ints, and brings x and y each over one common denominator, so every
    comparison and the sums sum_i y_i a_ij are integer arithmetic.
    """
    n, rows = lp.num_vars, lp.constraints
    x, y = res.primal, res.row_duals
    if (res.status != OPTIMAL or not isinstance(x, Sequence) or not isinstance(y, Sequence)
            or len(x) != n or len(y) != len(rows)
            or any(type(v) not in (int, Fraction) for v in (res.objective, *x, *y))):
        return False
    sgn = 1 if lp.sense == "min" else -1  # internal minimization sign
    dx, X = _as_integers(x)
    dy, Y = _as_integers(y)
    # Primal feasibility, complementary slackness and the dual sign on rows;
    # S[j] / dy is sum_i y_i a_ij.
    S = [0] * n
    for con, Yi in zip(rows, Y):
        sign = 1 if con.rel == "<=" else -1  # the row reads sign (lhs - rhs) <= 0
        gap = sign * (sum(a * X[j] for j, a in con.terms) - con.rhs * dx)
        # Dual sign: for a max problem, <= rows have y >= 0, >= rows y <= 0.
        if gap > 0 or (Yi and gap) or sgn * sign * Yi > 0:
            return False
        if Yi:
            for j, a in con.terms:
                S[j] += Yi * a
    for Xj, Sj, cj, lo, hi in zip(X, S, lp.objective, lp.lower, lp.upper):
        lx = lo * dx  # lo_j and hi_j over dx
        if Xj < lx or (hi is not None and Xj > hi * dx):
            return False
        s = sgn * (cj * dy - Sj)  # the reduced cost s_j over dy
        if (s > 0 and Xj != lx) or (s < 0 and (hi is None or Xj != hi * dx)):
            return False
    return Fraction(sum(c * Xj for c, Xj in zip(lp.objective, X)), dx) == res.objective


def solve_ilp(lp: LinearProgram, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Exact optimum of `lp` with every variable integer, by branch-and-bound
    on the rational LP relaxation.

    Deterministic: branch on the lowest-index fractional variable, explore
    the floor branch first (depth-first).  Each node is `lp` with tightened
    bounds.  A child's bounds never cross: the bounds are ints, so lo <= v
    <= hi with v fractional gives lo <= floor(v) < floor(v) + 1 <= hi.  The
    costs are ints, so the value of every integer point is an int, and node
    bounds are rounded (floor for max, ceil for min) before they are
    compared with the incumbent.
    """
    best: SolveResult | None = None
    nodes = 0
    maximize = lp.sense == "max"
    stack = [lp]
    while stack:
        node = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(f"branch-and-bound exceeded {node_limit} nodes")
        res = solve_lp(node)
        if res.status == UNBOUNDED:
            return SolveResult(UNBOUNDED, None, branch_count=nodes, lp=lp)
        if res.status != OPTIMAL:
            continue
        if best is not None:
            if maximize and floor(res.objective) <= best.objective:
                continue
            if not maximize and ceil(res.objective) >= best.objective:
                continue
        frac_j = next((j for j, v in enumerate(res.primal) if v.denominator != 1), None)
        if frac_j is None:
            best = res
            continue
        down = floor(res.primal[frac_j])
        # LIFO stack: push ceil first so the floor branch is explored first.
        stack.append(replace(
            node, lower=node.lower[:frac_j] + (down + 1,) + node.lower[frac_j + 1:]))
        stack.append(replace(
            node, upper=node.upper[:frac_j] + (down,) + node.upper[frac_j + 1:]))
    if best is None:
        return SolveResult(INFEASIBLE, None, branch_count=nodes, lp=lp)
    return SolveResult(
        OPTIMAL, best.objective, best.primal, branch_count=nodes, lp=lp
    )
