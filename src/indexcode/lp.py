"""Exact-arithmetic linear programming with `fractions.Fraction` results.

A two-phase primal simplex with Bland's rule (guaranteed termination) plus
a deterministic branch-and-bound layer for integer variables.  Everything
is exact: optimal values, primal solutions, and dual certificates are
rational numbers with no tolerance anywhere.  A branch-and-bound node is
a program too: its parent with one variable bound tightened.

The tableau is fraction-free (in the spirit of Bareiss elimination): each
row, and the reduced-cost row, is a list of integer numerators over one
positive integer denominator.  Each `Constraint` is converted to integers
once, on first use (`Constraint.int_row`: its nonzeros as numerators over
the lcm of their denominators), and every solve of its program shares that
conversion: the relaxation, the integer root and every branch-and-bound
node hold the same `Constraint` objects.  A row enters the tableau scaled
by the lcm of that denominator and its right-hand side's.  A pivot touches
only the rows with a nonzero in the pivot column, subtracts only at the
pivot row's nonzero columns (the whole row is rescaled only when the pivot
does not divide its entry), and divides each updated row by one gcd.  The
ratio test cross-multiplies integers.  Fractions are built only when the
primal, the duals and the reduced costs are read out, and only for nonzero
values, so the pivot sequence and every reported value are those of a plain
rational tableau.  `verify_certificate` (and `programs.verify_duality`)
read the dense `coeffs` on purpose, so a certificate does not rest on the
conversion it certifies.

Sign conventions for the reported certificate (see `verify_certificate`):
duals are shadow prices in the problem's own sense, i.e. the derivative of
the optimal value with respect to the row's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import ceil, floor, gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_NODE_LIMIT = 10**6


class DimensionError(ValueError):
    """Row length or bounds length disagrees with the variable count."""


class NodeLimitExceeded(RuntimeError):
    """Branch-and-bound exhausted its node budget."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    """x as a Fraction; the int coefficients 0 and 1 map to shared objects."""
    t = type(x)
    if t is Fraction:
        return x
    if t is int and 0 <= x <= 1:
        return _ONE if x else _ZERO
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str  # "<=", ">=" or "="
    rhs: Fraction
    name: str = ""

    @cached_property
    def int_row(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(den, ((j, a_j * den), ...)): the nonzero coefficients as integer
        numerators over den, the lcm of their denominators.  Computed on
        first use and kept, so every solve of a program, and of each program
        made from it by `replace`, shares one conversion per row.  The
        shared 0 and 1 are told apart by identity, which spares the 0/1
        rows of the paper's programs a Fraction method call per entry."""
        nz = [(j, a) for j, a in enumerate(self.coeffs) if a is not _ZERO and a]
        den = lcm(*{a.denominator for _, a in nz if a is not _ONE})
        return den, tuple((j, den if a is _ONE else a.numerator * (den // a.denominator))
                          for j, a in nz)


def _check_row(con: Constraint, n: int) -> None:
    if len(con.coeffs) != n:
        raise DimensionError(f"row {con.name!r} has {len(con.coeffs)} coefficients, expected {n}")
    if con.rel not in ("<=", ">=", "="):
        raise DimensionError(f"unknown relation {con.rel!r}")


@dataclass
class LinearProgram:
    """max/min c.x subject to linear rows and per-variable bounds."""

    sense: str  # "max" or "min"
    objective: tuple[Fraction, ...]
    constraints: list[Constraint] = field(default_factory=list)
    lower: tuple[Fraction, ...] = ()
    upper: tuple[Fraction | None, ...] = ()  # None = unbounded above
    integer: tuple[bool, ...] = ()
    var_names: tuple[str, ...] = ()
    var_keys: tuple = ()  # per column: Cycle, PartialClique or packet id; () if unset

    def __post_init__(self):
        n = len(self.objective)
        self.objective = tuple(map(_frac, self.objective))
        if not self.lower:
            self.lower = (_ZERO,) * n
        if not self.upper:
            self.upper = (None,) * n
        if not self.integer:
            self.integer = (False,) * n
        if not self.var_names:
            self.var_names = tuple(f"x{j}" for j in range(n))
        self.lower = tuple(map(_frac, self.lower))
        self.upper = tuple(None if b is None else _frac(b) for b in self.upper)
        if not (n == len(self.lower) == len(self.upper) == len(self.integer) == len(self.var_names)
                and len(self.var_keys) in (0, n)):
            raise DimensionError("bounds/flags/names/keys must match the variable count")
        for lo, hi in zip(self.lower, self.upper):
            if hi is not None and lo > hi:
                raise DimensionError(f"inconsistent bounds: {lo} > {hi}")
        for c in self.constraints:
            _check_row(c, n)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def add_row(self, coeffs, rel, rhs, name=""):
        con = Constraint(tuple(map(_frac, coeffs)), rel, _frac(rhs), name)
        _check_row(con, self.num_vars)
        self.constraints.append(con)


def transpose(lp: LinearProgram) -> LinearProgram:
    """The exact LP dual of a covering program (min, every row >=) or a
    packing program (max, every row <=) over x >= 0.

    Row i becomes column i and column j becomes row j, each under its own
    name; the columns are integer when every column of `lp` is.  Any other
    program raises ValueError.
    """
    rel = {"min": ">=", "max": "<="}.get(lp.sense)
    if rel is None or any(c.rel != rel for c in lp.constraints):
        raise ValueError("transpose needs a min program with >= rows or a max program with <= rows")
    if any(lp.lower) or any(hi is not None for hi in lp.upper):
        raise ValueError("transpose needs x >= 0 with no other bounds")
    m, n = len(lp.constraints), lp.num_vars
    columns = zip(*(c.coeffs for c in lp.constraints)) if m else [()] * n
    dual_rel = "<=" if rel == ">=" else ">="
    return LinearProgram(
        "max" if lp.sense == "min" else "min",
        tuple(c.rhs for c in lp.constraints),
        [Constraint(col, dual_rel, cj, name)
         for col, cj, name in zip(columns, lp.objective, lp.var_names)],
        integer=(all(lp.integer),) * m,
        var_names=tuple(c.name for c in lp.constraints),
    )


@dataclass
class SolveResult:
    status: str
    objective: Fraction | None
    primal: tuple[Fraction, ...] = ()
    row_duals: tuple[Fraction, ...] = ()
    upper_bound_duals: tuple[Fraction | None, ...] = ()
    reduced_costs: tuple[Fraction, ...] = ()
    branch_count: int = 0
    lp: LinearProgram | None = None

    def primal_by_name(self) -> dict[str, Fraction]:
        return dict(zip(self.lp.var_names, self.primal))


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
    """[nums, den] of the reduced costs of `obj` ({column: value}) against
    the current basis: the objective row with every basic column eliminated."""
    terms = [(obj[b], tab[i], dens[i]) for i, b in enumerate(basis) if b in obj]
    den = lcm(*(v.denominator for v in obj.values()),
              *(cb.denominator * d for cb, _, d in terms))
    nums = [0] * width
    for j, v in obj.items():
        nums[j] = v.numerator * (den // v.denominator)
    for cb, row, d in terms:
        k = cb.numerator * (den // (cb.denominator * d))
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
    """Exact optimum of the LP relaxation (integrality flags ignored).

    Returns primal values, the objective, and a full dual certificate: one
    shadow price per constraint row, one per finite upper bound, and the
    reduced cost of every variable (the lower-bound multiplier).
    """
    n = lp.num_vars
    lower, upper = lp.lower, lp.upper
    minimize = lp.sense == "min"
    c = [cj if minimize else -cj for cj in lp.objective]
    shifts = [(j, lo) for j, lo in enumerate(lower) if lo]
    const = sum(c[j] * lo for j, lo in shifts)

    # Rows: original constraints (shifted by lower bounds), then one
    # upper-bound row x_j <= hi_j - lo_j per finite upper bound.
    rows = []  # (int_row, rel, rhs, kind, key)
    for i, con in enumerate(lp.constraints):
        rhs = con.rhs
        if shifts:
            rhs -= sum(con.coeffs[j] * lo for j, lo in shifts)
        rows.append((con.int_row, con.rel, rhs, "row", i))
    for j in range(n):
        if upper[j] is not None:
            rows.append(((1, ((j, 1),)), "<=", upper[j] - lower[j], "ub", j))

    m = len(rows)
    # Column layout: structural 0..n-1, then one aux (slack/surplus) per
    # inequality row, then one artificial per row that needs it.
    aux_col = {}
    ncols = n
    for i, (_, rel, _, _, _) in enumerate(rows):
        if rel in ("<=", ">="):
            aux_col[i] = ncols
            ncols += 1
    art_col = {}
    flipped = [False] * m
    need_art = []
    for i, (_, rel, rhs, _, _) in enumerate(rows):
        neg = rhs < 0
        flipped[i] = neg
        eff_rel = rel
        if neg:
            eff_rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        if eff_rel != "<=":
            need_art.append(i)
    for i in need_art:
        art_col[i] = ncols
        ncols += 1

    # Each row enters as integers over the lcm of its denominators.
    tab = []
    dens = []
    basis = [-1] * m
    for i, ((row_den, nz), rel, rhs, _, _) in enumerate(rows):
        sign = -1 if flipped[i] else 1
        den = lcm(rhs.denominator, row_den)
        scale = sign * (den // row_den)
        row = [0] * (ncols + 1)
        for j, a in nz:
            row[j] = scale * a
        row[-1] = sign * rhs.numerator * (den // rhs.denominator)
        if i in aux_col:
            row[aux_col[i]] = den * (sign if rel == "<=" else -sign)
        if i in art_col:
            row[art_col[i]] = den
            basis[i] = art_col[i]
        else:
            basis[i] = aux_col[i]
        tab.append(row)
        dens.append(den)

    arts = set(art_col.values())
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
                enter = next((j for j in range(ncols) if j not in arts and tab[i][j] != 0),
                             None)
                if enter is not None:
                    _pivot(tab, dens, basis, i, enter)

    # Phase 2: reduced costs of the true objective against the current basis.
    cost = _cost_row({j: cj for j, cj in enumerate(c) if cj}, tab, dens, basis, ncols + 1)
    status = _simplex(tab, dens, basis, cost, banned=arts)
    if status == UNBOUNDED:
        return SolveResult(UNBOUNDED, None, lp=lp)

    # Readout: the only place Fractions are built from the integer tableau.
    nums, den = cost
    shifted = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            shifted[basis[i]] = Fraction(tab[i][-1], dens[i])
    primal = tuple(x + lo for x, lo in zip(shifted, lower)) if shifts else tuple(shifted)
    obj_min = const - Fraction(nums[-1], den)  # internal minimized objective
    objective = obj_min if minimize else -obj_min

    # Internal duals y_i (for the minimized problem) read off aux/artificial
    # reduced-cost entries, then converted to shadow prices in lp.sense.
    sense_flip = 1 if minimize else -1
    row_duals = [_ZERO] * len(lp.constraints)
    ub_duals: list[Fraction | None] = [None] * n
    for i, (_, rel, _, kind, key) in enumerate(rows):
        if i in aux_col:
            # Row negation and slack orientation flip together, so the
            # original-row dual depends only on the relation.
            y = -nums[aux_col[i]] if rel == "<=" else nums[aux_col[i]]
        else:
            y = nums[art_col[i]] if flipped[i] else -nums[art_col[i]]
        y = Fraction(y * sense_flip, den) if y else _ZERO
        if kind == "row":
            row_duals[key] = y
        else:
            ub_duals[key] = y
    reduced = tuple(Fraction(v * sense_flip, den) if v else _ZERO for v in nums[:n])
    return SolveResult(
        OPTIMAL,
        objective,
        primal,
        tuple(row_duals),
        tuple(ub_duals),
        reduced,
        lp=lp,
    )


def verify_certificate(lp: LinearProgram, res: SolveResult) -> bool:
    """Check the primal/dual pair exactly: feasibility, complementary
    slackness, dual stationarity, and strong duality.  No tolerances."""
    if res.status != OPTIMAL:
        return False
    x = res.primal
    y = res.row_duals
    u = res.upper_bound_duals
    r = res.reduced_costs
    sgn = 1 if lp.sense == "min" else -1  # internal minimization sign
    # Primal feasibility + complementary slackness on rows.
    for con, yi in zip(lp.constraints, y):
        lhs = sum(a * xj for a, xj in zip(con.coeffs, x))
        if con.rel == "<=" and lhs > con.rhs:
            return False
        if con.rel == ">=" and lhs < con.rhs:
            return False
        if con.rel == "=" and lhs != con.rhs:
            return False
        if yi != 0 and lhs != con.rhs:
            return False
        # Dual sign: for a max problem, <= rows have y >= 0, >= rows y <= 0.
        if con.rel == "<=" and sgn * yi > 0:
            return False
        if con.rel == ">=" and sgn * yi < 0:
            return False
    dual_obj = sum(yi * con.rhs for con, yi in zip(lp.constraints, y))
    for j in range(lp.num_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if x[j] < lo or (hi is not None and x[j] > hi):
            return False
        uj = u[j] if u[j] is not None else Fraction(0)
        if uj != 0 and (hi is None or x[j] != hi):
            return False
        if sgn * uj > 0:
            return False
        # Stationarity: c_j = sum_i y_i a_ij + u_j + r_j, with r_j the
        # lower-bound multiplier, complementary to x_j > lo_j.
        aj = sum(yi * con.coeffs[j] for con, yi in zip(lp.constraints, y))
        if lp.objective[j] != aj + uj + r[j]:
            return False
        if r[j] != 0 and x[j] != lo:
            return False
        if sgn * r[j] < 0:
            return False
        dual_obj += uj * (hi if hi is not None else 0) + r[j] * lo
    return dual_obj == res.objective


def solve_ilp(lp: LinearProgram, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Exact branch-and-bound on the rational LP relaxation.

    Deterministic: branch on the lowest-index fractional integral variable,
    explore the floor branch first (depth-first).  Each node is `lp` with
    tightened bounds; a branch whose bounds would cross is an infeasible
    leaf, counted as a node but never built.  When every variable with
    a nonzero objective coefficient is integer and its coefficient integral,
    every integer point has an integral value, so node bounds are rounded
    (floor for max, ceil for min) before they are compared with the incumbent.
    """
    best: SolveResult | None = None
    nodes = 0
    maximize = lp.sense == "max"
    integral = all(
        flag and cj.denominator == 1
        for cj, flag in zip(lp.objective, lp.integer) if cj
    )
    stack: list[LinearProgram | None] = [lp]
    while stack:
        node = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(f"branch-and-bound exceeded {node_limit} nodes")
        if node is None:
            continue
        res = solve_lp(node)
        if res.status == UNBOUNDED:
            return SolveResult(UNBOUNDED, None, branch_count=nodes, lp=lp)
        if res.status != OPTIMAL:
            continue
        if best is not None:
            bound = res.objective
            if integral:
                bound = floor(bound) if maximize else ceil(bound)
            if maximize and bound <= best.objective:
                continue
            if not maximize and bound >= best.objective:
                continue
        frac_j = next(
            (j for j in range(lp.num_vars)
             if lp.integer[j] and res.primal[j].denominator != 1),
            None,
        )
        if frac_j is None:
            best = res
            continue
        v = res.primal[frac_j]
        down = Fraction(v.numerator // v.denominator)
        lo, hi = node.lower[frac_j], node.upper[frac_j]
        # LIFO stack: push ceil first so the floor branch is explored first.
        stack.append(None if hi is not None and down + 1 > hi else replace(
            node, lower=node.lower[:frac_j] + (down + 1,) + node.lower[frac_j + 1:]))
        stack.append(None if down < lo else replace(
            node, upper=node.upper[:frac_j] + (down,) + node.upper[frac_j + 1:]))
    if best is None:
        return SolveResult(INFEASIBLE, None, branch_count=nodes, lp=lp)
    return SolveResult(
        OPTIMAL, best.objective, best.primal, branch_count=nodes, lp=lp
    )
