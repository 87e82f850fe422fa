import operator
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as F
from itertools import product
from random import Random
from types import SimpleNamespace

import pytest

import indexcode.lp as lp_module
from indexcode.enumeration import enumerate_partial_cliques
from indexcode.lp import (
    Constraint,
    DimensionError,
    LinearProgram,
    NodeLimitExceeded,
    solve_ilp,
    solve_lp,
    transpose,
    verify_certificate,
)
from indexcode.programs import build_P5

from conftest import certificate_oracle, lp_vertex_oracle


def _row(coeffs, rel, rhs):
    """The row of the dense coefficient list `coeffs`."""
    return Constraint(tuple((j, a) for j, a in enumerate(coeffs) if a), rel, rhs)


def _dense(lp):
    """Each row of `lp` as its dense coefficient list."""
    return [[dict(con.terms).get(j, 0) for j in range(lp.num_vars)] for con in lp.constraints]


def _lp(sense, c, rows, lower=(), upper=(), names=()):
    return LinearProgram(sense, tuple(c), [_row(*r) for r in rows], lower, upper, names)


def test_single_variable_box():
    res = solve_lp(_lp("max", [1], [([1], "<=", 1)]))
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.primal == (F(1),)
    assert res.row_duals == (F(1),)
    assert verify_certificate(res.lp, res)


def test_min_with_surplus():
    res = solve_lp(_lp("min", [3, 2], [([1, 1], ">=", 4), ([1, 0], ">=", 1)]))
    assert res.objective == 9  # x=(1,3)
    assert res.primal == (F(1), F(3))
    assert verify_certificate(res.lp, res)


def test_equality_row_duals():
    res = solve_lp(_lp("max", [2, 1], [([1, 1], "=", 3), ([1, 0], "<=", 2)]))
    assert res.objective == 5  # x=(2,1)
    assert res.primal == (F(2), F(1))
    assert verify_certificate(res.lp, res)
    # y_eq = 1 (marginal value of relaxing the equality), y_box = 1
    assert res.row_duals == (F(1), F(1))


def test_fractional_vertex():
    # max x+y s.t. 2x+y<=2, x+2y<=2 -> x=y=2/3, obj 4/3
    res = solve_lp(_lp("max", [1, 1], [([2, 1], "<=", 2), ([1, 2], "<=", 2)]))
    assert res.objective == F(4, 3)
    assert res.primal == (F(2, 3), F(2, 3))
    assert res.row_duals == (F(1, 3), F(1, 3))
    assert verify_certificate(res.lp, res)


def test_infeasible():
    res = solve_lp(_lp("max", [1], [([1], "<=", 1), ([1], ">=", 2)]))
    assert res.status == "infeasible"
    assert res.objective is None


def test_unbounded():
    res = solve_lp(_lp("max", [1], [([-1], "<=", 0)]))
    assert res.status == "unbounded"


def test_upper_bounds_and_their_duals():
    lp = _lp("max", [1, 1], [([1, 1], "<=", 3)], upper=(1, None))
    res = solve_lp(lp)
    assert res.objective == 3
    assert verify_certificate(lp, res)


def test_nonzero_lower_bounds():
    lp = _lp("min", [1, 1], [([1, 1], ">=", 3)], lower=(2, 0))
    res = solve_lp(lp)
    assert res.objective == 3
    assert res.primal in ((F(2), F(1)), (F(3), F(0)))
    assert verify_certificate(lp, res)


def test_degenerate_no_cycling():
    # Classic degeneracy stressor; Bland's rule must terminate.  Beale's
    # example with its objective and first two rows scaled by 100 to
    # integers: scaling a row or the objective by a positive factor keeps
    # every pivot of the rational example.
    lp = _lp(
        "max",
        [75, -15000, 2, -600],
        [
            ([25, -6000, -4, 900], "<=", 0),
            ([50, -9000, -2, 300], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == 5  # 100 * 1/20
    assert verify_certificate(lp, res)


def test_matches_vertex_oracle_on_random_lps():
    rng = Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        c = [rng.randint(-3, 3) for _ in range(n)]
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(m)]
        rhss = [rng.randint(0, 4) for _ in range(m)]
        uppers = [rng.randint(1, 4) for _ in range(n)]
        lp = _lp(
            "max", c, [(r, "<=", b) for r, b in zip(rows, rhss)],
            upper=tuple(uppers),
        )
        res = solve_lp(lp)
        expect = lp_vertex_oracle(c, rows, rhss, [0] * n, uppers, "max")
        assert res.status == "optimal"
        assert res.objective == expect
        assert verify_certificate(lp, res)


def _coef(rng):
    """A random integer coefficient: zero and negative ones included, and
    one in five of two digits."""
    if rng.random() < 0.2:
        return rng.choice((-1, 1)) * rng.randint(10, 99)
    return rng.randint(-6, 6)


def _random_mixed_lp(rng):
    """A small LP with integer data, mixed relations, nonzero lower bounds
    and optional bound overrides.  Rows are built around an integer point
    x0 inside the bounds, so most draws are feasible; rows with negative
    coefficients give negative right-hand sides, which the solver flips."""
    n = rng.randint(1, 3)
    lower = [rng.choice((0, _coef(rng))) for _ in range(n)]
    upper = [None if rng.random() < 0.2 else lo + rng.randint(1, 8) for lo in lower]
    x0 = [lo + rng.randint(0, 4 if hi is None else hi - lo) for lo, hi in zip(lower, upper)]
    sense, c = rng.choice(("max", "min")), tuple(_coef(rng) for _ in range(n))
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.choice((0, _coef(rng))) for _ in range(n)]
        rel = rng.choice(("<=", ">=", "="))
        lhs = sum(a * x for a, x in zip(coeffs, x0))
        slack = rng.randint(0, 3)
        rows.append(_row(coeffs, rel, {"<=": lhs + slack, ">=": lhs - slack, "=": lhs}[rel]))
    lp = LinearProgram(sense, c, rows, tuple(lower), tuple(upper))
    overrides = None
    if rng.random() < 0.3:
        j = rng.randrange(n)
        overrides = {j: (rng.choice((None, rng.randint(-2, 3))),
                         rng.choice((None, rng.randint(0, 5))))}
    return lp, overrides


def _oracle_value(lp, lower, upper, cap):
    """Vertex-oracle optimum with >= and = rows rewritten as <= rows and
    every missing upper bound replaced by `cap`."""
    rows, rhss = [], []
    for con, dense in zip(lp.constraints, _dense(lp)):
        if con.rel in ("<=", "="):
            rows.append(dense)
            rhss.append(con.rhs)
        if con.rel in (">=", "="):
            rows.append([-a for a in dense])
            rhss.append(-con.rhs)
    uppers = [cap if hi is None else hi for hi in upper]
    return lp_vertex_oracle(lp.objective, rows, rhss, lower, uppers, lp.sense)


def _tampered(rng, res):
    """`res` with one entry of its objective, point or row duals moved by a
    small rational (possibly 0)."""
    field = rng.choice(("objective", "primal", "row_duals"))
    step = F(rng.randint(-2, 2), rng.randint(1, 3))
    if field == "objective":
        return replace(res, objective=res.objective + step)
    values = getattr(res, field)
    if not values:
        return res
    j = rng.randrange(len(values))
    return replace(res, **{field: _at(values, j, (values[j] or 0) + step)})


def test_integer_tableau_exact_on_mixed_random_lps():
    rng = Random(23)
    tamper = Random(24)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(800):
        lp, overrides = _random_mixed_lp(rng)
        lower, upper = list(lp.lower), list(lp.upper)
        for j, (lo, hi) in (overrides or {}).items():
            if lo is not None:
                lower[j] = max(lower[j], lo)
            if hi is not None:
                upper[j] = hi if upper[j] is None else min(upper[j], hi)
        if any(hi is not None and lo > hi for lo, hi in zip(lower, upper)):
            with pytest.raises(DimensionError):
                replace(lp, lower=tuple(lower), upper=tuple(upper))
            continue
        lp = replace(lp, lower=tuple(lower), upper=tuple(upper))
        res = solve_lp(lp)
        seen[res.status] += 1
        # The integer verifier and the Fraction oracle agree on every
        # certificate, valid or not.
        assert verify_certificate(lp, res) == certificate_oracle(lp, res)
        if res.status == "optimal":
            bad = _tampered(tamper, res)
            assert verify_certificate(lp, bad) == certificate_oracle(lp, bad)
        capped = _oracle_value(lp, lower, upper, F(10**4))
        if res.status == "infeasible":
            assert capped is None
        elif res.status == "unbounded":
            further = _oracle_value(lp, lower, upper, F(10**5))
            assert (further > capped) if lp.sense == "max" else (further < capped)
        else:
            assert res.objective == capped
            assert all(type(v) is F for v in res.primal + res.row_duals)
            assert verify_certificate(lp, res)
    assert min(seen.values()) >= 10, seen


@pytest.fixture
def simplex_runs(monkeypatch):
    """Each simplex run's starting basis, tableau width (columns, rhs
    excluded) and banned columns, in order, and the pivots made."""
    log = SimpleNamespace(runs=[], pivots=0)
    simplex, pivot = lp_module._simplex, lp_module._pivot

    def run(tab, dens, basis, cost, banned):
        log.runs.append((list(basis), len(tab[0]) - 1, set(banned)))
        return simplex(tab, dens, basis, cost, banned)

    def counted(*args, **kwargs):
        log.pivots += 1
        return pivot(*args, **kwargs)

    monkeypatch.setattr(lp_module, "_simplex", run)
    monkeypatch.setattr(lp_module, "_pivot", counted)
    return log


def _random_unit_column_lp(rng):
    """A small mixed LP in which many columns have one nonzero row.  Each
    row owns up to two private columns, zero in every other row, and up to
    one column is shared by all rows.  Relations, coefficient signs and
    bounds are random.  Half the rows are built around a point x0 inside
    the bounds, as in `_random_mixed_lp`, and half take a random rhs, so
    some draws are infeasible.  A private column meets every case of the
    simplex start: in a >= row, in a <= row flipped by its negative rhs,
    of the wrong sign, in an = row, with an upper bound, over a shifted
    lower bound, or beside a second one."""
    def nonzero():
        return rng.choice((-1, 1)) * (rng.randint(1, 6) if rng.random() < 0.8
                                      else rng.randint(10, 99))

    while True:
        m = rng.randint(1, 3)
        owners = [i for i in range(m) for _ in range(rng.randint(0, 2))]
        owners += [None] * rng.randint(0, 1)
        if 0 < len(owners) <= 4:
            break
    lower = [0 if rng.random() < 0.7 else nonzero() for _ in owners]
    upper = [None if rng.random() < 0.7 else lo + rng.randint(1, 6) for lo in lower]
    x0 = [lo + rng.randint(0, 4) if hi is None else hi - rng.randint(0, 1)
          for lo, hi in zip(lower, upper)]
    rows = []
    for i in range(m):
        coeffs = [nonzero() if owner == i else rng.choice((0, nonzero())) if owner is None
                  else 0 for owner in owners]
        rel = rng.choice(("<=", ">=", "="))
        lhs = sum(a * x for a, x in zip(coeffs, x0))
        slack = rng.randint(0, 3)
        rhs = ({"<=": lhs + slack, ">=": lhs - slack, "=": lhs}[rel] if rng.random() < 0.5
               else rng.randint(-6, 6))
        rows.append(_row(coeffs, rel, rhs))
    sense, c = rng.choice(("max", "min")), tuple(rng.randint(-3, 3) for _ in owners)
    return LinearProgram(sense, c, rows, tuple(lower), tuple(upper))


def _start_rule(lp):
    """Per constraint row, read off the dense rows: its relation once the
    lower bounds are shifted out and a negative rhs is flipped, the
    lowest column it may start basic in (a column nonzero in this row
    alone, with no upper bound and an entry of the row's sign), or None,
    and the cases its one-row columns meet."""
    dense = _dense(lp)
    single = [sum(1 for row in dense if row[j]) == 1 for j in range(lp.num_vars)]
    out = []
    for con, row in zip(lp.constraints, dense):
        flipped = con.rhs - sum(a * lo for a, lo in zip(row, lp.lower)) < 0
        rel = {"<=": ">=", ">=": "<=", "=": "="}[con.rel] if flipped else con.rel
        cases, starts = set(), []
        for j, a in enumerate(row):
            if not (a and single[j]) or rel == "<=":
                continue
            if rel == "=":
                cases.add("= row")
            elif lp.upper[j] is not None:
                cases.add("upper bound")
            elif (a > 0) == flipped:
                cases.add("wrong sign")
            else:
                starts.append(j)
                cases.add("flipped <= row" if flipped else ">= row")
                if lp.lower[j]:
                    cases.add("shifted lower bound")
        if len(starts) > 1:
            cases.add("two unit columns")
        out.append((rel, starts[0] if starts else None, cases))
    return out


def test_rows_with_a_unit_column_start_basic_in_it(simplex_runs):
    rng = Random(31)
    starts = {">= row": "crash", "flipped <= row": "crash", "shifted lower bound": "crash",
              "two unit columns": "crash", "wrong sign": "artificial", "= row": "artificial",
              "upper bound": "artificial"}
    seen = {(case, start): 0 for case in starts for start in ("crash", "artificial")}
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(400):
        lp = _random_unit_column_lp(rng)
        simplex_runs.runs.clear()
        res = solve_lp(lp)
        statuses[res.status] += 1
        # The first run starts from the tableau's basis: a unit column, a
        # slack or surplus (the aux columns follow the structural ones), or
        # an artificial (after the aux columns).
        basis, width, _ = simplex_runs.runs[0]
        n = lp.num_vars
        aux_end = n + sum(con.rel != "=" for con in lp.constraints) + sum(
            hi is not None for hi in lp.upper)
        rule = _start_rule(lp)
        assert width == aux_end + sum(col is None and rel != "<=" for rel, col, _ in rule)
        for b, (rel, col, cases) in zip(basis, rule):
            start = "crash" if b < n else "artificial" if b >= aux_end else "slack"
            assert (start, b) == (("crash", col) if col is not None
                                  else ("slack" if rel == "<=" else "artificial", b))
            for case in cases:
                seen[case, start] += 1
        assert verify_certificate(lp, res) == certificate_oracle(lp, res)
        capped = _oracle_value(lp, lp.lower, lp.upper, F(10**4))
        if res.status == "infeasible":
            assert capped is None
        elif res.status == "unbounded":
            further = _oracle_value(lp, lp.lower, lp.upper, F(10**5))
            assert (further > capped) if lp.sense == "max" else (further < capped)
        else:
            assert res.objective == capped
            assert verify_certificate(lp, res)
    assert min(statuses.values()) >= 10, statuses
    assert all(seen[case, start] >= 10 for case, start in starts.items()), seen


@pytest.mark.parametrize("fixture, pivots, point, duals", [
    ("fig1", 1, (0, 1, 0, 1), (0, 1, 1)),
    ("fig4", 4, (0, 0, 0, 0, 0, 0, 1), (0, 0, 1)),
])
def test_p5_relaxation_starts_at_its_singleton_cliques(request, simplex_runs, fixture, pivots,
                                                        point, duals):
    inst = request.getfixturevalue(fixture)
    p5 = build_P5(inst, enumerate_partial_cliques(inst))
    res = solve_lp(p5)
    # One run, phase 2, from T:p in packet p's row: no artificial column.
    [(basis, width, banned)] = simplex_runs.runs
    assert (width, banned) == (p5.num_vars + len(p5.constraints), set())
    assert [p5.var_names[j] for j in basis] == ["T:" + pid for pid in inst.packet_ids]
    # A start with phase 1 pivots 4 and 7 times and reaches the same optimum.
    assert simplex_runs.pivots == pivots
    assert (res.primal, res.row_duals) == (tuple(map(F, point)), tuple(map(F, duals)))
    assert verify_certificate(p5, res)


def test_certificate_rejects_tampering():
    lp = _lp("max", [1, 1], [([2, 1], "<=", 2), ([1, 2], "<=", 2)])
    res = solve_lp(lp)
    bad = type(res)(res.status, res.objective + 1, res.primal, res.row_duals,
                    res.branch_count, res.lp)
    assert not verify_certificate(lp, bad)


def test_certificate_of_the_wrong_length_is_rejected():
    # The Fraction oracle pairs rows with duals by zip, so it would accept
    # the extra dual; a missing entry would make it index past the end.
    lp = _lp("max", [1, 1], [([2, 1], "<=", 2), ([1, 2], "<=", 2)])
    res = solve_lp(lp)
    assert verify_certificate(lp, res)
    assert certificate_oracle(lp, replace(res, row_duals=res.row_duals + (F(0),)))
    for field in ("primal", "row_duals"):
        values = getattr(res, field)
        for wrong in (values[:-1], values + values[-1:]):
            assert not verify_certificate(lp, replace(res, **{field: wrong})), field


@pytest.mark.parametrize("field", ["primal", "row_duals"])
@pytest.mark.parametrize("bad", [None, 5], ids=["None", "int"])
def test_certificate_that_is_not_a_sequence_is_rejected(field, bad):
    # len() of either would raise TypeError.
    lp = _lp("max", [1], [([1], "<=", 1)])
    res = solve_lp(lp)
    assert verify_certificate(lp, res)
    assert verify_certificate(lp, replace(res, **{field: bad})) is False


@pytest.mark.parametrize("bad", [1.0, None, "1", True], ids=["float", "None", "str", "bool"])
@pytest.mark.parametrize("field", ["primal", "row_duals", "objective"])
def test_certificate_with_an_entry_of_another_type_is_rejected(field, bad):
    # max x, x <= 1: every bad value but None equals, or reads as, the true 1.
    lp = _lp("max", [1], [([1], "<=", 1)])
    res = solve_lp(lp)
    assert (res.objective, res.primal, res.row_duals) == (1, (1,), (1,))

    def entry(v):
        return {field: v if field == "objective" else (v,)}

    assert verify_certificate(lp, replace(res, **entry(1)))  # an int is a rational
    assert verify_certificate(lp, replace(res, **entry(bad))) is False


def _at(values, j, v):
    return values[:j] + (F(v),) + values[j + 1:]


def test_certificate_rejects_each_broken_condition():
    # a sits at its lower bound 1, b at its upper bound 2, k1 and k2 are
    # fixed at 1; c meets a <=, a >= and an = row, all tight; e, f and g
    # have slack rows of each kind, h a tight <= row, and a and b a tight
    # row each at their bound.
    names = ("a", "b", "c", "e", "f", "g", "h", "k1", "k2")
    rows = [_row([coef if n == var else 0 for n in names], rel, rhs)
            for var, coef, rel, rhs in [("c", 1, "<=", 3), ("c", 1, ">=", 3), ("c", 1, "=", 3),
                                        ("e", 1, "<=", 1), ("f", -1, ">=", -1), ("g", 1, "=", 1),
                                        ("h", 1, "<=", 2), ("a", 1, ">=", 1), ("b", 1, "<=", 2)]]
    c = (-1, 1, 1, 0, 0, 0, 1, -2, 2)
    lp = LinearProgram("max", c, rows, lower=(1, 0, 0, 0, 0, 0, 0, 1, 1),
                       upper=(None, 2, None, None, None, None, None, 1, 1), var_names=names)
    res = solve_lp(lp)
    x, y = res.primal, res.row_duals
    assert (res.objective, x) == (6, (1, 2, 3, 0, 0, 1, 2, 1, 1))
    assert y == (0, 0, 1, 0, 0, 0, 1, -1, 1)
    assert verify_certificate(lp, res)

    def moved(j, v):  # x_j moved to v, with the objective kept at c.x
        point = _at(x, j, v)
        return {"primal": point, "objective": sum(cj * xj for cj, xj in zip(c, point))}

    # Each tampered certificate breaks one condition and keeps the others.
    # The rows on c share their duals' sum.  Row 7 (a >= 1) and row 8
    # (b <= 2) take duals of the right sign that turn the derived reduced
    # cost of a, at its lower bound, and of b, at its upper bound, around;
    # a or b moved off its bound takes its row's dual to 0.
    broken = {
        "status": {"status": "infeasible"},
        "<= row infeasible": moved(3, 2),
        ">= row infeasible": moved(4, 2),
        "= row infeasible": moved(5, F(1, 2)),
        "row complementary slackness": moved(6, 1),
        "<= row dual sign": {"row_duals": _at(_at(y, 0, -1), 2, 2)},
        ">= row dual sign": {"row_duals": _at(_at(y, 1, 1), 2, 0)},
        "below a lower bound": moved(3, -1),
        "reduced-cost sign at a lower bound": {"row_duals": _at(y, 7, -2)},
        "reduced-cost sign at an upper bound": {"row_duals": _at(y, 8, 2)},
        "off the upper bound": {**moved(1, F(3, 2)), "row_duals": _at(y, 8, 0)},
        "off the lower bound": {**moved(0, 2), "row_duals": _at(y, 7, 0)},
        "objective": {"objective": res.objective + 1},
    }
    for condition, fields in broken.items():
        assert not verify_certificate(lp, replace(res, **fields)), condition
        assert not certificate_oracle(lp, replace(res, **fields)), condition
    # Any y_7 in [-1, 0] and y_8 in [0, 1] leaves both signs right.
    for y78 in ((0, 0), (F(-1, 2), F(1, 2)), (-1, 1)):
        ok = replace(res, row_duals=y[:7] + tuple(map(F, y78)))
        assert verify_certificate(lp, ok) and certificate_oracle(lp, ok), y78


def test_alternative_optimal_row_duals_are_accepted():
    # max x1 + x2 over x1 <= 1, x2 <= 1, x1 + x2 <= 2: the optimum (1, 1)
    # is degenerate, and every convex combination of the row duals
    # (1, 1, 0) and (0, 0, 1) proves it.
    lp = _lp("max", [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([1, 1], "<=", 2)])
    res = solve_lp(lp)
    assert (res.objective, res.primal) == (2, (1, 1))
    for t in (0, F(1, 3), F(1, 2), 1):
        alt = replace(res, row_duals=(1 - t, 1 - t, t))
        assert verify_certificate(lp, alt) and certificate_oracle(lp, alt), t
    for bad in ((1, 0, 0), (0, 0, 2), (1, 1, 1)):
        wrong = replace(res, row_duals=tuple(map(F, bad)))
        assert not verify_certificate(lp, wrong) and not certificate_oracle(lp, wrong), bad


def test_ilp_knapsack():
    lp = _lp(
        "max", [10, 6, 4],
        [([1, 1, 1], "<=", 2)],
        upper=(1,) * 3,
    )
    res = solve_ilp(lp)
    assert res.objective == 16
    assert res.primal == (F(1), F(1), F(0))
    assert all(x.denominator == 1 for x in res.primal)


def test_ilp_matches_bruteforce():
    rng = Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        c = [rng.randint(0, 5) for _ in range(n)]
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        rhss = [rng.randint(1, 5) for _ in range(m)]
        lp = _lp(
            "max", c, [(r, "<=", b) for r, b in zip(rows, rhss)],
            upper=(1,) * n,
        )
        res = solve_ilp(lp)
        best = max(
            sum(ci * xi for ci, xi in zip(c, xs))
            for xs in __import__("itertools").product((0, 1), repeat=n)
            if all(sum(a * x for a, x in zip(r, xs)) <= b for r, b in zip(rows, rhss))
        )
        assert res.objective == best


_UNROUNDED = 10**6


def _pruning_ilp(seed, unrounded):
    """Five integer variables in [0, 3], three dense rows.  With `unrounded`
    the objective is multiplied by K = 10**6, which keeps the search tree
    of the unrounded bound: every LP value of this program is a fraction
    with a denominator below 4,000 (Hadamard's bound 9^3 * 3^1.5 on its
    3 x 3 minors), so a node's value v and the integer incumbent b differ
    by at least 1/4,000 when they differ, and the rounded K v passes K b
    exactly when v passes b."""
    rng = Random(seed)
    sense = rng.choice(("max", "min"))
    c = [rng.randint(1, 9) for _ in range(5)]
    rows = [[rng.randint(1, 9) for _ in range(5)] for _ in range(3)]
    rhss = [rng.randint(10, 30) for _ in range(3)]
    rel = "<=" if sense == "max" else ">="
    obj = [x * _UNROUNDED for x in c] if unrounded else c
    lp = _lp(sense, obj, [(r, rel, b) for r, b in zip(rows, rhss)],
             upper=(3,) * 5)

    def feasible(xs):
        lhss = [sum(a * x for a, x in zip(r, xs)) for r in rows]
        if rel == "<=":
            return all(lhs <= b for lhs, b in zip(lhss, rhss))
        return all(lhs >= b for lhs, b in zip(lhss, rhss))

    values = [sum(ci * xi for ci, xi in zip(c, xs))
              for xs in product(range(4), repeat=5) if feasible(xs)]
    return lp, (max if sense == "max" else min)(values)


def test_ilp_prunes_on_rounded_bound():
    for seed in (1564, 1931):  # one max and one min draw with large trees
        lp, best = _pruning_ilp(seed, unrounded=False)
        res = solve_ilp(lp)
        assert res.objective == best
        assert all(x.denominator == 1 for x in res.primal)
        unrounded = solve_ilp(_pruning_ilp(seed, unrounded=True)[0])
        assert unrounded.objective == best * _UNROUNDED
        assert res.branch_count < unrounded.branch_count


def test_ilp_infeasible():
    lp = _lp("max", [1], [([2], "=", 1)], upper=(3,))
    res = solve_ilp(lp)
    assert res.status == "infeasible"


def test_ilp_node_limit():
    # Odd-cycle packing: relaxation sits at the all-1/2 vertex, so at least
    # one branch is required, exceeding a node limit of 1.
    lp = _lp(
        "max", [1, 1, 1],
        [([1, 1, 0], "<=", 1), ([0, 1, 1], "<=", 1), ([1, 0, 1], "<=", 1)],
        upper=(1,) * 3,
    )
    with pytest.raises(NodeLimitExceeded):
        solve_ilp(lp, node_limit=1)


@pytest.mark.parametrize("sense, row, best, children", [
    # max x, 2x <= 5, x in [0, 3]: x = 5/2; x <= 2 gives 2, x >= 3 is infeasible.
    ("max", ([2], "<=", 5), 2, [(0, 2), (3, 3)]),
    # min x, 2x >= 1, x >= 0: x = 1/2; x <= 0 is infeasible, x >= 1 gives 1.
    ("min", ([2], ">=", 1), 1, [(0, 0), (1, None)]),
], ids=["max", "min"])
def test_ilp_solves_every_child_it_counts(monkeypatch, sense, row, best, children):
    # Integer bounds never cross: lo <= floor(v) < floor(v) + 1 <= hi for
    # a fractional v in [lo, hi], so each child is a program and is solved.
    solved = []
    monkeypatch.setattr(lp_module, "solve_lp", lambda node: solved.append(node) or solve_lp(node))
    res = solve_ilp(_lp(sense, [1], [row], upper=(3 if sense == "max" else None,)))
    assert (res.status, res.objective, res.primal) == ("optimal", best, (best,))
    assert (res.branch_count, len(solved)) == (3, 3)
    assert [(node.lower[0], node.upper[0]) for node in solved[1:]] == children


def test_ilp_unbounded_relaxation():
    res = solve_ilp(_lp("max", [1, 1], [([2, -2], "<=", 1)]))
    assert (res.status, res.objective, res.branch_count) == ("unbounded", None, 1)


def test_dimension_errors():
    with pytest.raises(DimensionError, match="column 1 is out of range for 1 variables"):
        LinearProgram("max", (1,), [Constraint(((0, 1), (1, 2)), "<=", 1)])
    with pytest.raises(DimensionError):
        LinearProgram("max", (1,), lower=(2,), upper=(1,))
    with pytest.raises(DimensionError, match="unknown relation '<<'"):
        LinearProgram("max", (1,), [Constraint(((0, 1),), "<<", 1)])
    for wrong in ({"lower": (0, 0)}, {"upper": (None, 1)}, {"var_names": ("x", "y")},
                  {"var_keys": ("k", "l")}):
        with pytest.raises(DimensionError, match="must match the variable count"):
            LinearProgram("max", (1,), **wrong)


def _program(terms=((0, 1),), rhs=1, objective=(1,), lower=(0,), upper=(None,)):
    return LinearProgram("max", objective, [Constraint(terms, "<=", rhs, "r")], lower, upper)


@pytest.mark.parametrize("build, message", [
    (lambda: _program(terms=((0, F(1)),)), "row 'r': coefficient Fraction(1, 1) of column 0 "
                                           "is not an int"),
    (lambda: _program(terms=((0, 1.0),)), "row 'r': coefficient 1.0 of column 0 is not an int"),
    (lambda: _program(terms=((0, True),)), "row 'r': coefficient True of column 0 is not an int"),
    (lambda: _program(terms=((0.0, 1),)), "row 'r': column 0.0 is not an int"),
    (lambda: _program(terms=((0, 0),)), "row 'r': column 0 has a zero coefficient"),
    (lambda: _program(rhs=F(1)), "row 'r': rhs Fraction(1, 1) is not an int"),
    (lambda: _program(rhs=1.0), "row 'r': rhs 1.0 is not an int"),
    (lambda: _program(rhs=True), "row 'r': rhs True is not an int"),
    (lambda: _program(objective=(F(1),)), "objective entry Fraction(1, 1) of column 0 "
                                          "is not an int"),
    (lambda: _program(objective=(1.0,)), "objective entry 1.0 of column 0 is not an int"),
    (lambda: _program(objective=(True,)), "objective entry True of column 0 is not an int"),
    (lambda: _program(lower=(F(0),)), "lower bound Fraction(0, 1) of column 0 is not an int"),
    (lambda: _program(lower=(0.0,)), "lower bound 0.0 of column 0 is not an int"),
    (lambda: _program(lower=(False,)), "lower bound False of column 0 is not an int"),
    (lambda: _program(lower=(None,)), "lower bound None of column 0 is not an int"),
    (lambda: _program(upper=(F(2),)), "upper bound Fraction(2, 1) of column 0 is not an int"),
    (lambda: _program(upper=(2.0,)), "upper bound 2.0 of column 0 is not an int"),
    (lambda: _program(upper=(True,)), "upper bound True of column 0 is not an int"),
    (lambda: _program(terms=((1, 1), (0, 1)), objective=(1, 1), lower=(0, 0), upper=(None,) * 2),
     "row 'r': column 0 follows column 1"),
    (lambda: _program(terms=((0, 1), (0, 2))), "row 'r': column 0 is repeated"),
    (lambda: _program(terms=((-1, 1),)), "row 'r': column -1 is negative"),
    (lambda: _program(terms=((0, 1), (1, 1))), "row 'r': column 1 is out of range for 1 variables"),
], ids=["fraction coefficient", "float coefficient", "bool coefficient", "float column",
        "zero coefficient", "fraction rhs", "float rhs", "bool rhs", "fraction objective",
        "float objective", "bool objective", "fraction lower", "float lower", "bool lower",
        "missing lower", "fraction upper", "float upper", "bool upper", "column out of order",
        "repeated column", "negative column", "column out of range"])
def test_bad_data_is_refused_when_the_program_is_made(build, message):
    with pytest.raises(DimensionError) as err:
        build()
    assert str(err.value) == message


def test_a_solved_constraint_compares_hashes_and_prints_as_before():
    a, b = (Constraint(((0, 2), (1, 1)), "<=", 6, "r") for _ in range(2))
    text = repr(b)
    assert solve_lp(LinearProgram("max", (1, 1), [a])).objective == 6
    # Solving keeps nothing on a row: it holds its fields and no more.
    assert vars(a) == vars(b) and [f.name for f in fields(Constraint)] == list(vars(a))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == text


def _result_fields(res):
    return res.status, res.objective, res.primal, res.row_duals, res.branch_count


def test_a_replaced_program_solves_the_same_over_shared_rows():
    rng = Random(24)
    for _ in range(300):
        lp, _ = _random_mixed_lp(rng)
        copy = replace(lp)
        assert all(c is d for c, d in zip(copy.constraints, lp.constraints))
        first = _result_fields(solve_lp(lp))
        assert _result_fields(solve_lp(copy)) == first == _result_fields(solve_lp(lp))


def _random_standard_lp(rng, sense):
    """A covering (min, >=) or packing (max, <=) program with nonnegative
    integer data, zeros and two-digit entries included, in which every row
    and column touches a positive entry, so it has an optimum."""
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    rel = ">=" if sense == "min" else "<="
    rows = [([rng.choice((0, rng.randint(1, 6), rng.randint(10, 60))) for _ in range(n)], rel,
             rng.randint(1, 30)) for _ in range(m)]
    for coeffs, _, _ in rows:
        coeffs[rng.randrange(n)] += 1
    for j in range(n):
        rows[rng.randrange(m)][0][j] += 1
    c = [rng.randint(1, 30) for _ in range(n)]
    return _lp(sense, c, rows, names=tuple(f"v{j}" for j in range(n)))


def test_transpose_is_an_involution():
    rng = Random(41)
    for sense in ("min", "max") * 10:
        lp = _random_standard_lp(rng, sense)
        lp = replace(lp, constraints=tuple(replace(con, name=f"r{i}")
                                           for i, con in enumerate(lp.constraints)))
        dual = transpose(lp)
        assert dual.sense != lp.sense
        assert dual.var_names == tuple(f"r{i}" for i in range(len(lp.constraints)))
        assert [c.name for c in dual.constraints] == list(lp.var_names)
        assert _dense(dual) == [list(column) for column in zip(*_dense(lp))]
        back = transpose(dual)
        assert (back.sense, back.objective, back.var_names) == (lp.sense, lp.objective, lp.var_names)
        assert back.constraints == lp.constraints


def test_transpose_keeps_the_optimum():
    rng = Random(42)
    for sense in ("min", "max") * 15:
        lp = _random_standard_lp(rng, sense)
        res, dual = solve_lp(lp), solve_lp(transpose(lp))
        assert res.status == dual.status == "optimal"
        assert res.objective == dual.objective
        # The dual's optimum is the primal's row shadow prices, up to sign.
        assert verify_certificate(dual.lp, dual)


def _same(programs, expected):
    return len(programs) == len(expected) and all(map(operator.is_, programs, expected))


@pytest.fixture
def tableaux(monkeypatch):
    """The programs the simplex builds a tableau for, in order."""
    built = []
    solve = lp_module._solve
    monkeypatch.setattr(lp_module, "_solve", lambda lp: built.append(lp) or solve(lp))
    return built


def test_a_program_is_frozen_and_its_rows_are_a_tuple():
    lp = _lp("max", [1, 1], [([2, 1], "<=", 2), ([1, 2], "<=", 2)])
    assert type(lp.constraints) is tuple
    with pytest.raises(FrozenInstanceError):
        lp.constraints = ()
    solved = replace(lp)
    solve_lp(solved)
    # The kept result takes no part in equality, hashing or printing.
    assert solved == lp and hash(solved) == hash(lp) and repr(solved) == repr(lp)


def test_a_second_solve_runs_no_tableau(tableaux):
    rng = Random(24)
    for _ in range(50):
        lp, _ = _random_mixed_lp(rng)
        first = solve_lp(lp)
        assert solve_lp(lp) is first
        assert _same(tableaux, [lp])
        tableaux.clear()


def _odd_cycle_packing():
    """The root sits at the all-1/2 vertex, so the integer program branches."""
    return _lp("max", [1, 1, 1],
               [([1, 1, 0], "<=", 1), ([0, 1, 1], "<=", 1), ([1, 0, 1], "<=", 1)],
               upper=(1,) * 3)


def test_a_replaced_program_and_every_node_solve_afresh(tableaux):
    lp = _odd_cycle_packing()
    root = solve_lp(lp)
    copy = replace(lp)
    assert _result_fields(solve_lp(copy)) == _result_fields(root)
    assert _same(tableaux, [lp, copy])
    res = solve_ilp(lp)
    assert (res.objective, res.branch_count) == (1, 3)
    # The root is the kept relaxation; each node below it is a program of its
    # own, x0's floor and then its ceil branch, solved from scratch.
    assert [(node.lower[0], node.upper[0]) for node in tableaux[2:]] == [(0, 0), (1, 1)]


def test_a_node_holds_its_parents_rows(tableaux, monkeypatch):
    lp = _odd_cycle_packing()
    checked = []
    check = Constraint.__post_init__
    monkeypatch.setattr(Constraint, "__post_init__", lambda con: checked.append(con) or check(con))
    res = solve_ilp(lp)
    assert (res.objective, res.branch_count) == (1, 3)
    # Each node holds the root's Constraint objects, so no row is made, or
    # checked, again.
    assert len(tableaux) == 3 and tableaux[0] is lp
    assert all(map(operator.is_, node.constraints, lp.constraints) for node in tableaux)
    assert checked == []


def test_a_transposed_pair_shares_one_solve(tableaux):
    rng = Random(42)  # the programs of test_transpose_keeps_the_optimum
    for sense in ("min", "max") * 15:
        lp = _random_standard_lp(rng, sense)
        for first_dual in (False, True):
            pair = [lp := replace(lp), transpose(lp)]
            first, second = pair[::-1] if first_dual else pair
            tableaux.clear()
            solved, read = solve_lp(first), solve_lp(second)
            assert _same(tableaux, [first])
            assert read.lp is second and read.status == "optimal"
            assert (read.objective, read.primal, read.row_duals) == (
                solved.objective, solved.row_duals, solved.primal)
            assert verify_certificate(second, read)
            assert solve_lp(second) is read and _same(tableaux, [first])


def test_a_partner_without_an_optimum_is_never_read(tableaux):
    # An all-zero row with a positive right-hand side: the covering program
    # is infeasible, and its transpose, whose column of that row is all
    # zero with a positive cost, is unbounded.
    cover = _lp("min", [1, 2], [([1, 1], ">=", 1), ([0, 0], ">=", 1)])
    for first_dual in (False, True):
        pair = [cover := replace(cover), transpose(cover)]
        first, second = pair[::-1] if first_dual else pair
        tableaux.clear()
        statuses = solve_lp(first).status, solve_lp(second).status
        assert _same(tableaux, [first, second])
        assert statuses == (("unbounded", "infeasible") if first_dual
                            else ("infeasible", "unbounded"))


@pytest.mark.parametrize("lp", [
    _lp("max", [1, 1], [([1, 1], "<=", 3)], upper=(1, None)),
    _lp("max", [1, 1], [([1, 1], "<=", 3)], lower=(0, 1)),
    _lp("max", [1, 1], [([1, 1], "<=", 3), ([1, 0], ">=", 1)]),
    _lp("min", [1, 1], [([1, 1], ">=", 3), ([1, 0], "=", 1)]),
    _lp("min", [1, 1], [([1, 1], "<=", 3)]),
    _lp("either", [1, 1], [([1, 1], "<=", 3)]),
])
def test_transpose_rejects_other_programs(lp):
    with pytest.raises(ValueError):
        transpose(lp)
