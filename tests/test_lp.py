from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import product
from math import lcm
from random import Random

import pytest

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

from conftest import lp_vertex_oracle


def _lp(sense, c, rows, lower=(), upper=(), integer=(), names=()):
    lp = LinearProgram(sense, tuple(c), [], lower, upper, integer, names)
    for coeffs, rel, rhs in rows:
        lp.add_row(coeffs, rel, rhs)
    return lp


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
    lp = _lp("max", [1, 1], [([1, 1], "<=", 3)], upper=(F(1), None))
    res = solve_lp(lp)
    assert res.objective == 3
    assert verify_certificate(lp, res)


def test_nonzero_lower_bounds():
    lp = _lp("min", [1, 1], [([1, 1], ">=", 3)], lower=(F(2), F(0)))
    res = solve_lp(lp)
    assert res.objective == 3
    assert res.primal in ((F(2), F(1)), (F(3), F(0)))
    assert verify_certificate(lp, res)


def test_degenerate_no_cycling():
    # Classic degeneracy stressor; Bland's rule must terminate.
    lp = _lp(
        "max",
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == F(1, 20)
    assert verify_certificate(lp, res)


def test_matches_vertex_oracle_on_random_lps():
    rng = Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
        rhss = [F(rng.randint(0, 4)) for _ in range(m)]
        uppers = [F(rng.randint(1, 4)) for _ in range(n)]
        lp = _lp(
            "max", c, [(r, "<=", b) for r, b in zip(rows, rhss)],
            upper=tuple(uppers),
        )
        res = solve_lp(lp)
        expect = lp_vertex_oracle(c, rows, rhss, [F(0)] * n, uppers, "max")
        assert res.status == "optimal"
        assert res.objective == expect
        assert verify_certificate(lp, res)


def _random_mixed_lp(rng):
    """A small LP with fractional data, mixed relations, nonzero lower
    bounds and optional bound overrides.  Rows are built around a point x0
    inside the bounds, so most draws are feasible; rows with negative
    coefficients give negative right-hand sides, which the solver flips."""
    def frac():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))

    n = rng.randint(1, 3)
    lower = [rng.choice((F(0), frac())) for _ in range(n)]
    upper = [None if rng.random() < 0.2 else lo + F(rng.randint(1, 8), rng.choice((1, 2)))
             for lo in lower]
    x0 = [lo + (F(rng.randint(0, 4), 2) if hi is None else (hi - lo) * F(rng.randint(0, 4), 4))
          for lo, hi in zip(lower, upper)]
    lp = LinearProgram(rng.choice(("max", "min")), tuple(frac() for _ in range(n)),
                       lower=tuple(lower), upper=tuple(upper))
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.choice((F(0), frac())) for _ in range(n)]
        rel = rng.choice(("<=", ">=", "="))
        lhs = sum(a * x for a, x in zip(coeffs, x0))
        slack = F(rng.randint(0, 3), rng.choice((1, 2)))
        lp.add_row(coeffs, rel, {"<=": lhs + slack, ">=": lhs - slack, "=": lhs}[rel])
    overrides = None
    if rng.random() < 0.3:
        j = rng.randrange(n)
        overrides = {j: (rng.choice((None, F(rng.randint(-2, 3)))),
                         rng.choice((None, F(rng.randint(0, 5)))))}
    return lp, overrides


def _oracle_value(lp, lower, upper, cap):
    """Vertex-oracle optimum with >= and = rows rewritten as <= rows and
    every missing upper bound replaced by `cap`."""
    rows, rhss = [], []
    for con in lp.constraints:
        if con.rel in ("<=", "="):
            rows.append(list(con.coeffs))
            rhss.append(con.rhs)
        if con.rel in (">=", "="):
            rows.append([-a for a in con.coeffs])
            rhss.append(-con.rhs)
    uppers = [cap if hi is None else hi for hi in upper]
    return lp_vertex_oracle(lp.objective, rows, rhss, lower, uppers, lp.sense)


def test_integer_tableau_exact_on_mixed_random_lps():
    rng = Random(23)
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
        capped = _oracle_value(lp, lower, upper, F(10**4))
        if res.status == "infeasible":
            assert capped is None
        elif res.status == "unbounded":
            further = _oracle_value(lp, lower, upper, F(10**5))
            assert (further > capped) if lp.sense == "max" else (further < capped)
        else:
            assert res.objective == capped
            assert all(type(v) is F for v in res.primal + res.row_duals + res.reduced_costs)
            assert verify_certificate(lp, res)
    assert min(seen.values()) >= 10, seen


def test_certificate_rejects_tampering():
    lp = _lp("max", [1, 1], [([2, 1], "<=", 2), ([1, 2], "<=", 2)])
    res = solve_lp(lp)
    bad = type(res)(
        res.status, res.objective + 1, res.primal, res.row_duals,
        res.upper_bound_duals, res.reduced_costs, res.branch_count, res.lp,
    )
    assert not verify_certificate(lp, bad)


def _at(values, j, v):
    return values[:j] + (F(v),) + values[j + 1:]


def test_certificate_rejects_each_broken_condition():
    # a sits at its lower bound 1, b at its upper bound 2, k1 and k2 are
    # fixed at 1; c meets a <=, a >= and an = row, all tight; e, f and g
    # have slack rows of each kind, and h a tight <= row.
    names = ("a", "b", "c", "e", "f", "g", "h", "k1", "k2")
    lp = LinearProgram("max", (-1, 1, 1, 0, 0, 0, 1, -2, 2), [],
                       lower=(1, 0, 0, 0, 0, 0, 0, 1, 1),
                       upper=(None, 2, None, None, None, None, None, 1, 1), var_names=names)
    for var, coef, rel, rhs in [("c", 1, "<=", 3), ("c", 1, ">=", 3), ("c", 1, "=", 3),
                                ("e", 1, "<=", 1), ("f", -1, ">=", -1), ("g", 1, "=", 1),
                                ("h", 1, "<=", 2)]:
        lp.add_row([coef if n == var else 0 for n in names], rel, rhs)
    res = solve_lp(lp)
    x, y, u, r = res.primal, res.row_duals, res.upper_bound_duals, res.reduced_costs
    assert (res.objective, x) == (6, (1, 2, 3, 0, 0, 1, 2, 1, 1))
    assert (y, u, r) == ((0, 0, 1, 0, 0, 0, 1), (None, 1, None, None, None, None, None, 0, 2),
                         (-1, 0, 0, 0, 0, 0, 0, -2, 0))
    assert verify_certificate(lp, res)
    # Each tampered certificate breaks one condition and keeps the others.
    # The rows on c share their duals' sum, and a fixed variable its u + r.
    broken = {
        "status": {"status": "infeasible"},
        "<= row infeasible": {"primal": _at(x, 3, 2)},
        ">= row infeasible": {"primal": _at(x, 4, 2)},
        "= row infeasible": {"primal": _at(x, 5, F(1, 2))},
        "row complementary slackness": {"primal": _at(x, 6, 1)},
        "<= row dual sign": {"row_duals": _at(_at(y, 0, -1), 2, 2)},
        ">= row dual sign": {"row_duals": _at(_at(y, 1, 1), 2, 0)},
        "below a lower bound": {"primal": _at(x, 3, -1)},
        "upper-bound complementary slackness": {"primal": _at(x, 1, F(3, 2))},
        "upper-bound dual sign": {"upper_bound_duals": _at(u, 7, -1),
                                  "reduced_costs": _at(r, 7, -1)},
        "stationarity": {"reduced_costs": _at(r, 3, -1)},
        "reduced-cost complementary slackness": {"primal": _at(x, 0, 2)},
        "reduced-cost sign": {"upper_bound_duals": _at(u, 8, 1), "reduced_costs": _at(r, 8, 1)},
        "strong duality": {"objective": res.objective + 1},
    }
    for condition, fields in broken.items():
        assert not verify_certificate(lp, replace(res, **fields)), condition


def test_ilp_knapsack():
    lp = _lp(
        "max", [10, 6, 4],
        [([1, 1, 1], "<=", 2)],
        upper=(F(1),) * 3, integer=(True,) * 3,
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
        c = [F(rng.randint(0, 5)) for _ in range(n)]
        rows = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        rhss = [F(rng.randint(1, 5)) for _ in range(m)]
        lp = _lp(
            "max", c, [(r, "<=", b) for r, b in zip(rows, rhss)],
            upper=(F(1),) * n, integer=(True,) * n,
        )
        res = solve_ilp(lp)
        best = max(
            sum(ci * xi for ci, xi in zip(c, xs))
            for xs in __import__("itertools").product((0, 1), repeat=n)
            if all(sum(a * x for a, x in zip(r, xs)) <= b for r, b in zip(rows, rhss))
        )
        assert res.objective == best


def _pruning_ilp(seed, halve):
    """Five integer variables in [0, 3], three dense rows.  With `halve` the
    objective is divided by 2, which keeps the search tree of the unrounded
    bound but makes the objective non-integral, so no rounding applies."""
    rng = Random(seed)
    sense = rng.choice(("max", "min"))
    c = [rng.randint(1, 9) for _ in range(5)]
    rows = [[rng.randint(1, 9) for _ in range(5)] for _ in range(3)]
    rhss = [rng.randint(10, 30) for _ in range(3)]
    rel = "<=" if sense == "max" else ">="
    obj = [F(x, 2) for x in c] if halve else c
    lp = _lp(sense, obj, [(r, rel, b) for r, b in zip(rows, rhss)],
             upper=(F(3),) * 5, integer=(True,) * 5)

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
        lp, best = _pruning_ilp(seed, halve=False)
        res = solve_ilp(lp)
        assert res.objective == best
        assert all(x.denominator == 1 for x in res.primal)
        unrounded = solve_ilp(_pruning_ilp(seed, halve=True)[0])
        assert unrounded.objective == F(best, 2)
        assert res.branch_count < unrounded.branch_count


def test_ilp_infeasible():
    lp = _lp("max", [1], [([2], "=", 1)], upper=(F(3),), integer=(True,))
    res = solve_ilp(lp)
    assert res.status == "infeasible"


def test_ilp_node_limit():
    # Odd-cycle packing: relaxation sits at the all-1/2 vertex, so at least
    # one branch is required, exceeding a node limit of 1.
    lp = _lp(
        "max", [1, 1, 1],
        [([1, 1, 0], "<=", 1), ([0, 1, 1], "<=", 1), ([1, 0, 1], "<=", 1)],
        upper=(F(1),) * 3, integer=(True,) * 3,
    )
    with pytest.raises(NodeLimitExceeded):
        solve_ilp(lp, node_limit=1)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        LinearProgram("max", (F(1),), [Constraint((F(1), F(2)), "<=", F(1))])
    with pytest.raises(DimensionError):
        LinearProgram("max", (F(1),), lower=(F(2),), upper=(F(1),))
    with pytest.raises(DimensionError):
        LinearProgram("max", (F(1),), [Constraint((F(1),), "<<", F(1))])


def test_add_row_rejects_a_wrong_length():
    # Unchecked, a third coefficient would land on row 0's slack column and
    # max x0 + x1 s.t. x0 + 5 s0 <= 2 would read "optimal 5".
    lp = _lp("max", [1, 1], [], upper=(1, 1))
    for coeffs in ([1, 0, 5], [1]):
        with pytest.raises(DimensionError, match="has .* coefficients, expected 2"):
            lp.add_row(coeffs, "<=", 2)
    assert lp.constraints == [] and solve_lp(lp).objective == 2


def test_add_row_rejects_an_unknown_relation():
    # Unchecked, "<" would be solved as "=": min x0 + x1 would read 2.
    lp = _lp("min", [1, 1], [])
    with pytest.raises(DimensionError, match="unknown relation '<'"):
        lp.add_row([1, 1], "<", 2)
    assert lp.constraints == [] and solve_lp(lp).objective == 0


def test_int_row_is_the_dense_row_over_one_denominator():
    zero = F(0, 7)  # a zero that is not the shared one
    con = Constraint((3, 0, F(-3, 4), F(5, 6), zero, F(1), -1), "<=", F(1))
    assert con.int_row == (12, ((0, 36), (2, -9), (3, 10), (5, 12), (6, -12)))
    assert Constraint((0, zero), "=", F(0)).int_row == (1, ())
    rng = Random(5)
    for _ in range(200):
        coeffs = tuple(rng.choice((0, 1, -2, F(0), F(1), zero)) if rng.random() < 0.5
                       else F(rng.randint(-9, 9), rng.randint(1, 12))
                       for _ in range(rng.randint(0, 8)))
        den, nz = Constraint(coeffs, ">=", F(0)).int_row
        assert den == lcm(*(F(a).denominator for a in coeffs if a))
        assert [j for j, _ in nz] == [j for j, a in enumerate(coeffs) if a]
        assert all(type(v) is int and F(v, den) == coeffs[j] for j, v in nz)


def test_a_solved_constraint_compares_hashes_and_prints_as_before():
    a, b = (Constraint((F(1), F(1, 2)), "<=", F(3), "r") for _ in range(2))
    text = repr(b)
    assert solve_lp(LinearProgram("max", (F(1), F(1)), [a])).objective == 6
    assert "int_row" in vars(a) and "int_row" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == text
    assert "int_row" not in {f.name for f in fields(Constraint)}


def _result_fields(res):
    return (res.status, res.objective, res.primal, res.row_duals,
            res.upper_bound_duals, res.reduced_costs, res.branch_count)


def test_a_replaced_program_solves_the_same_over_shared_rows():
    rng = Random(24)
    for _ in range(300):
        lp, _ = _random_mixed_lp(rng)
        copy = replace(lp)
        assert all(c is d for c, d in zip(copy.constraints, lp.constraints))
        first = _result_fields(solve_lp(lp))
        assert _result_fields(solve_lp(copy)) == first == _result_fields(solve_lp(lp))


def _random_standard_lp(rng, sense):
    """A covering (min, >=) or packing (max, <=) program with positive
    fractional data, so it has an optimum."""
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    rel = ">=" if sense == "min" else "<="
    rows = [([F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)], rel,
             F(rng.randint(1, 9), rng.randint(1, 3))) for _ in range(m)]
    for coeffs, _, _ in rows:  # every row and column touches a positive entry
        coeffs[rng.randrange(n)] += 1
    for j in range(n):
        rows[rng.randrange(m)][0][j] += F(1, 2)
    c = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
    return _lp(sense, c, rows, names=tuple(f"v{j}" for j in range(n)))


def test_transpose_is_an_involution():
    rng = Random(41)
    for sense in ("min", "max") * 10:
        lp = _random_standard_lp(rng, sense)
        for i, con in enumerate(lp.constraints):
            lp.constraints[i] = Constraint(con.coeffs, con.rel, con.rhs, f"r{i}")
        dual = transpose(lp)
        assert dual.sense != lp.sense
        assert dual.var_names == tuple(f"r{i}" for i in range(len(lp.constraints)))
        assert [c.name for c in dual.constraints] == list(lp.var_names)
        assert [c.coeffs for c in dual.constraints] == list(zip(*(c.coeffs for c in lp.constraints)))
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


def test_transpose_carries_integrality():
    lp = _lp("max", [1, 2], [([1, 1], "<=", 3)], integer=(True, True))
    assert transpose(lp).integer == (True,)
    lp = _lp("max", [1, 2], [([1, 1], "<=", 3)], integer=(True, False))
    assert transpose(lp).integer == (False,)


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
