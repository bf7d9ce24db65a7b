"""Exact rational linear algebra, cross-checked against independent oracles.

Oracles: hand-reduced echelon forms for small matrices, numpy's rank on
integer matrices, Gauss-Jordan elimination over Fractions for the
fraction-free elimination, the phase-1 simplex over Fractions for the
fraction-free simplex, products of Fractions for ``matvec``, and scipy's
floating-point LP as an independent route to the strict-feasibility
verdict.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from oscsync import exactlin

F = Fraction


def as_fractions(rows):
    return [[F(v) for v in row] for row in rows]


class TestRref:
    def test_hand_reduced_2x3(self):
        # [[2,4,6],[1,2,3]] has one independent row; normalized leading 1.
        echelon, pivots = exactlin.rref([[2, 4, 6], [1, 2, 3]])
        assert echelon == as_fractions([[1, 2, 3]])
        assert pivots == [0]

    def test_hand_reduced_full_rank(self):
        echelon, pivots = exactlin.rref([[0, 2], [3, 0]])
        assert echelon == as_fractions([[1, 0], [0, 1]])
        assert pivots == [0, 1]

    def test_fractional_elimination_is_exact(self):
        # 1/3 and 1/7 entries would break float pivoting; exact here.
        echelon, pivots = exactlin.rref([[F(1, 3), 1], [F(1, 7), 1]])
        assert echelon == as_fractions([[1, 0], [0, 1]])
        assert pivots == [0, 1]

    def test_zero_rows_dropped(self):
        echelon, pivots = exactlin.rref([[0, 0], [1, 5]])
        assert echelon == as_fractions([[1, 5]])
        assert pivots == [0]

    def test_empty_rows_need_ncols(self):
        assert exactlin.rref([], ncols=3) == ([], [])
        with pytest.raises(ValueError):
            exactlin.rref([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            exactlin.rref([[1, 2], [3]])

    def test_idempotent(self):
        rows = [[2, 1, 7], [4, 0, 1], [6, 1, 8]]
        once, pivots = exactlin.rref(rows)
        twice, pivots2 = exactlin.rref(once)
        assert once == twice
        assert pivots == pivots2


class TestRank:
    def test_matches_numpy_on_integer_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            a = rng.integers(-3, 4, size=(m, n))
            assert exactlin.rank(a.tolist()) == np.linalg.matrix_rank(a)

    def test_rank_deficient_product(self):
        # Outer product has rank 1 regardless of size.
        u = [1, -2, 3, 5]
        rows = [[ui * vj for vj in (2, 7, -1)] for ui in u]
        assert exactlin.rank(rows) == 1

    def test_empty(self):
        assert exactlin.rank([], ncols=4) == 0


class TestNullSpace:
    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            a = rng.integers(-3, 4, size=(m, n)).tolist()
            basis = exactlin.null_space(a, n)
            assert len(basis) == n - exactlin.rank(a, n)
            for v in basis:
                assert exactlin.matvec(a, v) == [F(0)] * m

    def test_no_rows_gives_standard_basis(self):
        basis = exactlin.null_space([], 3)
        assert basis == as_fractions([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_deterministic_free_coordinate_one(self):
        # x + y + z = 0: free coords y, z each set to 1 in its basis vector.
        basis = exactlin.null_space([[1, 1, 1]], 3)
        assert basis == as_fractions([[-1, 1, 0], [-1, 0, 1]])


def fraction_rref(rows, ncols=None):
    """Gauss-Jordan elimination over Fractions: normalize each pivot row,
    then clear its column from every other row."""
    m = [[F(v) for v in row] for row in rows]
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty row set")
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def fraction_null_space(rows, ncols):
    echelon, pivots = fraction_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
        basis.append(v)
    return basis


@st.composite
def matrices(draw, entries):
    """(ncols, rows): up to five drawn rows, sometimes a combination of
    them (rank-deficient) and a zero row; no rows at all is allowed."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(k * r[j] for k, r in zip(coeffs, rows)) for j in range(ncols)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return ncols, rows


INTEGERS = st.integers(-6, 6)
RATIONALS = st.one_of(INTEGERS, st.fractions(min_value=-6, max_value=6, max_denominator=9))


class TestFractionFreeElimination:
    """rref, rank and null_space against elimination over Fractions."""

    def check(self, ncols, rows, same_rows=None):
        """``same_rows``: the rows in another form for the reference."""
        ref = rows if same_rows is None else same_rows
        echelon, pivots = exactlin.rref(rows, ncols)
        assert (echelon, pivots) == fraction_rref(ref, ncols)
        assert all(type(v) is F for row in echelon for v in row)
        assert exactlin.rank(rows, ncols) == len(pivots)
        basis = exactlin.null_space(rows, ncols)
        assert basis == fraction_null_space(ref, ncols)
        assert all(type(v) is F for row in basis for v in row)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(matrices(INTEGERS))
    def test_integer_matrices(self, drawn):
        self.check(*drawn)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(matrices(RATIONALS))
    def test_rational_matrices(self, drawn):
        self.check(*drawn)

    def test_wide_numpy_integers_do_not_wrap(self):
        # Cross-multiplying these in int64 would overflow.
        rows = [[2**40, 3, 1], [5, 2**40, 7]]
        self.check(3, list(np.array(rows, dtype=np.int64)), rows)

    def test_floats_are_taken_exactly(self):
        self.check(3, [[0.1, 0.5, 1.0], [0.25, 3.0, -0.75]])


def fraction_matvec(rows, x):
    """Products and sums of Fractions, as ``matvec`` worked before its dot
    products went integer."""
    return [sum((F(a) * F(b) for a, b in zip(row, x)), F(0)) for row in rows]


class TestMatvec:
    def test_exact_fractions(self):
        out = exactlin.matvec([[F(1, 2), F(1, 3)]], [F(2, 3), 3])
        assert out == [F(4, 3)]

    def test_empty_matrix(self):
        assert exactlin.matvec([], [1, 2]) == []

    def check(self, rows, x, same_rows=None, same_x=None):
        out = exactlin.matvec(rows, x)
        ref = fraction_matvec(
            rows if same_rows is None else same_rows, x if same_x is None else same_x
        )
        assert out == ref
        assert all(type(v) is F for v in out)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(matrices(INTEGERS), st.data())
    def test_integer_inputs(self, drawn, data):
        ncols, rows = drawn
        self.check(rows, data.draw(st.lists(INTEGERS, min_size=ncols, max_size=ncols)))

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(matrices(RATIONALS), st.data())
    def test_rational_inputs(self, drawn, data):
        ncols, rows = drawn
        self.check(rows, data.draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols)))

    def test_wide_numpy_integers_do_not_wrap(self):
        # Products and sums of these overflow int64.
        rows = [[2**40, -3, 2**40], [5, 2**40, 7]]
        x = [2**40, 2**39, -1]
        self.check(
            list(np.array(rows, dtype=np.int64)), np.array(x, dtype=np.int64), rows, x
        )

    def test_numpy_integer_rows_with_rational_vector(self):
        rows = np.array([[1, -2, 0], [3, 1, 4]], dtype=np.int64)
        x = [F(1, 3), F(-5, 7), 2]
        self.check(list(rows), x, rows.tolist())

    def test_floats_are_taken_exactly(self):
        self.check([[0.1, 0.5], [0.25, -0.75]], [F(1, 3), 0.2])


def _feasible_by_lp(rows) -> bool:
    """Independent floating-point route: maximize t s.t. M y >= t, |y| <= 1.

    The strict system M y > 0 is feasible iff the optimum t is positive.
    """
    m = np.asarray(rows, dtype=float)
    r, k = m.shape
    # Variables: y (k, free via bounds [-1, 1]) and t.  linprog minimizes.
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-m, np.ones((r, 1))])
    b_ub = np.zeros(r)
    bounds = [(-1, 1)] * k + [(None, 1)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success
    return -res.fun > 1e-9


class TestStrictlyFeasible:
    def test_single_row(self):
        y = exactlin.strictly_feasible([[1]])
        assert y is not None and y[0] >= 1

    def test_contradictory_rows(self):
        assert exactlin.strictly_feasible([[1], [-1]]) is None

    def test_two_dimensional_cone(self):
        rows = [[1, 1], [1, -1]]
        y = exactlin.strictly_feasible(rows)
        assert y is not None
        for row in rows:
            assert sum(F(a) * b for a, b in zip(row, y)) >= 1

    def test_empty_system(self):
        assert exactlin.strictly_feasible([]) == []

    def test_solution_is_exact(self):
        rows = [[F(1, 3), F(-1, 7)], [F(0), F(2, 5)]]
        y = exactlin.strictly_feasible(rows)
        assert y is not None
        for row in rows:
            image = sum(F(a) * b for a, b in zip(row, y))
            assert image >= 1  # exact rational comparison, no tolerance

    def test_agrees_with_float_lp(self):
        rng = np.random.default_rng(23)
        both = {True: 0, False: 0}
        for _ in range(60):
            r = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            rows = rng.integers(-2, 3, size=(r, k)).tolist()
            exact = exactlin.strictly_feasible(rows) is not None
            approx = _feasible_by_lp(rows)
            assert exact == approx, f"disagreement on {rows}"
            both[exact] += 1
        # The sample must exercise both outcomes for the check to mean much.
        assert both[True] > 0 and both[False] > 0

    def test_feasible_image_clears_one(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            r = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            rows = rng.integers(-3, 4, size=(r, k)).tolist()
            y = exactlin.strictly_feasible(rows)
            if y is None:
                continue
            for row in rows:
                assert sum(F(a) * b for a, b in zip(row, y)) >= 1


def fraction_strictly_feasible(rows, ties=None):
    """Phase-1 simplex over Fractions with Bland's rule, as
    ``strictly_feasible`` ran before its tableau went fraction-free.
    ``ties``, when given, collects one entry per pivot whose leaving row
    was picked by the tie-break on the basis."""
    m = [[F(v) for v in row] for row in rows]
    if not m:
        return []
    k = len(m[0])
    r = len(m)
    one = F(1)
    zero = F(0)
    ncols = 2 * k + 2 * r + 1
    tab = []
    for i, row in enumerate(m):
        t = [zero] * ncols
        for j, a in enumerate(row):
            t[j] = a
            t[k + j] = -a
        t[2 * k + i] = -one
        t[2 * k + r + i] = one
        t[-1] = one
        tab.append(t)
    basis = [2 * k + r + i for i in range(r)]
    cost = [zero] * (ncols - 1)
    for j in range(2 * k + r, 2 * k + 2 * r):
        cost[j] = one
    red = list(cost)
    obj = zero
    for i in range(r):
        red = [c - t for c, t in zip(red, tab[i][:-1])]
        obj -= tab[i][-1]
    while True:
        enter = next((j for j, c in enumerate(red) if c < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(r):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; input inconsistent")
        if ties is not None and sum(t[enter] > 0 and t[-1] / t[enter] == best for t in tab) > 1:
            ties.append(enter)
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(r):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = red[enter]
        if f != 0:
            red = [a - f * b for a, b in zip(red, tab[leave][:-1])]
            obj -= f * tab[leave][-1]
        basis[leave] = enter
    if obj != 0:
        return None
    y = [zero] * k
    for i, b in enumerate(basis):
        if b < k:
            y[b] += tab[i][-1]
        elif b < 2 * k:
            y[b - k] -= tab[i][-1]
    return y


@st.composite
def systems(draw, entries):
    """Rows for ``M y >= 1``: one to five drawn rows, and sometimes
    positive multiples of them, which tie in the ratio test, and sums of
    two rows, which make degenerate vertices."""
    k = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(entries, min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["multiple", "sum"]))
        a = draw(st.sampled_from(rows))
        if kind == "multiple":
            scale = draw(st.sampled_from([F(1), F(2), F(1, 3), F(5, 2)]))
            new = [scale * F(v) for v in a]
        else:
            b = draw(st.sampled_from(rows))
            new = [F(u) + F(v) for u, v in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


class TestFractionFreeSimplex:
    """strictly_feasible against the simplex over Fractions: the same y,
    or None, on every system."""

    def check(self, rows, same_rows=None):
        y = exactlin.strictly_feasible(rows)
        assert y == fraction_strictly_feasible(rows if same_rows is None else same_rows)
        if y is not None:
            assert all(type(v) is F for v in y)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(systems(INTEGERS))
    def test_integer_systems(self, rows):
        self.check(rows)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(systems(RATIONALS))
    def test_rational_systems(self, rows):
        self.check(rows)

    @pytest.mark.parametrize(
        "rows, y",
        [
            ([[-2, -2, 2], [-1, 1, 2], [-2, 2, 4]], [F(-3, 4), F(1, 4), F(0)]),
            ([[-2, -2, 0], [-1, 0, 2], [-2, 0, 4]], [F(-1), F(1, 2), F(0)]),
        ],
    )
    def test_tie_break_picks_the_smaller_basic_index(self, rows, y):
        # A row and its double tie in the ratio test.  Leaving by the
        # larger basic index would give (0, 0, 1/2) and (-1/2, 0, 1/4).
        ties = []
        assert fraction_strictly_feasible(rows, ties) == y
        assert ties
        assert exactlin.strictly_feasible(rows) == y

    def test_tie_break_decides_pivots(self):
        # Small entries and a repeated or doubled row make many ratio
        # ties; the corpus must reach the tie-break on both outcomes.
        rng = np.random.default_rng(5)
        tied = {True: 0, False: 0}
        for _ in range(150):
            r = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            rows = rng.integers(-2, 3, size=(r, k)).tolist()
            scale = int(rng.integers(1, 3))
            rows += [[scale * v for v in rows[int(rng.integers(r))]]]
            ties = []
            ref = fraction_strictly_feasible(rows, ties)
            assert exactlin.strictly_feasible(rows) == ref
            if ties:
                tied[ref is not None] += 1
        assert tied[True] > 0 and tied[False] > 0

    def test_empty_system(self):
        assert exactlin.strictly_feasible([]) == fraction_strictly_feasible([]) == []

    def test_rows_without_columns(self):
        # 0 >= 1 is infeasible, whatever the row count.
        assert exactlin.strictly_feasible([[], []]) is None
        assert fraction_strictly_feasible([[], []]) is None

    def test_numpy_integer_rows(self):
        rows = [[2**40, -3], [-(2**40), 2**41], [1, 1]]
        self.check(list(np.array(rows, dtype=np.int64)), rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            exactlin.strictly_feasible([[1, 2], [3]])
