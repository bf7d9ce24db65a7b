"""Exact rational linear algebra.

Small dense routines: reduced row echelon form, rank and null-space bases
from one fraction-free elimination over the integers, a phase-1 simplex on
a fraction-free integer tableau that decides strict feasibility of systems
``M y >= 1`` exactly, and matrix-vector products as integer dot products.
Inputs are scaled row by row to Python ints; results are returned as
``fractions.Fraction``, built only at the end.  Everything here is
deterministic; the simplex uses Bland's rule, so it terminates on
degenerate inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]


def _integer_row(row: Sequence) -> tuple[list[int], int]:
    """``row`` as Python ints over one positive denominator: ``(ints, den)``
    with ``row[j] == ints[j] / den``.  Rationals are scaled by the lcm of
    their denominators; numpy integers become Python ints, so nothing
    wraps."""
    if set(map(type, row)) <= {int}:
        return list(row), 1
    fr = [Fraction(v) for v in row]
    den = math.lcm(*(v.denominator for v in fr))
    return [int(v.numerator) * (den // v.denominator) for v in fr], den


def _combine(pv: int, row: list[int], f: int, top: list[int]) -> list[int]:
    """``pv * row - f * top`` divided by the gcd of its entries."""
    out = [pv * a - f * b for a, b in zip(row, top)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _eliminate(rows: Sequence[Sequence], ncols: int | None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Each row is scaled to integers by the lcm of its denominators.  A row
    is eliminated against the pivot row by cross-multiplication and then
    divided by the gcd of its entries, so the entries stay small and the
    elimination does no rational arithmetic.  Returns the nonzero rows,
    each a nonzero multiple of the corresponding row of the reduced echelon
    form (which is unique), and the pivot columns.
    """
    m = [_integer_row(row)[0] for row in rows]
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty row set")
        return [], []
    n = len(m[0])
    if any(len(r) != n for r in m):
        raise ValueError("ragged rows")
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        pv = top[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = _combine(pv, m[i], f, top)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Parameters
    ----------
    rows:
        Coefficient rows; may be empty.
    ncols:
        Column count, required when ``rows`` is empty.

    Returns
    -------
    (echelon, pivots):
        The echelon matrix (zero rows dropped) and pivot column indices.
    """
    m, pivots = _eliminate(rows, ncols)
    return [[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)], pivots


def rank(rows: Sequence[Sequence], ncols: int | None = None) -> int:
    """Rank over the rationals."""
    return len(_eliminate(rows, ncols)[1])


def null_space(rows: Sequence[Sequence], ncols: int) -> list[Row]:
    """Basis of ``{x : rows @ x = 0}`` over the rationals.

    Each basis vector has a single free coordinate set to 1; the basis is
    deterministic given the row set.  With no rows the standard basis of
    length ``ncols`` is returned.
    """
    m, pivots = _eliminate(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def matvec(rows: Sequence[Sequence], x: Sequence) -> Row:
    """Exact matrix-vector product.

    ``x`` and each row are scaled to Python ints, so each entry is one
    integer dot product over the product of the two denominators.
    """
    xs, xden = _integer_row(x)
    out: Row = []
    for row in rows:
        ints, den = _integer_row(row)
        out.append(Fraction(sum(a * b for a, b in zip(ints, xs)), den * xden))
    return out


def strictly_feasible(rows: Sequence[Sequence]) -> Row | None:
    """Decide whether ``M y >= 1`` has a solution with ``y`` free.

    Exact phase-1 simplex: ``y`` is split into nonnegative parts, surplus
    variables turn the inequalities into equalities, and artificials give the
    starting basis.  Feasible iff the artificial cost can be driven to zero.

    The tableau is fraction-free.  Each input row is scaled to integers by
    the lcm of its denominators, the right-hand side 1 with it.  A pivot
    replaces row i by ``pv * row_i - f * row_leave`` (``pv > 0`` the pivot
    entry, ``f`` row i's entry in the entering column) and divides it by
    the gcd of its entries; the reduced-cost row, with the objective in its
    last slot, is kept the same way.  Every row is thus a positive multiple
    of the row over the rationals, whose basic entry is 1.  Bland's rule
    reads only signs, and the ratio test compares ``rhs_i * a_l`` with
    ``rhs_l * a_i`` (ties to the smaller basic index), so the pivots are
    those of the simplex over the rationals.

    Returns a solution vector ``y`` (Fractions) or ``None``.

    Strict systems ``M y > 0`` are homogeneous here, so feasibility of the
    open cone is equivalent to feasibility of ``M y >= 1``: any strictly
    positive image can be scaled up to clear 1.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return []
    k = len(m[0][0])
    if any(len(row) != k for row, _ in m):
        raise ValueError("ragged rows")
    r = len(m)
    # Columns: u (k) | v (k) | surplus (r) | artificial (r) | rhs
    ncols = 2 * k + 2 * r + 1
    tab: list[list[int]] = []
    for i, (row, den) in enumerate(m):
        t = [0] * ncols
        t[:k] = row
        t[k : 2 * k] = [-a for a in row]
        t[2 * k + i] = -den
        t[2 * k + r + i] = den
        t[-1] = den
        tab.append(t)
    basis = [2 * k + r + i for i in range(r)]
    # Reduced costs for minimizing the artificial sum, c_j - z_j, with
    # -(artificial sum) in the last slot: the unit costs on the artificials
    # less every row, each row first brought to the common denominator.
    lcd = math.lcm(*(den for _, den in m))
    red = [0] * ncols
    for j in range(2 * k + r, 2 * k + 2 * r):
        red[j] = lcd
    for t, (_, den) in zip(tab, m):
        s = lcd // den
        red = [c - s * a for c, a in zip(red, t)]
    g = math.gcd(*red)
    red = [v // g for v in red]
    # Optimal when no reduced cost is negative.
    while True:
        enter = next((j for j in range(ncols - 1) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(r):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a against rhs_leave / a_leave, both a positive.
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; input inconsistent")
        top = tab[leave]
        pv = top[enter]
        for i in range(r):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = _combine(pv, tab[i], f, top)
        red = _combine(pv, red, red[enter], top)
        basis[leave] = enter
    if red[-1] != 0:
        return None
    y = [Fraction(0)] * k
    for t, b in zip(tab, basis):
        if b < k:
            y[b] += Fraction(t[-1], t[b])
        elif b < 2 * k:
            y[b - k] -= Fraction(t[-1], t[b])
    return y

