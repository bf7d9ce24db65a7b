"""Exact rational linear algebra.

Small dense routines: reduced row echelon form, rank and null-space bases
from one fraction-free elimination over the integers, returned as
``fractions.Fraction``, and a phase-1 simplex over Fractions that decides
strict feasibility of systems ``M y >= 1`` exactly.  Everything here is
deterministic; the simplex uses Bland's rule, so it terminates on
degenerate inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]


def to_fraction_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Copy ``rows`` into a list-of-lists of Fractions."""
    return [[Fraction(v) for v in row] for row in rows]


def _eliminate(rows: Sequence[Sequence], ncols: int | None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Each row is scaled to integers by the lcm of its denominators.  A row
    is eliminated against the pivot row by cross-multiplication and then
    divided by the gcd of its entries, so the entries stay small and the
    elimination does no rational arithmetic.  Returns the nonzero rows,
    each a nonzero multiple of the corresponding row of the reduced echelon
    form (which is unique), and the pivot columns.
    """
    m: list[list[int]] = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            m.append(list(row))
            continue
        fr = [Fraction(v) for v in row]
        den = math.lcm(*(v.denominator for v in fr))
        m.append([int(v.numerator) * (den // v.denominator) for v in fr])
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
                row = [pv * a - f * b for a, b in zip(m[i], top)]
                g = math.gcd(*row)
                m[i] = [v // g for v in row] if g > 1 else row
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
    """Exact matrix-vector product."""
    return [sum((Fraction(a) * Fraction(b) for a, b in zip(row, x)), Fraction(0)) for row in rows]


def strictly_feasible(rows: Sequence[Sequence]) -> Row | None:
    """Decide whether ``M y >= 1`` has a solution with ``y`` free.

    Exact phase-1 simplex: ``y`` is split into nonnegative parts, surplus
    variables turn the inequalities into equalities, and artificials give the
    starting basis.  Feasible iff the artificial cost can be driven to zero.

    Returns a solution vector ``y`` (Fractions) or ``None``.

    Strict systems ``M y > 0`` are homogeneous here, so feasibility of the
    open cone is equivalent to feasibility of ``M y >= 1``: any strictly
    positive image can be scaled up to clear 1.
    """
    m = to_fraction_matrix(rows)
    if not m:
        return []
    k = len(m[0])
    r = len(m)
    one = Fraction(1)
    zero = Fraction(0)
    # Columns: u (k) | v (k) | surplus (r) | artificial (r) | rhs
    ncols = 2 * k + 2 * r + 1
    tab: Matrix = []
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
    # Reduced costs for minimizing the artificial sum: c_j - z_j.
    cost = [zero] * (ncols - 1)
    for j in range(2 * k + r, 2 * k + 2 * r):
        cost[j] = one
    red = list(cost)
    obj = zero
    for i in range(r):  # price out the basic artificials
        red = [c - t for c, t in zip(red, tab[i][:-1])]
        obj -= tab[i][-1]
    # obj tracks -(artificial sum); optimal when no negative reduced cost.
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
