"""Exact linear algebra helpers: integer matrices over Q, and matrices over
a finite field.

Matrices are lists (or tuples) of rows.  Everything is Gaussian elimination
at sizes where nothing else is worth writing; there is deliberately no
floating point anywhere in this module.  Over Q the elimination never
divides (rational_rank scales rows by the pivot instead), so integer input
stays integer and no rational type is needed.
"""

from __future__ import annotations

from operator import mul

# ---------------------------------------------------------------------------
# integer / rational matrices


def int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a, b):
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def int_transpose(a):
    return [list(col) for col in zip(*a)]


def int_det(a) -> int:
    """Exact determinant by fraction-free expansion; n stays tiny."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            det += (-1) ** j * a[0][j] * int_det(minor)
    return det


def rational_rank(rows) -> int:
    """Rank over Q of an integer (or Fraction) matrix, by elimination
    without division.

    With pivot p in column c, every later row r becomes p*r - r[c]*(pivot
    row): column c is cleared, and since p != 0 the row space is kept.
    Entries stay in the ring of the input, so integers stay integers.
    """
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p, top = m[rank][col], m[rank]
        for r in range(rank + 1, len(m)):
            c = m[r][col]
            if c:
                m[r] = [p * x - c * y for x, y in zip(m[r], top)]
        rank += 1
    return rank


def int_matrix_order(a, cap: int = 64) -> int:
    """Multiplicative order of an integer matrix, or raise past the cap."""
    ident = int_identity(len(a))
    acc = [list(row) for row in a]
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = int_mat_mul(acc, a)
    raise ValueError(f"matrix order exceeds {cap}")


# ---------------------------------------------------------------------------
# matrices over a field given by its operations (add, sub, mul, neg, inv,
# zero, one): ``tower.base`` for F_q codes, ``tower.ext`` for F_{q^2} codes


def fq_rref(rows, field):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, x) for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                c = m[r][col]
                m[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def fq_kernel(rows, field):
    """Basis of the right null space, and the free (non-pivot) columns.

    Basis vector i is 1 at free column i and 0 at every other free column,
    so a null vector's coordinates in the basis are its entries at the free
    columns.
    """
    m, pivots = fq_rref(rows, field)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(m[r][fc])
        basis.append(tuple(v))
    return basis, free


def fq_nullspace(rows, field):
    """Basis of the right null space (see fq_kernel)."""
    return fq_kernel(rows, field)[0]


def fq_det(rows, field):
    """Determinant of a square matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    det = field.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = field.neg(det)
        det = field.mul(det, m[col][col])
        inv = field.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                c = field.mul(m[r][col], inv)
                m[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[col])]
    return det

