"""Exact linear algebra tests: integer matrices and base-field code matrices."""

import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dlcusp.gf import build_field
from dlcusp.linalg import (
    fq_det,
    fq_kernel,
    fq_nullspace,
    fq_rref,
    int_det,
    int_identity,
    int_mat_mul,
    int_mat_vec,
    int_matrix_order,
    int_transpose,
    rational_rank,
)


def test_int_det_small_cases():
    assert int_det([[5]]) == 5
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert int_det(int_identity(4)) == 1


def test_int_det_multiplicative_sampled():
    rng = random.Random(11)
    for _ in range(50):
        a = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)]
        b = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)]
        assert int_det(int_mat_mul(a, b)) == int_det(a) * int_det(b)


def _unimodular_inverse(a):
    """det(a) times the adjugate of a, from cofactors: the inverse when det(a)
    is +-1.  The package checks twists without inverting them, so the
    inverse lives here, as a check on int_det and int_mat_mul."""
    n = len(a)
    d = int_det(a)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {d})")
    if n == 1:
        return [[d]]
    return [
        [
            d
            * (-1) ** (i + j)
            * int_det([row[:i] + row[i + 1 :] for k, row in enumerate(a) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_int_inverse_of_unimodular():
    a = [[1, 1], [0, 1]]
    assert int_mat_mul(a, _unimodular_inverse(a)) == int_identity(2)
    w = [[0, 1], [1, 0]]
    assert _unimodular_inverse(w) == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        _unimodular_inverse([[2, 0], [0, 1]])
    # seeded products of elementary matrices are unimodular
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            m = int_identity(n)
            for _ in range(6):
                e = int_identity(n)
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                e[i][j] = rng.choice((-1, 1)) if i != j else -1
                m = int_mat_mul(m, e)
            inv = _unimodular_inverse(m)
            assert int_mat_mul(m, inv) == int_mat_mul(inv, m) == int_identity(n)


def test_int_mat_mul_matches_schoolbook():
    rng = random.Random(23)
    for _ in range(200):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
        expected = [[0] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    expected[i][j] += a[i][t] * b[t][j]
        assert int_mat_mul(a, b) == expected
        # tuple rows give the same product
        assert int_mat_mul(tuple(map(tuple, a)), tuple(map(tuple, b))) == expected


def test_int_mat_vec():
    assert int_mat_vec([[0, 1], [1, 0]], (3, 4)) == (4, 3)
    assert int_mat_vec([[-1, 0], [0, -1]], (1, -2)) == (-1, 2)


def test_transpose():
    assert int_transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]


def test_rational_rank_fixed_spaces():
    # tau - I for the twists appearing in the datum library
    swap = [[0, 1], [1, 0]]
    ident = int_identity(2)
    sub = lambda a, b: [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert rational_rank(sub(ident, ident)) == 0  # fixed space is everything
    assert rational_rank(sub(swap, ident)) == 1
    minus = [[-1, 0], [0, -1]]
    assert rational_rank(sub(minus, ident)) == 2
    assert rational_rank([[2, 4], [1, 2]]) == 1


def test_rational_rank_integer_and_fraction_matrices():
    # row 3 = row 1 + row 2, so the rank is 2 over Q
    assert rational_rank([[1, 2, 3], [4, 5, 6], [5, 7, 9]]) == 2
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert rational_rank([[half, third], [3 * half, 1]]) == 1
    assert rational_rank([[half, third], [third, half]]) == 2


def test_rational_rank_agrees_with_division_over_fractions():
    # the division-free elimination against fq_rref with exact division in Q,
    # on integer matrices built with a known rank bound
    rationals = SimpleNamespace(
        sub=operator.sub, mul=operator.mul, inv=lambda x: 1 / Fraction(x)
    )
    rng = random.Random(19)
    for _ in range(200):
        n, m, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)
        base = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        rows = []
        for _ in range(n):
            coeffs = [rng.randint(-3, 3) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(m)])
        rank = rational_rank(rows)
        assert rank == len(fq_rref(rows, rationals)[1]) <= min(n, m, r)
        scaled = [[Fraction(x, 6) for x in row] for row in rows]
        assert rational_rank(scaled) == rank


def test_int_matrix_order():
    assert int_matrix_order(int_identity(3)) == 1
    assert int_matrix_order([[0, 1], [1, 0]]) == 2
    assert int_matrix_order([[0, -1], [1, 0]]) == 4
    assert int_matrix_order([[0, -1], [1, -1]]) == 3
    with pytest.raises(ValueError):
        int_matrix_order([[1, 1], [0, 1]], cap=8)


@pytest.fixture(scope="module")
def t7():
    return build_field(7).base


def test_fq_rref_pivots(t7):
    m, pivots = fq_rref([[2, 4], [1, 2]], t7)
    assert pivots == [0]
    assert m[0] == [1, 2]
    assert m[1] == [0, 0]


def test_fq_det_and_rank(t7):
    assert fq_det([[1, 2], [3, 4]], t7) == (1 * 4 - 2 * 3) % 7
    assert fq_det([[2, 4], [1, 2]], t7) == 0
    assert len(fq_rref([[2, 4], [1, 2]], t7)[1]) == 1
    assert len(fq_rref([[1, 0], [0, 1]], t7)[1]) == 2


def test_fq_det_multiplicative_exhaustive_q3():
    t = build_field(3).base
    mats = [
        [[a, b], [c, d]]
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
    ]
    rng = random.Random(3)
    for _ in range(300):
        a, b = rng.choice(mats), rng.choice(mats)
        prod = [
            [
                t.add(t.mul(a[i][0], b[0][j]), t.mul(a[i][1], b[1][j]))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert fq_det(prod, t) == t.mul(fq_det(a, t), fq_det(b, t))


def test_fq_nullspace_dimension(t7):
    basis = fq_nullspace([[1, 2, 3], [2, 4, 6]], t7)
    assert len(basis) == 2
    for v in basis:
        s = 0
        for x, c in zip(v, (1, 2, 3)):
            s = t7.add(s, t7.mul(x, c))
        assert s == 0
    assert fq_nullspace([[1, 0], [0, 1]], t7) == []


def test_fq_kernel_free_coordinates(t7):
    # basis vector i is 1 at free column i and 0 at the other free columns,
    # so a null vector is the combination of its entries there
    rng = random.Random(5)
    for _ in range(100):
        a = [[rng.randrange(7) for _ in range(4)] for _ in range(2)]
        basis, free = fq_kernel(a, t7)
        assert basis == fq_nullspace(a, t7)
        assert len(free) == len(basis) == 4 - len(fq_rref(a, t7)[1])
        for i, v in enumerate(basis):
            assert [v[c] for c in free] == [int(i == j) for j in range(len(free))]
        coeffs = [rng.randrange(7) for _ in basis]
        w = [sum(c * v[j] for c, v in zip(coeffs, basis)) % 7 for j in range(4)]
        assert all(sum(x * y for x, y in zip(row, w)) % 7 == 0 for row in a)
        assert [w[c] for c in free] == coeffs
