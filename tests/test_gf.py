"""Field tests against independently derived constants.

The moduli and generator facts asserted here were computed by hand from the
canonical construction (lexicographically least monic irreducible, least
generator in coefficient order) before the implementation existed.  An
F_{q^2} element c0 + c1 y has the code c0 + c1 q, so F_q's codes are the
F_{q^2} codes below q.
"""

import itertools
import random

import pytest

from dlcusp.dlchar import cuspidal_character
from dlcusp.errors import ConfigError
from dlcusp.gf import build_field
from dlcusp.groups import MatrixGroup, elliptic_torus
from dlcusp.multiplicity import _log_lambda


def _pair(t, c):
    """The coefficient pair (c0, c1) of an F_{q^2} code."""
    return c % t.q, c // t.q


def _code(t, pair):
    return pair[0] + pair[1] * t.q


def test_rejects_bad_orders():
    for q in (4, 6, 8, 12, 1, 0, -3):
        with pytest.raises(ValueError):
            build_field(q)


def test_prime_power_base_field():
    t = build_field(9)
    # base F_9 = F_3[y]/(y^2 + 1), codes are base-3 digit strings
    assert t.p == 3 and t.f == 2 and t.q == 9
    assert t.base.mul(3, 3) == 2  # y * y = -1
    assert t.smallest_nonsquare() == 4


# the F_{q^2} modulus, generator (as a coefficient pair) and unit count for
# each acceptance field
FROZEN = {
    3: {"modulus": (1, 0, 1), "generator": (1, 1), "order": 8, "nonsquare": 2},
    5: {"modulus": (1, 1, 1), "generator": (1, 3), "order": 24, "nonsquare": 2},
    7: {"modulus": (1, 0, 1), "generator": (1, 2), "order": 48, "nonsquare": 3},
}


@pytest.mark.parametrize("q", sorted(FROZEN))
def test_frozen_tower_constants(q):
    t = build_field(q)
    facts = FROZEN[q]
    assert t.ext.modulus == facts["modulus"]
    assert _pair(t, t.ext.generator) == facts["generator"]
    assert t.ext.order == facts["order"]
    assert t.smallest_nonsquare() == facts["nonsquare"]
    assert t.base._order_of(t.base.generator) == q - 1


def test_frozen_generator_powers_q3():
    E = build_field(3).ext
    g = _code(E, (1, 1))
    assert E.generator == g
    assert E.pow(g, 4) == 2  # (1+y)^4 = -1
    assert E.pow(g, 8) == 1


def test_frozen_generator_powers_q5():
    E = build_field(5).ext
    assert E.pow(E.generator, 12) == 4  # the half-order power is -1


def test_frozen_generator_powers_q7():
    E = build_field(7).ext
    g = E.generator
    assert E.pow(g, 8) == 5
    assert E.pow(g, 16) == 4
    assert E.pow(g, 24) == 6


@pytest.mark.parametrize("q", (3, 5, 7))
def test_element_counts_and_orders(q):
    t = build_field(q)
    E = t.ext
    # the generator's powers are the q^2 - 1 units, zero not among them
    assert E.order == q * q - 1
    assert len(set(E.powers)) == E.order == q * q - 1
    assert sorted(E.powers) == list(range(1, q * q))
    assert E.log[0] is None
    # the base generator's powers are the q - 1 units of F_q
    units, x = set(), 1
    for _ in range(q - 1):
        units.add(x)
        x = t.base.mul(x, t.base.generator)
    assert x == 1 and units == set(range(1, q))


def test_discrete_log_roundtrip_exhaustive():
    for q in (3, 5):
        t = build_field(q)
        E = t.ext
        n = E.order
        seen = set()
        for x in range(1, q * q):
            k = t.discrete_log(x)
            assert 0 <= k < n
            assert E.pow(E.generator, k) == x
            seen.add(k)
        assert seen == set(range(n))
        assert t.discrete_log(E.generator) == 1
        assert t.discrete_log(E.one) == 0


def test_discrete_log_of_zero_rejected():
    t = build_field(3)
    for bad in (0, 9, -1):  # zero, and codes past either end
        with pytest.raises(ValueError):
            t.discrete_log(bad)


def test_frobenius_is_dlog_multiplication():
    t = build_field(3)
    E = t.ext
    n = E.order
    for x in range(1, 9):
        assert t.discrete_log(E.pow(x, t.q)) == (3 * t.discrete_log(x)) % n
    assert E.pow(0, t.q) == 0


def test_frobenius_orbit_pairs_q3():
    # unit exponent pairs {k, 3k mod 8} that are not Frobenius fixed
    pairs = set()
    for k in range(8):
        if (3 * k) % 8 != k:
            pairs.add(frozenset({k, (3 * k) % 8}))
    assert pairs == {frozenset({1, 3}), frozenset({2, 6}), frozenset({5, 7})}
    assert build_field(3).ext.order == 8


def test_field_axioms_exhaustive_pairs_q3():
    E = build_field(3).ext
    xs = range(9)
    one, zero = E.one, E.zero
    for x in xs:
        assert E.add(x, zero) == x
        assert E.mul(x, one) == x
        assert E.sub(x, x) == zero
        assert E.add(E.neg(x), x) == zero
        if x:
            assert E.mul(x, E.inv(x)) == one
            assert E.mul(E.pow(x, -1), x) == one
    for x in xs:
        for y in xs:
            assert E.add(x, y) == E.add(y, x)
            assert E.mul(x, y) == E.mul(y, x)


def test_field_axioms_sampled_triples():
    E = build_field(5).ext
    rng = random.Random(7)
    for _ in range(500):
        x, y, z = (rng.randrange(25) for _ in range(3))
        assert E.add(E.add(x, y), z) == E.add(x, E.add(y, z))
        assert E.mul(E.mul(x, y), z) == E.mul(x, E.mul(y, z))
        assert E.mul(x, E.add(y, z)) == E.add(E.mul(x, y), E.mul(x, z))


def test_pow_matches_repeated_multiplication():
    E = build_field(7).ext
    g = E.generator
    acc = E.one
    for k in range(20):
        assert E.pow(g, k) == acc
        acc = E.mul(acc, g)
    assert E.pow(g, -1) == E.inv(g)


def test_embed_is_a_field_hom():
    # the embedding F_q -> F_{q^2} is the identity on codes: the extension's
    # arithmetic on codes below q is the base field's
    for q in (3, 5, 9, 13):
        t = build_field(q)
        B, E = t.base, t.ext
        for a in range(q):
            assert _pair(t, a) == (a, 0)
            assert E.neg(a) == B.neg(a)
            if a:
                assert E.inv(a) == B.inv(a)
            for b in range(q):
                assert E.add(a, b) == B.add(a, b)
                assert E.sub(a, b) == B.sub(a, b)
                assert E.mul(a, b) == B.mul(a, b)


def test_scalar_reduces_mod_p():
    t = build_field(5)
    assert t.ext.embed_int(7) == t.base.embed_int(7) == 2
    assert t.ext.embed_int(-1) == 4
    # at q = 9 the scalar 4 * 1 is code 1, and code 4 is the nonsquare
    t9 = build_field(9)
    assert t9.ext.embed_int(4) == 1
    assert t9.smallest_nonsquare() == 4


# Slow references for the extension's arithmetic: the convolution product of
# coefficient pairs modulo the modulus, and square-and-multiply on top of it.


def _conv_mul(t, level, xs, ys):
    F = t.base
    m = t.ext.modulus
    conv = [0] * (2 * level - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i + j] = F.add(conv[i + j], F.mul(x, y))
    for k in range(len(conv) - 1, level - 1, -1):
        lead, conv[k] = conv[k], 0
        for i in range(level):
            conv[k - level + i] = F.sub(conv[k - level + i], F.mul(lead, m[i]))
    return tuple(conv[:level])


def _ref_pow(t, level, xs, n):
    out = (1,) + (0,) * (level - 1)
    while n:
        if n & 1:
            out = _conv_mul(t, level, out, xs)
        xs = _conv_mul(t, level, xs, xs)
        n >>= 1
    return out


@pytest.mark.parametrize("q,level", ((3, 2), (5, 2), (9, 2)))
def test_table_arithmetic_matches_convolution(q, level):
    # level is the extension degree, 2 for the one extension
    t = build_field(q)
    E = t.ext
    xs = list(itertools.product(range(q), repeat=level))  # (c0, c1) pairs
    one = (1,) + (0,) * (level - 1)
    for x in xs:
        for y in xs:
            assert _pair(t, E.mul(_code(t, x), _code(t, y))) == _conv_mul(t, level, x, y)
    n = E.order
    for x in xs[1:]:
        c = _code(t, x)
        inv = _pair(t, E.inv(c))
        assert inv == _ref_pow(t, level, x, n - 1)
        assert _conv_mul(t, level, x, inv) == one
        for k in range(n + 2):
            assert _pair(t, E.pow(c, k)) == _ref_pow(t, level, x, k)
        assert _pair(t, E.pow(c, -3)) == _ref_pow(t, level, inv, 3)
    assert E.pow(0, 0) == 1
    assert E.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        E.inv(0)
    with pytest.raises(ZeroDivisionError):
        E.pow(0, -1)
    stray = q * q  # a code out of range: neither zero nor a unit
    for bad in (lambda: E.mul(stray, 1), lambda: E.mul(1, stray),
                lambda: E.inv(stray), lambda: E.pow(stray, 2)):
        with pytest.raises(IndexError):
            bad()


def test_sqrt_on_all_squares():
    for q in (3, 5, 7, 9, 11, 13):
        t = build_field(q)
        roots = {}
        for y in range(1, q * q):
            roots.setdefault(t.ext.mul(y, y), []).append(_pair(t, y))
        for x in range(1, q * q):
            if x in roots:
                # the root with the lex-smaller pair, c0 first, not the
                # smaller code
                assert _pair(t, t.sqrt(x)) == min(roots[x])
            else:
                with pytest.raises(ValueError):
                    t.sqrt(x)
        assert len(roots) == t.ext.order // 2
        assert t.sqrt(0) == 0
        # every unit of F_q is a square in F_{q^2}
        assert all(x in roots for x in range(1, q))


# delta = sqrt(eps) for the smallest nonsquare eps of F_q, as a code, and the
# codes of g^0, g^1, ... for the generator g of F_{q^2}^x (so the position of
# a unit is its discrete log), both computed with the coefficient-tuple
# elements that preceded the codes
PINNED_DELTA = {3: (2, 3), 5: (2, 11), 7: (3, 14), 9: (4, 59), 11: (2, 33), 13: (2, 66)}
PINNED_POWERS = {
    3: [1, 4, 6, 7, 2, 8, 3, 5],
    5: [1, 16, 12, 11, 20, 13, 2, 7, 24, 22, 15, 21, 4, 14, 18, 19, 5, 17, 3, 23, 6, 8,
        10, 9],
    9: [1, 10, 63, 77, 69, 47, 33, 66, 26, 24, 7, 70, 27, 15, 35, 59, 44, 31, 46, 53, 3,
        30, 36, 71, 37, 78, 19, 38, 61, 55, 4, 40, 18, 28, 25, 17, 52, 23, 75, 79, 2, 20,
        45, 43, 48, 64, 57, 51, 13, 12, 5, 50, 54, 21, 58, 34, 76, 62, 65, 67, 6, 60, 72,
        49, 74, 39, 11, 73, 32, 29, 8, 80, 9, 56, 14, 22, 68, 16, 42, 41],
}


@pytest.mark.parametrize("q", sorted(PINNED_DELTA))
def test_pinned_nonsquare_and_delta(q):
    t = build_field(q)
    eps, delta = PINNED_DELTA[q]
    assert t.smallest_nonsquare() == eps
    assert t.sqrt(eps) == delta
    assert t.ext.mul(delta, delta) == eps


@pytest.mark.parametrize("q", sorted(PINNED_POWERS))
def test_pinned_discrete_logs(q):
    t = build_field(q)
    assert t.ext.powers == PINNED_POWERS[q]
    for k, x in enumerate(PINNED_POWERS[q]):
        assert t.discrete_log(x) == k


# F_q for q = p^f is the degree-f level over F_p, a code the base-p value of
# its coefficient tuple (low degree first).  Its tables must be schoolbook
# polynomial arithmetic modulo the lexicographically least monic irreducible
# of degree f, derived by hand: -1 is a nonsquare mod 3; y^2 + y + 1 has
# discriminant -3 = 2, a nonsquare mod 5; y^3 + 2y^2 + 1 has no root mod 3.
BASE_MODULI = {9: (3, (1, 0, 1)), 25: (5, (1, 1, 1)), 27: (3, (1, 0, 2, 1))}


def _schoolbook(p, modulus, xs, ys):
    f = len(modulus) - 1
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, f - 1, -1):
        lead, prod[k] = prod[k], 0
        for i in range(f):
            prod[k - f + i] -= lead * modulus[i]
    return tuple(c % p for c in prod[:f])


@pytest.mark.parametrize("q", sorted(BASE_MODULI))
def test_base_tables_are_schoolbook_arithmetic(q):
    p, modulus = BASE_MODULI[q]
    f = len(modulus) - 1
    t = build_field(q)
    assert t.base.modulus == modulus
    digits = [tuple(c // p**i % p for i in range(f)) for c in range(q)]
    code = {d: c for c, d in enumerate(digits)}
    for a, xs in enumerate(digits):
        for b, ys in enumerate(digits):
            assert t.base.add(a, b) == code[tuple((x + y) % p for x, y in zip(xs, ys))]
            assert t.base.mul(a, b) == code[_schoolbook(p, modulus, xs, ys)]


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_base_generator_is_the_least_primitive_code(q):
    t = build_field(q)

    def order(c):
        x, k = c, 1
        while x != 1:
            x, k = t.base.mul(x, c), k + 1
        return k

    assert t.base.generator == next(c for c in range(1, q) if order(c) == q - 1)


def test_base_arithmetic_q9():
    t = build_field(9)
    # inverses in the 9-element base field
    for a in range(1, 9):
        assert t.base.mul(a, t.base.inv(a)) == 1
    assert t.base.neg(0) == 0
    assert t.base.sub(1, 3) == t.base.add(1, t.base.neg(3))


# Multiplicative characters of F_{q^2}^*, read on the elliptic torus of
# GL2(F_q): its points are the units of F_{q^2} through their eigenvalue, and
# the character with exponent (k,) is the exponent k against the generator.


def _f_q2_characters(q):
    group = MatrixGroup("gl2", q)
    return group, elliptic_torus(group)


def test_character_log_value_is_a_hom():
    g, te = _f_q2_characters(3)
    n = g.tower.ext.order
    log = lambda x: _log_lambda(te, (3,), x)
    for x in te.elements:
        for y in te.elements:
            assert log(g.mul(x, y)) == (log(x) + log(y)) % n
    assert log(g.identity()) == 0


def test_character_exponent_normalization():
    # exponents act mod q^2 - 1, and the Frobenius partner of 5 is 15 = 7
    _, te = _f_q2_characters(3)
    for k, same in ((11, 3), (-1, 7), (-5, 3), (5 * 3, 7)):
        assert all(_log_lambda(te, (k,), x) == _log_lambda(te, (same,), x) for x in te.elements)


def test_general_position_census_q3():
    g, _ = _f_q2_characters(3)
    gp = set()
    for k in range(8):
        try:
            cuspidal_character(g, k)
        except ConfigError:
            continue
        gp.add(k)
    assert gp == {1, 2, 3, 5, 6, 7}


def test_character_trivial_on_base_units():
    g, te = _f_q2_characters(3)
    base = [g.scalar(a) for a in (1, 2)]
    for k in range(8):
        assert all(_log_lambda(te, (k,), z) == 0 for z in base) == (k % 2 == 0)


def test_deterministic_rebuild():
    a = build_field(7)
    b = build_field(7)
    assert a.ext.modulus == b.ext.modulus
    assert a.ext.generator == b.ext.generator
    assert a.ext.powers == b.ext.powers


# The 2x2 matrix kernel (mat_mul, row_times, mat_det, mat_inv, mat_monic)
# against matrices worked by hand from scalar addition and multiplication
# alone: residues mod q for prime q, schoolbook polynomials for q = 9, and
# convolution for F_{q^2} codes; -1 and inverses are found by search.


class _SchoolbookMatrices:
    def __init__(self, elements, add, mul, zero, one):
        self.add, self.mul, self.zero, self.one = add, mul, zero, one
        self.minus_one = next(x for x in elements if add(x, one) == zero)
        self.inverse = {
            x: next(y for y in elements if mul(x, y) == one) for x in elements if x != zero
        }

    def mat_mul(self, x, y):
        add, mul = self.add, self.mul
        return tuple(
            tuple(add(mul(x[i][0], y[0][j]), mul(x[i][1], y[1][j])) for j in (0, 1))
            for i in (0, 1)
        )

    def det(self, x):
        (a, b), (c, d) = x
        return self.add(self.mul(a, d), self.mul(self.minus_one, self.mul(b, c)))

    def scale(self, s, x):
        return tuple(tuple(self.mul(s, v) for v in row) for row in x)

    def inv(self, x):
        (a, b), (c, d) = x
        m = self.minus_one
        return self.scale(
            self.inverse[self.det(x)], ((d, self.mul(m, b)), (self.mul(m, c), a))
        )

    def monic(self, x):
        lead = next(v for row in x for v in row if v != self.zero)
        return self.scale(self.inverse[lead], x)

    def identity(self):
        return ((self.one, self.zero), (self.zero, self.one))


def _code_schoolbook(q):
    if q in BASE_MODULI:
        p, modulus = BASE_MODULI[q]
        f = len(modulus) - 1
        digits = [tuple(c // p**i % p for i in range(f)) for c in range(q)]
        code = {d: c for c, d in enumerate(digits)}

        def add(a, b):
            return code[tuple((x + y) % p for x, y in zip(digits[a], digits[b]))]

        def mul(a, b):
            return code[_schoolbook(p, modulus, digits[a], digits[b])]

    else:

        def add(a, b):
            return (a + b) % q

        def mul(a, b):
            return a * b % q

    return _SchoolbookMatrices(range(q), add, mul, 0, 1)


def _matrices(entries):
    return (((a, b), (c, d)) for a, b, c, d in itertools.product(entries, repeat=4))


def _random_matrix(rng, entries):
    return tuple(tuple(rng.choice(entries) for _ in range(2)) for _ in range(2))


def test_mat_mul_and_row_times_on_every_pair_q3():
    F = build_field(3).base
    ref = _code_schoolbook(3)
    mats = list(_matrices(range(3)))
    for x in mats:
        for y in mats:
            product = ref.mat_mul(x, y)
            assert F.mat_mul(x, y) == product
            assert (F.row_times(x[0], y), F.row_times(x[1], y)) == product


@pytest.mark.parametrize("q", (9, 13))
def test_mat_mul_and_row_times_on_seeded_pairs(q):
    F = build_field(q).base
    ref = _code_schoolbook(q)
    rng = random.Random(q)
    for _ in range(3000):
        x, y = _random_matrix(rng, range(q)), _random_matrix(rng, range(q))
        product = ref.mat_mul(x, y)
        assert F.mat_mul(x, y) == product
        assert (F.row_times(x[0], y), F.row_times(x[1], y)) == product


def _check_det_inv(F, ref, x):
    det = ref.det(x)
    assert F.mat_det(x) == det
    if det == ref.zero:
        with pytest.raises(ZeroDivisionError):
            F.mat_inv(x)
    else:
        inverse = F.mat_inv(x)
        assert inverse == ref.inv(x)
        assert ref.mat_mul(x, inverse) == ref.identity()


def _check_det_inv_monic(F, ref, x):
    # mat_monic is the base field's only: F_{q^2} matrices are never scaled
    _check_det_inv(F, ref, x)
    if x == ((ref.zero, ref.zero), (ref.zero, ref.zero)):
        with pytest.raises(ZeroDivisionError):
            F.mat_monic(x)
    else:
        monic = F.mat_monic(x)
        assert monic == ref.monic(x)
        assert next(v for row in monic for v in row if v != ref.zero) == ref.one


@pytest.mark.parametrize("q", (3, 5, 9))
def test_mat_det_inv_monic_on_every_matrix(q):
    F = build_field(q).base
    ref = _code_schoolbook(q)
    for x in _matrices(range(q)):
        _check_det_inv_monic(F, ref, x)


def test_element_matrix_kernel_q3_level2():
    t = build_field(3)
    E = t.ext
    elements = range(9)

    def add(x, y):
        return _code(t, tuple((a + b) % 3 for a, b in zip(_pair(t, x), _pair(t, y))))

    def mul(x, y):
        return _code(t, _conv_mul(t, 2, _pair(t, x), _pair(t, y)))

    ref = _SchoolbookMatrices(elements, add, mul, 0, 1)
    for x in _matrices(elements):
        _check_det_inv(E, ref, x)
    rng = random.Random(2)
    for _ in range(1000):
        x, y = _random_matrix(rng, elements), _random_matrix(rng, elements)
        assert E.mat_mul(x, y) == ref.mat_mul(x, y)


# F_{q^2} against schoolbook arithmetic on coefficient pairs modulo its
# modulus, with F_q's own operations taken from _code_schoolbook rather than
# from the tables.  The moduli are the least monic irreducible quadratics:
# y^2 + 1 at q = 3 (-1 is a nonsquare mod 3); y^2 + 4y + 1 at q = 9 (no root
# in F_9, checked below); y^2 + 3y + 1 at q = 13 (discriminant 5, a nonsquare
# mod 13).
EXT_MODULI = {3: (1, 0, 1), 9: (1, 4, 1), 13: (1, 3, 1)}


def _pair_schoolbook(q):
    ref = _code_schoolbook(q)
    c0, c1, _ = EXT_MODULI[q]
    neg = lambda a: ref.mul(ref.minus_one, a)
    assert not any(ref.add(ref.mul(y, y), ref.add(ref.mul(c1, y), c0)) == 0 for y in range(q))

    def add(x, y):
        return ref.add(x[0], y[0]), ref.add(x[1], y[1])

    def mul(x, y):
        # (a + b y)(c + d y) with y^2 = -c1 y - c0
        a, b = x
        c, d = y
        bd = ref.mul(b, d)
        lo = ref.add(ref.mul(a, c), neg(ref.mul(bd, c0)))
        hi = ref.add(ref.add(ref.mul(a, d), ref.mul(b, c)), neg(ref.mul(bd, c1)))
        return lo, hi

    return add, mul, neg


@pytest.mark.parametrize("q", sorted(EXT_MODULI))
def test_ext_is_schoolbook_arithmetic(q):
    t = build_field(q)
    E = t.ext
    assert E.modulus == EXT_MODULI[q]
    add, mul, neg = _pair_schoolbook(q)
    if q == 3:
        pairs = list(itertools.product(range(9), repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q * q), rng.randrange(q * q)) for _ in range(3000)]
    for x, y in pairs:
        px, py = _pair(t, x), _pair(t, y)
        assert _pair(t, E.add(x, y)) == add(px, py)
        assert _pair(t, E.sub(x, y)) == add(px, (neg(py[0]), neg(py[1])))
        assert _pair(t, E.neg(x)) == (neg(px[0]), neg(px[1]))
        assert _pair(t, E.mul(x, y)) == mul(px, py)
        if y:
            assert mul(py, _pair(t, E.inv(y))) == (1, 0)
    # the 2x2 kernel over the same reference
    ref = _SchoolbookMatrices(
        range(q * q),
        lambda x, y: _code(t, add(_pair(t, x), _pair(t, y))),
        lambda x, y: _code(t, mul(_pair(t, x), _pair(t, y))),
        0,
        1,
    )
    rng = random.Random(q + 1)
    for _ in range(300):
        x, y = _random_matrix(rng, range(q * q)), _random_matrix(rng, range(q * q))
        assert E.mat_mul(x, y) == ref.mat_mul(x, y)
        _check_det_inv(E, ref, x)
