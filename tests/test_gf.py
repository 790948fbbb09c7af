"""Field tower tests against independently derived constants.

The moduli and generator facts asserted here were computed by hand from the
canonical construction (lexicographically least monic irreducible, least
generator in coefficient order) before the implementation existed.
"""

import itertools
import random

import pytest

from dlcusp.dlchar import cuspidal_character
from dlcusp.errors import ConfigError
from dlcusp.gf import FieldElement, build_field
from dlcusp.groups import MatrixGroup, elliptic_torus
from dlcusp.multiplicity import _log_lambda


def _elements(t, level):
    """All elements of a level, in lexicographic coefficient order."""
    return [FieldElement(t, level, c) for c in itertools.product(range(t.q), repeat=level)]


def _units(t, level):
    return [x for x in _elements(t, level) if not x.is_zero()]


def test_rejects_bad_orders():
    for q in (4, 6, 8, 12, 1, 0, -3):
        with pytest.raises(ValueError):
            build_field(q, degrees=(1, 2))


def test_prime_power_base_field():
    t = build_field(9, degrees=(1,))
    # base F_9 = F_3[y]/(y^2 + 1), codes are base-3 digit strings
    assert t.p == 3 and t.f == 2 and t.q == 9
    assert t.base.mul(3, 3) == 2  # y * y = -1
    assert t.smallest_nonsquare() == 4


# level-2 modulus, generator, and generator order for each acceptance field
FROZEN = {
    3: {"modulus": (1, 0, 1), "generator": (1, 1), "order": 8, "nonsquare": 2},
    5: {"modulus": (1, 1, 1), "generator": (1, 3), "order": 24, "nonsquare": 2},
    7: {"modulus": (1, 0, 1), "generator": (1, 2), "order": 48, "nonsquare": 3},
}


@pytest.mark.parametrize("q", sorted(FROZEN))
def test_frozen_tower_constants(q):
    t = build_field(q, degrees=(1, 2))
    facts = FROZEN[q]
    assert t._lv(2).modulus == facts["modulus"]
    assert t.generator(2).coeffs == facts["generator"]
    assert t.order(2) == facts["order"]
    assert t.smallest_nonsquare() == facts["nonsquare"]
    assert t.order(1) == q - 1


def test_frozen_generator_powers_q3():
    t = build_field(3, degrees=(1, 2))
    g = FieldElement(t, 2, (1, 1))
    assert (g ** 4).coeffs == (2, 0)  # (1+y)^4 = -1
    assert (g ** 8).coeffs == (1, 0)


def test_frozen_generator_powers_q5():
    t = build_field(5, degrees=(1, 2))
    g = t.generator(2)
    assert (g ** 12).coeffs == (4, 0)  # the half-order power is -1


def test_frozen_generator_powers_q7():
    t = build_field(7, degrees=(1, 2))
    g = t.generator(2)
    assert (g ** 8).coeffs == (5, 0)
    assert (g ** 16).coeffs == (4, 0)
    assert (g ** 24).coeffs == (6, 0)


@pytest.mark.parametrize("q", (3, 5, 7))
def test_element_counts_and_orders(q):
    t = build_field(q, degrees=(1, 2))
    for level in (1, 2):
        lv = t._lv(level)
        # the generator's powers are the q^d - 1 units, zero not among them
        assert t.order(level) == q**level - 1
        assert len(set(lv.powers)) == len(lv.log) == t.order(level)
        assert lv.zero not in lv.log


def test_discrete_log_roundtrip_exhaustive():
    for q in (3, 5):
        t = build_field(q, degrees=(1, 2))
        g = t.generator(2)
        n = t.order(2)
        seen = set()
        for x in _units(t, 2):
            k = t.discrete_log(x)
            assert 0 <= k < n
            assert g ** k == x
            seen.add(k)
        assert seen == set(range(n))
        assert t.discrete_log(g) == 1
        assert t.discrete_log(t.one(2)) == 0


def test_discrete_log_of_zero_rejected():
    t = build_field(3, degrees=(1, 2))
    with pytest.raises(ValueError):
        t.discrete_log(t.zero(2))


def test_frobenius_is_dlog_multiplication():
    t = build_field(3, degrees=(1, 2))
    n = t.order(2)
    for x in _units(t, 2):
        assert t.discrete_log(x**t.q) == (3 * t.discrete_log(x)) % n
    assert (t.zero(2) ** t.q).is_zero()


def test_frobenius_orbit_pairs_q3():
    # unit exponent pairs {k, 3k mod 8} that are not Frobenius fixed
    t = build_field(3, degrees=(1, 2))
    pairs = set()
    for k in range(8):
        if (3 * k) % 8 != k:
            pairs.add(frozenset({k, (3 * k) % 8}))
    assert pairs == {frozenset({1, 3}), frozenset({2, 6}), frozenset({5, 7})}
    del t


def test_field_axioms_exhaustive_pairs_q3():
    t = build_field(3, degrees=(1, 2))
    xs = _elements(t, 2)
    one, zero = t.one(2), t.zero(2)
    for x in xs:
        assert x + zero == x
        assert x * one == x
        assert x - x == zero
        assert (-x) + x == zero
        if not x.is_zero():
            assert x * x.inverse() == one
            assert (one / x) * x == one
    for x in xs:
        for y in xs:
            assert x + y == y + x
            assert x * y == y * x


def test_field_axioms_sampled_triples():
    t = build_field(5, degrees=(1, 2))
    xs = _elements(t, 2)
    rng = random.Random(7)
    for _ in range(500):
        x, y, z = (rng.choice(xs) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_pow_matches_repeated_multiplication():
    t = build_field(7, degrees=(1, 2))
    g = t.generator(2)
    acc = t.one(2)
    for k in range(20):
        assert g ** k == acc
        acc = acc * g
    assert g ** (-1) == g.inverse()


def test_cross_level_arithmetic_rejected():
    t = build_field(3, degrees=(1, 2))
    with pytest.raises(ValueError):
        FieldElement(t, 1, (1,)) + FieldElement(t, 2, (1, 0))


def test_cross_tower_arithmetic_rejected():
    a = build_field(3, degrees=(1, 2))
    b = build_field(3, degrees=(1, 2))
    with pytest.raises(ValueError):
        a.one(2) + b.one(2)


def test_embed_is_a_field_hom():
    t = build_field(3, degrees=(1, 2))
    for a in range(3):
        for b in range(3):
            ea = t.embed(a, 2)
            eb = t.embed(b, 2)
            assert ea + eb == t.embed(t.base.add(a, b), 2)
            assert ea * eb == t.embed(t.base.mul(a, b), 2)
    assert t.embed(2, 2) == FieldElement(t, 2, (2, 0))


def test_scalar_reduces_mod_p():
    t = build_field(5, degrees=(1, 2))
    assert t.scalar(2, 7) == t.embed(2, 2)
    assert t.scalar(2, -1) == t.embed(4, 2)


# Slow references for the table arithmetic: the convolution product modulo the
# level's modulus, and square-and-multiply on top of it.


def _conv_mul(t, level, xs, ys):
    F = t.base
    m = t._lv(level).modulus
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


@pytest.mark.parametrize("q,level", ((3, 2), (3, 4), (5, 2), (9, 2)))
def test_table_arithmetic_matches_convolution(q, level):
    t = build_field(q, degrees=(1, level))
    lv = t._lv(level)
    xs = [x.coeffs for x in _elements(t, level)]
    zero, one = xs[0], (1,) + (0,) * (level - 1)
    for x in xs:
        for y in xs:
            assert lv.mul(x, y) == _conv_mul(t, level, x, y)
    n = t.order(level)
    for x in xs[1:]:
        inv = lv.inv(x)
        assert inv == _ref_pow(t, level, x, n - 1)
        assert _conv_mul(t, level, x, inv) == one
        for k in range(n + 2):
            assert lv.pow(x, k) == _ref_pow(t, level, x, k)
        assert lv.pow(x, -3) == _ref_pow(t, level, inv, 3)
    assert lv.pow(zero, 0) == one
    assert lv.pow(zero, 5) == zero
    with pytest.raises(ZeroDivisionError):
        lv.inv(zero)
    with pytest.raises(ZeroDivisionError):
        lv.pow(zero, -1)
    stray = (q,) + (0,) * (level - 1)  # a code out of range: neither zero nor a unit
    for bad in (lambda: lv.mul(stray, one), lambda: lv.mul(one, stray),
                lambda: lv.inv(stray), lambda: lv.pow(stray, 2)):
        with pytest.raises(ValueError):
            bad()


def test_sqrt_on_all_squares():
    for q in (3, 5, 7, 9, 11, 13):
        t = build_field(q, degrees=(1, 2))
        for level in (1, 2):
            roots = {}
            for y in _units(t, level):
                roots.setdefault(_conv_mul(t, level, y.coeffs, y.coeffs), []).append(y.coeffs)
            for x in _units(t, level):
                if x.coeffs in roots:
                    assert t.sqrt(x).coeffs == min(roots[x.coeffs])
                else:
                    with pytest.raises(ValueError):
                        t.sqrt(x)
            assert len(roots) == t.order(level) // 2
            assert t.sqrt(t.zero(level)).is_zero()


@pytest.mark.parametrize("q", (3, 9))
def test_dot_is_two_products_and_a_sum(q):
    t = build_field(q, degrees=(1, 2))
    levels = (1, 2) if q == 3 else (1,)
    for F, xs in [(t.base, range(q))] + [(t.element_ops(d), _elements(t, d)) for d in levels]:
        for a, b, c, d in itertools.product(xs, repeat=4):
            assert F.dot(a, b, c, d) == F.add(F.mul(a, b), F.mul(c, d))


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
    t = build_field(q, degrees=(1,))
    assert t.base.modulus == modulus
    digits = [tuple(c // p**i % p for i in range(f)) for c in range(q)]
    code = {d: c for c, d in enumerate(digits)}
    for a, xs in enumerate(digits):
        for b, ys in enumerate(digits):
            assert t.base.add(a, b) == code[tuple((x + y) % p for x, y in zip(xs, ys))]
            assert t.base.mul(a, b) == code[_schoolbook(p, modulus, xs, ys)]


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_base_generator_is_the_least_primitive_code(q):
    t = build_field(q, degrees=(1, 2))

    def order(c):
        x, k = c, 1
        while x != 1:
            x, k = t.base.mul(x, c), k + 1
        return k

    assert t.generator(1).coeffs == (next(c for c in range(1, q) if order(c) == q - 1),)


def test_base_arithmetic_q9():
    t = build_field(9, degrees=(1, 2))
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
    n = g.tower.order(2)
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
    a = build_field(7, degrees=(1, 2))
    b = build_field(7, degrees=(1, 2))
    assert a._lv(2).modulus == b._lv(2).modulus
    assert a.generator(2).coeffs == b.generator(2).coeffs
    assert a._lv(2).powers == b._lv(2).powers
