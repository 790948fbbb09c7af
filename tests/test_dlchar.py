"""Conjugacy tables and cuspidal characters of GL2, tested against the
classical count (q^2 - 1 classes in four families), hand-expanded value
maps at q = 3, literal cyclotomic polynomials, and a complex view of the
exact values that serves as an independent reference."""

import cmath
import math
import random
from collections import Counter

import pytest

from dlcusp import dlchar
from dlcusp.dlchar import (
    ClassFunction,
    ConjugacyTable,
    conjugacy_classes,
    cuspidal_character,
    cyclotomic,
    general_position_exponents,
)
from dlcusp.errors import ConfigError, ConsistencyError
from dlcusp.groups import MatrixGroup


@pytest.mark.parametrize("q", (3, 5, 7, 9))
def test_class_census(q):
    g = MatrixGroup("gl2", q)
    table = conjugacy_classes(g)
    by_kind = {}
    for c in table.classes:
        by_kind.setdefault(c.kind, []).append(c)
    assert len(by_kind["central"]) == q - 1
    assert len(by_kind["unipotent"]) == q - 1
    assert len(by_kind["split"]) == (q - 1) * (q - 2) // 2
    assert len(by_kind["elliptic"]) == (q * q - q) // 2
    assert len(table.classes) == q * q - 1
    assert {c.size for c in by_kind["central"]} == {1}
    assert {c.size for c in by_kind["unipotent"]} == {q * q - 1}
    assert {c.size for c in by_kind["split"]} == {q * q + q}
    assert {c.size for c in by_kind["elliptic"]} == {q * q - q}
    assert sum(c.size for c in table.classes) == g.order


def test_brute_force_cross_check_runs_through_q9(monkeypatch):
    checked = []
    monkeypatch.setattr(
        ConjugacyTable,
        "_cross_check_brute_force",
        lambda table: checked.append(table.group.q),
    )
    for q in (3, 9, 11):
        ConjugacyTable(MatrixGroup("gl2", q))
    assert checked == [3, 9]


@pytest.mark.parametrize("q", (3, 9, 11, 13))
def test_least_root_table_matches_the_scan(q):
    # class_key reads the least square root off a table; it must be the
    # root the scan over 1..q-1 finds, and exactly the squares are keys
    g = MatrixGroup("gl2", q)
    F = g.tower.base
    table = conjugacy_classes(g)
    squares = {F.mul(x, x) for x in range(1, q)}
    assert set(table._least_root) == squares
    for s in squares:
        assert table._least_root[s] == min(x for x in range(1, q) if F.mul(x, x) == s)


@pytest.mark.parametrize("q", (3, 9, 11, 13))
def test_memoized_class_key_matches_the_direct_key(q):
    # class_key reads non-central keys off the (trace, det) table; every
    # element must get the key computed afresh from its own trace and det
    g = MatrixGroup("gl2", q)
    F = g.tower.base
    table = conjugacy_classes(g)
    for x in g.gl2_elements():
        (a, b), (c, d) = x
        if b == c == 0 and a == d:
            expected = ("central", a)
        else:
            expected = table._noncentral_key(F.add(a, d), F.mat_det(x))
        assert table.class_key(x) == expected
    # one entry per (trace, nonzero det) pair
    assert len(table._key_by_trace_det) == q * (q - 1)


def test_table_is_cached():
    g = MatrixGroup("gl2", 3)
    assert conjugacy_classes(g) is conjugacy_classes(g)


def test_table_rejects_product_group():
    with pytest.raises(ConfigError):
        ConjugacyTable(MatrixGroup("gl2_x_gl2", 3))


def test_class_reps_classify_to_their_own_class():
    g = MatrixGroup("gl2", 5)
    table = conjugacy_classes(g)
    for i, c in enumerate(table.classes):
        assert table.class_of(c.rep) == i


def test_class_of_is_conjugation_invariant():
    g = MatrixGroup("gl2", 5)
    table = conjugacy_classes(g)
    els = g.gl2_elements()
    rng = random.Random(13)
    for _ in range(200):
        x, h = rng.choice(els), rng.choice(els)
        conj = g.mul(g.mul(h, x), g.inv(h))
        assert table.class_of(conj) == table.class_of(x)


def test_class_sizes_by_direct_count():
    g = MatrixGroup("gl2", 3)
    table = conjugacy_classes(g)
    counts = [0] * len(table.classes)
    for x in g.gl2_elements():
        counts[table.class_of(x)] += 1
    assert counts == [c.size for c in table.classes]


def test_class_key_errors():
    g = MatrixGroup("gl2", 3)
    table = conjugacy_classes(g)
    with pytest.raises(ConfigError):
        table.class_key(((1, 1), (1, 1)))


def test_general_position_pairs():
    g3 = MatrixGroup("gl2", 3)
    assert general_position_exponents(g3) == ((1, 3), (2, 6), (5, 7))
    g5 = MatrixGroup("gl2", 5)
    pairs5 = general_position_exponents(g5)
    assert len(pairs5) == 10
    assert pairs5[:3] == ((1, 5), (2, 10), (3, 15))
    for k, partner in pairs5:
        assert partner == (5 * k) % 24
        assert k == min(k, partner)
    assert len(general_position_exponents(MatrixGroup("gl2", 7))) == 21


# -- exact sums in Z[zeta_n] ---------------------------------------------------


def _complex(table, m):
    """The complex value of an {exponent: coefficient} map: the reference view."""
    n = table.n_modulus
    return sum(c * cmath.exp(2j * math.pi * (e % n) / n) for e, c in m.items())


def _sum(maps):
    """The {exponent: coefficient} terms of a sum of value maps."""
    acc = Counter()
    for m in maps:
        acc.update(m)
    return acc


# Phi_n for n = q^2 - 1, q = 3, 5, 7, 9, 11, 13, as {degree: coefficient}
CYCLOTOMIC = {
    8: {4: 1, 0: 1},
    24: {8: 1, 4: -1, 0: 1},
    48: {16: 1, 8: -1, 0: 1},
    80: {32: 1, 24: -1, 16: 1, 8: -1, 0: 1},
    120: {32: 1, 28: 1, 20: -1, 16: -1, 12: -1, 4: 1, 0: 1},
    168: {48: 1, 44: 1, 36: -1, 32: -1, 24: 1, 16: -1, 12: -1, 4: 1, 0: 1},
}


@pytest.mark.parametrize("n", sorted(CYCLOTOMIC))
def test_cyclotomic_literal_coefficients(n):
    phi = cyclotomic(n)
    assert {d: c for d, c in enumerate(phi) if c} == CYCLOTOMIC[n]


@pytest.mark.parametrize("q", range(3, 32, 2))
def test_cyclotomic_degree_and_product(q):
    # deg Phi_n = phi(n), and the Phi_d over the divisors d of n multiply to
    # x^n - 1, for every n = q^2 - 1 with odd q <= 31
    n = q * q - 1
    assert len(cyclotomic(n)) - 1 == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    product = [1]
    for d in (d for d in range(1, n + 1) if n % d == 0):
        phi = cyclotomic(d)
        terms = [(j, c) for j, c in enumerate(phi) if c]
        out = [0] * (len(product) + len(phi) - 1)
        for i, a in enumerate(product):
            if a:
                for j, c in terms:
                    out[i + j] += a * c
        product = out
    assert product == [-1] + [0] * (n - 1) + [1]


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_the_table_reduces_modulo_its_cyclotomic_polynomial(q):
    table = conjugacy_classes(MatrixGroup("gl2", q))
    n = table.n_modulus
    assert n == q * q - 1 and table.degree == max(CYCLOTOMIC[n])
    # Phi_n(zeta) = 0, and zeta^n = 1
    assert table.reduce(CYCLOTOMIC[n]) == (0,) * table.degree
    assert table.reduce({n: 1}) == table.reduce({0: 1}) == (1,) + (0,) * (table.degree - 1)


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_a_lone_root_of_unity_is_not_an_integer(q):
    table = conjugacy_classes(MatrixGroup("gl2", q))
    n = table.n_modulus
    assert table.average({n // 2: 3}, 1) == -3  # zeta^(n/2) = -1
    for e in range(1, n):
        if e != n // 2:
            with pytest.raises(ConsistencyError) as err:
                table.average({e: 1}, 1)
            assert any(err.value.detail["reduced_sum"][1:])


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_a_sum_over_a_subgroup_of_prime_order_vanishes(q):
    table = conjugacy_classes(MatrixGroup("gl2", q))
    n = table.n_modulus
    zero = (0,) * table.degree
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
    for p in primes:
        for coset in range(n // p):
            terms = {coset + k * (n // p): 1 for k in range(p)}
            assert table.reduce(terms) == zero
            # one term short of the subgroup, the sum is a unit, not 0
            del terms[coset]
            assert table.reduce(terms) != zero
            assert abs(_complex(table, terms)) > 0.5


@pytest.mark.parametrize("q", (3, 5, 9))
def test_reduction_agrees_with_the_complex_view(q):
    table = conjugacy_classes(MatrixGroup("gl2", q))
    rng = random.Random(q)
    zeta = cmath.exp(2j * math.pi / table.n_modulus)
    for _ in range(50):
        terms = {rng.randrange(3 * table.n_modulus): rng.randint(-5, 5) for _ in range(6)}
        reduced = table.reduce(terms)
        view = sum(c * zeta**j for j, c in enumerate(reduced))
        assert abs(view - _complex(table, terms)) < 1e-9


# -- cuspidal characters ------------------------------------------------------


def test_rejects_frobenius_fixed_exponent():
    g = MatrixGroup("gl2", 3)
    for k in (0, 4):  # the exponents with 3k = k mod 8
        with pytest.raises(ConfigError):
            cuspidal_character(g, k)


def test_value_maps_q3_k1():
    g = MatrixGroup("gl2", 3)
    chi = cuspidal_character(g, 1)
    # 3 = 1 * q mod 8 is the Frobenius partner, and names the same character
    assert cuspidal_character(g, 3).maps == chi.maps
    table = chi.table
    by_key = dict(zip((c.key for c in table.classes), chi.maps))
    assert by_key[("central", 1)] == {0: 2}
    assert by_key[("central", 2)] == {4: 2}  # dlog(-1) = 4, degree 2
    assert by_key[("unipotent", 1)] == {0: -1}
    assert by_key[("unipotent", 2)] == {4: -1}
    assert by_key[("split", (1, 2))] == {}
    assert by_key[("elliptic", 1)] == {1: -1, 3: -1}
    assert by_key[("elliptic", 2)] == {2: -1, 6: -1}
    assert by_key[("elliptic", 5)] == {5: -1, 7: -1}


def test_value_maps_q3_k2_merges_exponents():
    g = MatrixGroup("gl2", 3)
    chi = cuspidal_character(g, 2)
    by_key = dict(zip((c.key for c in chi.table.classes), chi.maps))
    # 2*2 and 2*2*3 agree mod 8, so the two eigenvalue terms merge
    assert by_key[("elliptic", 2)] == {4: -2}
    assert by_key[("central", 2)] == {0: 2}
    rep = next(c.rep for c in chi.table.classes if c.key == ("elliptic", 2))
    assert chi.table.average(chi.value(rep), 1) == 2


def test_degree_and_central_values():
    for q, k in ((3, 1), (5, 7), (7, 2)):
        g = MatrixGroup("gl2", q)
        chi = cuspidal_character(g, k)
        table = chi.table
        assert table.average(chi.value(g.identity()), 1) == q - 1
        n = g.tower.ext.order
        for z in range(1, q):
            expected = (k * g.tower.discrete_log(z)) % n
            got = chi.value(g.scalar(z))
            assert table.reduce(got) == table.reduce({expected: q - 1})
            ref = (q - 1) * cmath.exp(2j * math.pi * expected / n)
            assert abs(_complex(table, got) - ref) < 1e-9


def test_split_classes_vanish():
    g = MatrixGroup("gl2", 5)
    chi = cuspidal_character(g, 3)
    for c in chi.table.classes:
        if c.kind == "split":
            assert chi.value(c.rep) == {}
            assert not any(chi.table.reduce(chi.value(c.rep)))


def test_partner_exponent_same_character():
    g = MatrixGroup("gl2", 3)
    assert cuspidal_character(g, 1).maps == cuspidal_character(g, 3).maps
    g5 = MatrixGroup("gl2", 5)
    assert cuspidal_character(g5, 7).maps == cuspidal_character(g5, 11).maps


def _complex_inner(a, b):
    table = a.table
    acc = sum(
        c.size * _complex(table, v) * _complex(table, w).conjugate()
        for c, v, w in zip(table.classes, a.maps, b.maps)
    )
    return acc / table.group.gl2_order


def test_orthonormality_q3():
    g = MatrixGroup("gl2", 3)
    chis = [cuspidal_character(g, k) for k, _ in general_position_exponents(g)]
    for i, a in enumerate(chis):
        for j, b in enumerate(chis):
            got = a.inner(b)
            assert got == (1 if i == j else 0)
            assert abs(_complex_inner(a, b) - got) < 1e-9


def test_orthogonality_sample_q7():
    g = MatrixGroup("gl2", 7)
    a = cuspidal_character(g, 2)
    b = cuspidal_character(g, 5)
    assert a.inner(b) == 0
    assert a.inner(a) == 1
    assert abs(_complex_inner(a, b)) < 1e-9
    assert abs(_complex_inner(a, a) - 1) < 1e-9


def test_inner_requires_same_table():
    a = cuspidal_character(MatrixGroup("gl2", 3), 1)
    b = cuspidal_character(MatrixGroup("gl2", 3), 1)
    with pytest.raises(ConfigError):
        a.inner(b)


def test_class_function_validation():
    g = MatrixGroup("gl2", 3)
    table = conjugacy_classes(g)
    with pytest.raises(ConfigError):
        ClassFunction(table, [{} for _ in range(3)])


def test_constant_function_inner():
    g = MatrixGroup("gl2", 3)
    table = conjugacy_classes(g)
    one = ClassFunction(table, [{0: 1} for _ in table.classes])
    assert one.inner(one) == 1


def test_inner_refuses_a_non_integral_product():
    # the indicator of the identity has inner product 1 / |G| with itself
    table = conjugacy_classes(MatrixGroup("gl2", 3))
    delta = ClassFunction(
        table, [{0: 1} if c.key == ("central", 1) else {} for c in table.classes]
    )
    with pytest.raises(ConsistencyError, match="not an integer multiple of 48"):
        delta.inner(delta)


def test_unipotent_column_sums_vanish():
    # the defining cuspidality property, checked here at one group element
    g = MatrixGroup("gl2", 5)
    chi = cuspidal_character(g, 2)
    x = ((2, 1), (1, 1))
    values = [chi.value(g.mul(x, ((1, b), (0, 1)))) for b in range(5)]
    assert not any(chi.table.reduce(_sum(values)))
    assert abs(sum(_complex(chi.table, v) for v in values)) < 1e-9


# -- the cuspidal certificate, one sum per coset type ---------------------------


def _u(b):
    return ((1, b), (0, 1))


def _coset_key(F, x):
    """The representative of the type of the coset x N that _coset_type_sums uses."""
    (a, _), (c, d) = x
    if c != 0:
        return ((0, F.neg(F.mat_det(x))), (1, 0))
    return ((min(a, d), 0), (0, max(a, d)))


@pytest.mark.parametrize("q", (3, 5, 9))
def test_coset_keys_name_the_sets_g_u_b(q):
    # the classes met along x u_b are the ones the coset type prescribes,
    # and the ones met along rep u_b for the type's representative rep
    g = MatrixGroup("gl2", q)
    F = g.tower.base
    table = conjugacy_classes(g)

    def met(y):
        return Counter(table.class_key(g.mul(y, _u(b))) for b in range(q))

    for x in g.gl2_elements():
        (a, _), (c, d) = x
        det = F.mat_det(x)
        if c != 0:
            expected = Counter(table._noncentral_key(tr, det) for tr in range(q))
        elif a != d:
            expected = Counter({("split", (min(a, d), max(a, d))): q})
        else:
            expected = Counter({("central", a): 1, ("unipotent", a): q - 1})
        assert met(x) == expected == met(_coset_key(F, x))


@pytest.mark.parametrize("q", (3, 5, 9))
def test_coset_sums_are_the_per_element_sums(q):
    # a class function with random values, so the sums do not all vanish
    g = MatrixGroup("gl2", q)
    F = g.tower.base
    table = conjugacy_classes(g)
    rng = random.Random(q)
    f = ClassFunction(
        table,
        [{rng.randrange(table.n_modulus): rng.randint(-3, 3)} for _ in table.classes],
    )
    sums = dlchar._coset_type_sums(f)
    assert any(any(table.reduce(v)) for v in sums.values())
    for x in g.gl2_elements():
        per_g = _sum(f.value(g.mul(x, _u(b))) for b in range(q))
        assert table.reduce(per_g) == table.reduce(sums[_coset_key(F, x)])


def test_perturbed_character_fails_the_coset_check(monkeypatch):
    # negating the value on the class of u_1 keeps the norm and the degree,
    # and breaks the sum over N itself: chi(1) + (q - 1) chi(u_1) = 2 (q - 1)
    g = MatrixGroup("gl2", 5)
    value_maps = dlchar._value_maps

    def perturbed(table, k):
        maps = value_maps(table, k)
        i = table.index[("unipotent", 1)]
        maps[i] = {e: -c for e, c in maps[i].items()}
        return maps

    monkeypatch.setattr(dlchar, "_value_maps", perturbed)
    with pytest.raises(ConsistencyError, match="unipotent-averaged sum") as err:
        cuspidal_character(g, 2)
    rep = err.value.detail["representative"]
    # the failure replays from its representative alone
    table = conjugacy_classes(g)
    chi = ClassFunction(table, perturbed(table, 2))
    values = [chi.value(g.mul(rep, _u(b))) for b in range(5)]
    assert table.reduce(_sum(values)) == err.value.detail["reduced_sum"]
    assert abs(sum(_complex(table, v) for v in values)) > 1


@pytest.mark.parametrize("delta", (1, -1))
def test_one_coefficient_off_fails_the_coset_check(delta, monkeypatch):
    # every coset-type sum of a certified character vanishes exactly; moving
    # one coefficient of one of them by +-1 must be caught at that sum
    g = MatrixGroup("gl2", 5)
    sums = dlchar._coset_type_sums
    for rep in sums(cuspidal_character(g, 2)):

        def off_by_one(f, rep=rep):
            out = sums(f)
            e = min(out[rep], default=0)
            out[rep][e] = out[rep].get(e, 0) + delta
            return out

        with monkeypatch.context() as m:
            m.setattr(dlchar, "_coset_type_sums", off_by_one)
            with pytest.raises(ConsistencyError, match="unipotent-averaged sum") as err:
                cuspidal_character(g, 2)
        assert err.value.detail["representative"] == rep


@pytest.mark.parametrize("q", (5, 11))
def test_cuspidal_character_never_enumerates_gl2(q, monkeypatch):
    # the table is built first: at q <= BRUTE_FORCE_Q its cross-check enumerates
    g = MatrixGroup("gl2", q)
    conjugacy_classes(g)

    def refuse(self):
        raise AssertionError("GL2 enumerated")

    monkeypatch.setattr(MatrixGroup, "gl2_elements", refuse)
    chi = cuspidal_character(g, 2)
    assert chi.table.average(chi.value(((1, 0), (0, 1))), 1) == q - 1
