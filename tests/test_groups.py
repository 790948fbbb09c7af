"""Matrix group, torus, involution, and orbit machinery tests.

Census sizes and orbit shapes asserted here were derived by hand first:
conjugating an inner involution tracks its witness modulo center, so the
orbit sizes are index computations in GL2, and the outer censuses count
symmetric witnesses with square determinant modulo scaling.
"""

import itertools
import random

import pytest

from dlcusp import groups
from dlcusp.errors import ConfigError, ConsistencyError, ResourceBoundError
from dlcusp.groups import (
    Involution,
    LieFixedSpace,
    MatrixGroup,
    TorusEmbedding,
    derived_theta_star,
    elliptic_torus,
    involution_orbit,
    lie_fixed_det,
    named_involution,
    phi_theta_certified,
    stabilizer_data,
)
from dlcusp.linalg import fq_rref
from dlcusp.multiplicity import _log_lambda, orbit_entries, verify_theorem

# ---------------------------------------------------------------------------
# groups


def _is_central(g, x):
    return all(map(groups._m_is_scalar, g.split(x)))


def _elements(g):
    """All elements of g, lexicographic on entries."""
    return tuple(
        map(g.join, itertools.product(g.factor.gl2_elements(), repeat=g.n_factors))
    )


def _det(g, m):
    """The determinant code of a gl2 matrix."""
    return g.tower.base.mat_det(m)


def test_group_orders():
    assert MatrixGroup("gl2", 3).order == 48
    assert MatrixGroup("gl2", 5).order == 480
    assert MatrixGroup("gl2", 7).order == 2016
    assert MatrixGroup("gl2_x_gl2", 3).order == 48 * 48


def test_group_validation():
    with pytest.raises(ConfigError):
        MatrixGroup("so5", 3)
    with pytest.raises(ConfigError):
        MatrixGroup("gl2", 4)
    with pytest.raises(ResourceBoundError) as e:
        MatrixGroup("gl2", 17)
    assert e.value.required == (17**2 - 1) * (17**2 - 17)
    with pytest.raises(ResourceBoundError):
        MatrixGroup("gl2_x_gl2", 11)


def test_oversized_q_refused_before_the_field_tower(monkeypatch):
    # the tables grow as q^2, so the bound is checked before any is built;
    # q that is no odd prime power is still a configuration error
    def refuse(*args):
        raise AssertionError("the field tower was built")

    monkeypatch.setattr(groups, "build_field", refuse)
    with pytest.raises(ResourceBoundError) as e:
        MatrixGroup("gl2", 17)
    assert e.value.required == 78336
    for q in (4, 15, 16):
        with pytest.raises(ConfigError):
            MatrixGroup("gl2", q)


def test_enumeration_is_lex_and_complete():
    g = MatrixGroup("gl2", 3)
    els = _elements(g)
    assert len(els) == 48
    assert len(set(els)) == 48
    assert list(els) == sorted(els)
    assert all(g.contains(x) for x in els)
    assert g.identity() in set(els)


def test_group_arithmetic_exhaustive_q3():
    g = MatrixGroup("gl2", 3)
    els = _elements(g)
    ident = g.identity()
    for x in els:
        assert g.mul(x, g.inv(x)) == ident
    rng = random.Random(2)
    for _ in range(300):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
        assert _det(g, g.mul(x, y)) == g.tower.base.mul(_det(g, x), _det(g, y))


def test_generators_generate():
    for kind, q, order in (("gl2", 3, 48), ("gl2", 5, 480), ("gl2_x_gl2", 3, 2304)):
        g = MatrixGroup(kind, q)
        gens = g.generators()
        seen = {g.identity()}
        frontier = [g.identity()]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = g.mul(x, s)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(seen) == order


def test_center():
    g = MatrixGroup("gl2", 5)
    z = g.center()
    assert len(z) == 4
    assert all(_is_central(g, x) for x in z)
    assert not _is_central(g, ((1, 1), (0, 1)))
    prod = MatrixGroup("gl2_x_gl2", 3)
    assert len(prod.center()) == 4


def test_product_elements_and_membership():
    g = MatrixGroup("gl2_x_gl2", 3)
    els = _elements(g)
    assert len(els) == 2304
    assert g.contains(els[17])
    assert not g.contains(els[17][0])


# ---------------------------------------------------------------------------
# tori


@pytest.mark.parametrize("q", (3, 5, 7))
def test_torus_element_counts(q):
    g = MatrixGroup("gl2", q)
    assert len(TorusEmbedding(g, "split").elements) == (q - 1) ** 2
    assert len(elliptic_torus(g).elements) == q * q - 1


def test_product_torus():
    g = MatrixGroup("gl2_x_gl2", 3)
    t = elliptic_torus(g)
    assert len(t.elements) == 64
    assert t.coord_count == 4
    with pytest.raises(ConfigError):
        TorusEmbedding(g, "split")


def test_unknown_torus_kind_is_refused():
    with pytest.raises(ConfigError, match="unknown torus kind"):
        TorusEmbedding(MatrixGroup("gl2", 3), "anisotropic")


def test_elliptic_coords_are_eigenvalues():
    g = MatrixGroup("gl2", 5)
    t = elliptic_torus(g)
    tw = g.tower
    E = tw.ext
    n = E.order
    for x in t.elements:
        k1, k2 = t.eigenvalue_logs(x)
        assert k2 == (5 * k1) % n  # the log pair of (eigenvalue, Frobenius image)
        # the characteristic polynomial of x vanishes at both; the trace and
        # determinant are F_q codes, hence F_{q^2} codes as they stand
        tr = tw.base.add(x[0][0], x[1][1])
        for k in (k1, k2):
            u = E.powers[k]
            assert E.add(E.sub(E.mul(u, u), E.mul(tr, u)), _det(g, x)) == E.zero
        # the diagonalization over F_{q^2} reads the stored pair back
        assert t.ext_logs(x) == (k1, k2)
        assert t.ext_point((k1, k2)) == x


def test_split_coords():
    g = MatrixGroup("gl2", 3)
    t = TorusEmbedding(g, "split")
    x = ((2, 0), (0, 1))
    log = g.tower.discrete_log
    assert t.eigenvalue_logs(x) == (log(2), log(1)) == (4, 0)
    assert t.ext_logs(x) == (4, 0)


@pytest.mark.parametrize(
    "q, generator, generator_logs, antidiag_logs",
    ((3, ((1, 2), (1, 1)), (1, 3), (6, 2)), (9, ((5, 5), (3, 5)), (1, 9), (15, 55))),
)
def test_elliptic_log_pairs_are_pinned(q, generator, generator_logs, antidiag_logs):
    # no report sees the coordinate convention: delta -> -delta, or the
    # eigenbasis columns swapped, only swaps each point's pair (u, u^q), so
    # these values, printed by the code before the eigenbasis, pin it
    g = MatrixGroup("gl2", q)
    t = elliptic_torus(g)
    eps = g.tower.smallest_nonsquare()
    assert t.generators == (generator,)
    assert t.eigenvalue_logs(generator) == generator_logs
    assert t.eigenvalue_logs(((0, eps), (1, 0))) == antidiag_logs


def test_split_log_pair_is_pinned():
    g = MatrixGroup("gl2", 9)
    t = TorusEmbedding(g, "split")
    eps = g.tower.smallest_nonsquare()
    assert t.eigenvalue_logs(((eps, 0), (0, 1))) == (30, 0)


def test_torus_membership_map_is_group_closed():
    g = MatrixGroup("gl2", 3)
    for t in (TorusEmbedding(g, "split"), elliptic_torus(g)):
        for x in t.elements:
            for y in t.elements:
                assert t.contains(g.mul(x, y))


def test_root_value_against_log_coords():
    # a root's value at t is the generator to the power <a, l(t)> mod q^2 - 1:
    # checked against the product of powers of the eigenvalues of t, read
    # off the diagonal of P^-1 t P
    g = MatrixGroup("gl2", 3)
    E = g.tower.ext
    for t in (TorusEmbedding(g, "split"), elliptic_torus(g)):
        P, P_inv = t._basis
        for x in t.elements:
            (u, _), (_, v) = E.mat_mul(E.mat_mul(P_inv, x), P)
            logs = t.eigenvalue_logs(x)
            for a in t.datum.roots:
                value = E.mul(E.pow(u, a[0]), E.pow(v, a[1]))
                assert value == E.powers[(a[0] * logs[0] + a[1] * logs[1]) % E.order]


def test_extension_points_restrict_to_rational_points():
    # at q = 9 the nonsquare has code 4 >= p, so a point built by scaling
    # with the bare code (the integer 4 * 1 = 1) would leave the torus
    for q in (3, 5, 9):
        g = MatrixGroup("gl2", q)
        t = elliptic_torus(g)
        n = g.tower.ext.order
        rational = set(t.elements)  # F_q codes are F_{q^2} codes
        # the Frobenius-linked log pairs (k, q k) give the F_q points, and
        # no other pair does
        frob_linked = {t.ext_point((k, k * q % n)) for k in range(n)}
        assert len(frob_linked) == n
        assert frob_linked == rational
        assert not any(
            t.ext_point((k, j)) in rational
            for k in range(n)
            for j in range(n)
            if j != k * q % n
        )


@pytest.mark.parametrize("kind", ("split", "elliptic"))
def test_ext_logs_inverts_ext_point(kind):
    g = MatrixGroup("gl2", 3)
    t = TorusEmbedding(g, kind)
    n = g.tower.ext.order
    for logs in itertools.product(range(n), repeat=2):
        assert t.ext_logs(t.ext_point(logs)) == logs
    # a matrix off the torus is not diagonal in its eigenbasis
    with pytest.raises(ConsistencyError, match="not in the"):
        t.ext_logs(((1, 1), (0, 1)))


def test_torus_points_that_are_not_rational_raise(monkeypatch):
    # an eigenvalue pair (u, v) with v != u^q gives an elliptic point over
    # F_{q^2} only, which the build refuses
    torus_shape = groups._torus_shape

    def off_frobenius(tower, kind):
        shape = torus_shape(tower, kind)
        return shape._replace(pairs=((tower.ext.generator, 1),) + shape.pairs)

    monkeypatch.setattr(groups, "_torus_shape", off_frobenius)
    with pytest.raises(ConsistencyError, match="not F_q-rational"):
        elliptic_torus(MatrixGroup("gl2", 3))


def test_torus_point_count_is_checked(monkeypatch):
    torus_shape = groups._torus_shape
    monkeypatch.setattr(
        groups,
        "_torus_shape",
        lambda tower, kind: torus_shape(tower, kind)._replace(order=7),
    )
    with pytest.raises(ConsistencyError, match="points, not 7"):
        TorusEmbedding(MatrixGroup("gl2", 3), "split")


# ---------------------------------------------------------------------------
# torus characters


def test_torus_character_hom_exhaustive():
    g = MatrixGroup("gl2_x_gl2", 3)
    t = elliptic_torus(g)
    n = g.tower.ext.order
    log = lambda x: _log_lambda(t, (3, 5), x)
    for x in t.elements:
        for y in t.elements:
            assert log(g.mul(x, y)) == (log(x) + log(y)) % n


def test_general_position_on_torus_characters():
    # each factor's exponent must be in general position; 0 and 4 are
    # Frobenius-fixed mod 8
    prod = MatrixGroup("gl2_x_gl2", 3)
    for exponents in ((1, 4), (4, 1), (0, 2)):
        with pytest.raises(ConfigError):
            verify_theorem(prod, "swap", exponents)


def test_character_exponent_count_checked():
    g = MatrixGroup("gl2", 3)
    with pytest.raises(ConfigError):
        verify_theorem(g, "diag", (1, 2, 3))


def test_frobenius_partner_same_values_on_rational_points():
    g = MatrixGroup("gl2", 5)
    t = elliptic_torus(g)
    # the partner 7 q is the composite with Frobenius, a relabeling of T(F_q)
    values = sorted(_log_lambda(t, (7,), x) for x in t.elements)
    assert values == sorted(_log_lambda(t, (7 * 5,), x) for x in t.elements)


# ---------------------------------------------------------------------------
# involutions


def test_named_involution_witnesses():
    g = MatrixGroup("gl2", 7)
    assert named_involution(g, "diag").witness == ((1, 0), (0, 6))
    assert named_involution(g, "antidiag").witness == ((0, 1), (1, 0))
    th = named_involution(g, "transpose-inverse")
    assert th.kind == "outer" and th.witness == ((1, 0), (0, 1))
    with pytest.raises(ConfigError):
        named_involution(g, "unknown-seed")
    with pytest.raises(ConfigError):
        named_involution(g, "swap")  # needs the product group


def test_involution_validation():
    g = MatrixGroup("gl2", 3)
    with pytest.raises(ConfigError):  # central witness gives the identity map
        Involution(g, "inner", ((1, 0), (0, 1)))
    with pytest.raises(ConfigError):  # square not central
        Involution(g, "inner", ((1, 1), (0, 1)))
    with pytest.raises(ConfigError):  # outer witness must be +-symmetric
        Involution(g, "outer", ((1, 1), (0, 1)))
    with pytest.raises(ConfigError):
        Involution(g, "mystery", ((1, 0), (0, 1)))
    with pytest.raises(ConfigError, match="witness pair"):  # no pair at all
        Involution(MatrixGroup("gl2_x_gl2", 3), "inner", 7)


@pytest.mark.parametrize(
    "q,witness",
    (
        (9, ((0, 1), (-1, 0))),  # F_9's -1 is code 2; -1 is no code at all
        (5, ((0, 7), (1, 0))),  # a code past q
        (5, ((0, 1), (1, 0.0))),  # a float is no code
    ),
)
def test_witness_must_hold_field_codes(monkeypatch, q, witness):
    # every kind refuses it with a ConfigError, before any table lookup
    monkeypatch.setitem(groups.Q_BOUND, "gl2_x_gl2", 9)
    g, prod = MatrixGroup("gl2", q), MatrixGroup("gl2_x_gl2", q)
    for kind in ("inner", "outer"):
        for group, w in ((g, witness), (prod, (witness, witness))):
            with pytest.raises(ConfigError, match="F_q codes"):
                Involution(group, kind, w)
    with pytest.raises(ConfigError, match="F_q codes"):
        Involution(prod, "swap", witness)


def test_witness_with_the_code_of_minus_one_is_accepted():
    g = MatrixGroup("gl2", 9)
    minus_one = g.tower.base.neg(1)
    assert minus_one == 2
    for kind in ("inner", "outer"):
        assert Involution(g, kind, ((0, 1), (minus_one, 0))).witness == ((0, 1), (2, 0))


def test_witness_scaling_identified():
    g = MatrixGroup("gl2", 5)
    a = Involution(g, "inner", ((1, 0), (0, 4)))
    b = Involution(g, "inner", ((2, 0), (0, 3)))  # 2 * diag(1, 4)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_involution_is_an_automorphism_exhaustive():
    g = MatrixGroup("gl2", 3)
    th = named_involution(g, "diag")
    tinv = named_involution(g, "transpose-inverse")
    els = _elements(g)
    for x in els:
        assert th.apply(th.apply(x)) == x
        assert tinv.apply(tinv.apply(x)) == x
    rng = random.Random(9)
    for _ in range(400):
        x, y = rng.choice(els), rng.choice(els)
        assert th.apply(g.mul(x, y)) == g.mul(th.apply(x), th.apply(y))
        assert tinv.apply(g.mul(x, y)) == g.mul(tinv.apply(x), tinv.apply(y))


def test_swap_involution_exchanges_factors():
    g = MatrixGroup("gl2_x_gl2", 3)
    th = named_involution(g, "swap")
    x = (((1, 1), (0, 1)), ((1, 0), (1, 1)))
    assert th.apply(x) == (x[1], x[0])
    assert th.apply(th.apply(x)) == x
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.choice(_elements(g)), rng.choice(_elements(g))
        assert th.apply(g.mul(a, b)) == g.mul(th.apply(a), th.apply(b))


def test_conjugation_is_an_action():
    g = MatrixGroup("gl2", 3)
    th = named_involution(g, "antidiag")
    els = _elements(g)
    rng = random.Random(4)
    for _ in range(100):
        x, y = rng.choice(els), rng.choice(els)
        assert th.conjugated(g.mul(x, y)) == th.conjugated(y).conjugated(x)
    ident = g.identity()
    assert th.conjugated(ident) == th


def test_conjugated_matches_composition():
    # Int(g) o theta o Int(g)^-1 pointwise, for every group element
    g = MatrixGroup("gl2", 3)
    for seed in ("diag", "transpose-inverse"):
        th = named_involution(g, seed)
        for x in _elements(g)[:12]:
            conj = th.conjugated(x)
            xi = g.inv(x)
            for y in _elements(g):
                assert conj.apply(y) == g.mul(
                    x, g.mul(th.apply(g.mul(xi, g.mul(y, x))), xi)
                )


def test_apply_ext_extends_apply():
    g = MatrixGroup("gl2", 3)
    for seed in ("diag", "antidiag", "transpose-inverse"):
        th = named_involution(g, seed)
        # an F_q matrix is an F_{q^2} matrix with the same codes
        for m in _elements(g)[:20]:
            assert th.apply_ext(m) == th.apply(m)


def test_stabilizes():
    g = MatrixGroup("gl2", 5)
    ts, te = TorusEmbedding(g, "split"), elliptic_torus(g)
    assert named_involution(g, "diag").stabilizes(ts)
    assert named_involution(g, "antidiag").stabilizes(ts)
    assert named_involution(g, "transpose-inverse").stabilizes(ts)
    assert not named_involution(g, "transpose-inverse").stabilizes(te)


# ---------------------------------------------------------------------------
# censuses

# (q, seed) -> orbit size of the involution under all of G
CENSUS_SIZES = {
    (3, "diag"): 6,
    (3, "antidiag"): 6,
    (3, "transpose-inverse"): 3,
    (5, "diag"): 15,
    (5, "antidiag"): 15,
    (5, "transpose-inverse"): 15,
    (7, "diag"): 28,
    (7, "antidiag"): 28,
    (7, "transpose-inverse"): 21,
}


@pytest.mark.parametrize("q", (3, 5, 7))
def test_census_sizes(q):
    g = MatrixGroup("gl2", q)
    t = TorusEmbedding(g, "split")
    for seed in ("diag", "antidiag", "transpose-inverse"):
        census = involution_orbit(named_involution(g, seed), t)
        assert len(census.all_members) == CENSUS_SIZES[(q, seed)]
        # the torus orbits partition the census
        scattered = [th for orbit in census.t_orbits for th in orbit.members]
        assert sorted(scattered, key=lambda x: x._key) == list(census.all_members)
        for orbit in census.t_orbits:
            assert orbit.representative == orbit.members[0]


def test_diag_and_antidiag_share_a_census():
    g = MatrixGroup("gl2", 5)
    t = TorusEmbedding(g, "split")
    a = involution_orbit(named_involution(g, "diag"), t)
    b = involution_orbit(named_involution(g, "antidiag"), t)
    assert set(a.all_members) == set(b.all_members)


# (q, seed, torus kind) -> sorted (size, stable) pairs
ORBIT_SHAPES = {
    (3, "diag", "split"): [(1, True), (1, True), (2, False), (2, False)],
    (3, "diag", "elliptic"): [(2, True), (4, False)],
    (3, "transpose-inverse", "split"): [(1, True), (2, False)],
    (3, "transpose-inverse", "elliptic"): [(1, True), (2, True)],
    (5, "diag", "split"): [(1, True), (2, True), (4, False), (4, False), (4, False)],
    (5, "diag", "elliptic"): [(3, True), (6, False), (6, False)],
    (5, "transpose-inverse", "split"): [
        (1, True),
        (2, True),
        (4, False),
        (4, False),
        (4, False),
    ],
    (5, "transpose-inverse", "elliptic"): [(3, True), (6, False), (6, False)],
    (7, "diag", "split"): [
        (1, True),
        (3, True),
        (6, False),
        (6, False),
        (6, False),
        (6, False),
    ],
    (7, "diag", "elliptic"): [(4, True), (8, False), (8, False), (8, False)],
    (7, "transpose-inverse", "split"): [(3, True), (6, False), (6, False), (6, False)],
    (7, "transpose-inverse", "elliptic"): [
        (1, True),
        (4, True),
        (8, False),
        (8, False),
    ],
}


@pytest.mark.parametrize("key", sorted(ORBIT_SHAPES))
def test_torus_orbit_shapes(key):
    q, seed, torus_kind = key
    g = MatrixGroup("gl2", q)
    t = TorusEmbedding(g, "split") if torus_kind == "split" else elliptic_torus(g)
    census = involution_orbit(named_involution(g, seed), t)
    got = sorted((len(o.members), o.stable) for o in census.t_orbits)
    assert got == ORBIT_SHAPES[key]


def test_census_cap(monkeypatch):
    monkeypatch.setattr(groups, "ORBIT_CAP", 4)
    g = MatrixGroup("gl2", 3)
    with pytest.raises(ResourceBoundError):
        involution_orbit(named_involution(g, "diag"), TorusEmbedding(g, "split"))


def test_swap_census_is_inner_forms():
    g = MatrixGroup("gl2_x_gl2", 3)
    census = involution_orbit(named_involution(g, "swap"), elliptic_torus(g))
    # witnesses modulo scaling biject with PGL2(F_3)
    assert len(census.all_members) == 24
    assert sorted((len(o.members), o.stable) for o in census.t_orbits) == [
        (4, True),
        (4, True),
        (16, False),
    ]


# ---------------------------------------------------------------------------
# fixed subgroups and stabilizers


def test_fixed_subgroup_sizes_q3():
    g = MatrixGroup("gl2", 3)
    # centralizer of diag(1, -1) is the diagonal torus
    assert len(groups._direct_stabilizers(named_involution(g, "diag"))[1]) == 4
    # isometries of the sum-of-squares form, anisotropic at q = 3
    assert len(groups._direct_stabilizers(named_involution(g, "transpose-inverse"))[1]) == 8


def test_fixed_subgroup_is_a_subgroup():
    g = MatrixGroup("gl2", 3)
    th = named_involution(g, "transpose-inverse")
    fixed = groups._direct_stabilizers(th)[1]
    fixed_set = set(fixed)
    for x in fixed:
        assert g.inv(x) in fixed_set
        for y in fixed:
            assert g.mul(x, y) in fixed_set


def test_fixed_subgroup_swap_closed_form():
    g = MatrixGroup("gl2_x_gl2", 3)
    th = named_involution(g, "swap")
    fixed = groups._direct_stabilizers(th)[1]
    assert len(fixed) == 48
    brute = [x for x in _elements(g) if th.apply(x) == x]
    assert sorted(fixed) == sorted(brute)


def test_stabilizer_orbit_theorem():
    # |orbit of theta| * |G_theta| = |G|
    for q in (3, 5):
        g = MatrixGroup("gl2", q)
        t = TorusEmbedding(g, "split")
        for seed in ("diag", "transpose-inverse"):
            th = named_involution(g, seed)
            census = involution_orbit(th, t)
            data = stabilizer_data(th, t, census)
            assert len(census.all_members) * data.g_theta_order == g.order


def test_stabilizer_data_swap_against_brute_force():
    g = MatrixGroup("gl2_x_gl2", 3)
    th = named_involution(g, "swap")
    t = elliptic_torus(g)
    data = stabilizer_data(th, t, involution_orbit(th, t))
    brute = [
        x
        for x in _elements(g)
        if _is_central(g, g.mul(x, g.inv(th.apply(x))))
    ]
    assert data.g_theta_order == len(brute) == 48 * 2
    assert data.m == 1


def test_stabilizer_m_values_on_stable_orbits_q3():
    # m = 2 exactly where the Weyl flip normalizes theta but lies outside
    # G^theta T_theta: the diagonal-witness and identity-witness cells over
    # the split torus; every elliptic cell has m = 1
    g = MatrixGroup("gl2", 3)
    expected = {
        ("split", "diag", ((0, 1), (1, 0))): 1,
        ("split", "diag", ((1, 0), (0, 2))): 2,
        ("split", "antidiag", ((0, 1), (1, 0))): 1,
        ("split", "antidiag", ((1, 0), (0, 2))): 2,
        ("split", "transpose-inverse", ((1, 0), (0, 1))): 2,
        ("elliptic", "diag", ((0, 1), (1, 0))): 1,
        ("elliptic", "antidiag", ((0, 1), (1, 0))): 1,
        ("elliptic", "transpose-inverse", ((1, 0), (0, 1))): 1,
        ("elliptic", "transpose-inverse", ((1, 1), (1, 2))): 1,
    }
    seen = {}
    for torus in (TorusEmbedding(g, "split"), elliptic_torus(g)):
        for seed in ("diag", "antidiag", "transpose-inverse"):
            census = involution_orbit(named_involution(g, seed), torus)
            for orbit in census.t_orbits:
                if orbit.stable:
                    data = stabilizer_data(orbit.representative, torus, census)
                    seen[(torus.kind, seed, orbit.representative.witness)] = data.m
                    assert set(data.fixed_in_t_theta) <= set(data.t_theta)
    assert seen == expected


def test_literal_product_check_raises(monkeypatch):
    # a multiplication that returns its right factor, injected at the row
    # product of the literal check (the base field's row_times): G^theta of
    # diag is diagonal, so each row of x is a multiple of a unit row and
    # picking y's row of the same index makes x y = y; on the elliptic torus
    # the literal G^theta T_theta then has |T_theta| = 4 elements where
    # |G_theta| / m = 8
    g = MatrixGroup("gl2", 3)
    th = named_involution(g, "diag")
    t = elliptic_torus(g)
    census = involution_orbit(th, t)
    assert len(stabilizer_data(th, t, census).t_theta) == 4
    monkeypatch.setattr(g.tower.base, "row_times", lambda r, y: y[0] if r[0] else y[1])
    with pytest.raises(ConsistencyError, match="literal product"):
        stabilizer_data(th, t, census)
    # a torus orbit's check runs on its representative
    with pytest.raises(ConsistencyError, match="literal product"):
        orbit_entries(census, t)


def test_literal_product_check_runs_on_large_cells(monkeypatch):
    # the product swap at q = 7 fixes the elliptic torus, and its literal
    # check forms 2016 * 288 products: it runs at this size too, and a wrong
    # product (here x y = x) fails it
    g = MatrixGroup("gl2_x_gl2", 7)
    th = named_involution(g, "swap")
    t = elliptic_torus(g)
    census = involution_orbit(th, t)
    data = stabilizer_data(th, t, census)
    assert data.g_fixed_order * len(data.t_theta) == 580_608 > 200_000
    assert data.m == 1
    monkeypatch.setattr(g.tower.base, "row_times", lambda r, y: r)
    with pytest.raises(ConsistencyError, match="literal product"):
        stabilizer_data(th, t, census)


# ---------------------------------------------------------------------------
# stabilizers transported from the census seed

TRANSPORT_CENSUSES = [
    ("gl2", q, seed, torus_kind)
    for q in (3, 5)
    for seed in ("diag", "antidiag", "transpose-inverse")
    for torus_kind in ("split", "elliptic")
] + [("gl2_x_gl2", 3, "swap", "elliptic")]


def _torus_census(kind, q, seed, torus_kind):
    g = MatrixGroup(kind, q)
    t = TorusEmbedding(g, "split") if torus_kind == "split" else elliptic_torus(g)
    return g, t, involution_orbit(named_involution(g, seed), t)


def _census(kind, q, seed, torus_kind):
    g, _, census = _torus_census(kind, q, seed, torus_kind)
    return g, census


def _census_id(key):
    return "-".join(map(str, key))


@pytest.mark.parametrize("key", TRANSPORT_CENSUSES, ids=_census_id)
def test_transporters_carry_the_seed(key):
    g, census = _census(*key)
    assert set(census.transporters) == set(census.all_members)
    assert census.transporters[census.seed] == g.identity()
    for member in census.all_members:
        assert census.seed.conjugated(census.transporters[member]) == member


@pytest.mark.parametrize(
    "key", [k for k in TRANSPORT_CENSUSES if k[3] == "elliptic"], ids=_census_id
)
def test_transported_stabilizers_match_brute_force(key):
    # each member's G^theta is the seed's conjugated by its transporter, and
    # stabilizer_data reads the member's orders and G^theta meet T_theta
    # without building it
    g, t, census = _torus_census(*key)
    elements = _elements(g)
    order, seed_fixed = census.seed_stabilizers
    for member in census.all_members:
        images = [(x, member.apply(x)) for x in elements]
        fixed = {x for x, im in images if im == x}
        g_theta = [x for x, im in images if _is_central(g, g.mul(x, g.inv(im)))]
        x = census.transporter(member)
        xi = g.inv(x)
        transported = [g.mul(g.mul(x, h), xi) for h in seed_fixed]
        assert len(transported) == len(fixed)
        assert set(transported) == fixed
        assert order == len(g_theta)
        data = stabilizer_data(member, t, census)
        assert (data.g_theta_order, data.g_fixed_order) == (len(g_theta), len(fixed))
        assert set(data.fixed_in_t_theta) == fixed & set(data.t_theta)


def test_wrong_transporter_fails_the_witness_check(monkeypatch):
    # with every transporter 1 the Schreier generators are the group's
    # generators, and a transvection does not fix the seed
    g, t, census = _torus_census("gl2", 3, "diag", "elliptic")
    for member in census.all_members:
        monkeypatch.setitem(census.transporters, member, g.identity())
    with pytest.raises(ConsistencyError, match="does not fix the seed"):
        stabilizer_data(census.seed, t, census)


def test_witness_filter_disagreement_raises(monkeypatch):
    # up to BRUTE_FORCE_Q the seed's sets are checked against one member's
    # direct filter; a filter that drops an element makes them differ
    direct = groups._direct_stabilizers

    def dropped(th):
        order, fixed = direct(th)
        return order, fixed[1:]

    monkeypatch.setattr(groups, "_direct_stabilizers", dropped)
    g, t, census = _torus_census("gl2", 5, "transpose-inverse", "elliptic")
    with pytest.raises(ConsistencyError, match="differ from the direct filter"):
        census.seed_stabilizers


def test_wrong_transporter_fails_the_member_check(monkeypatch):
    # past BRUTE_FORCE_Q there is no witness: each member checks its own
    monkeypatch.setattr(groups, "BRUTE_FORCE_Q", 1)
    g, t, census = _torus_census("gl2", 3, "transpose-inverse", "elliptic")
    member = census.all_members[-1]
    assert member != census.seed
    stabilizer_data(census.seed, t, census)
    monkeypatch.setitem(census.transporters, member, g.identity())
    with pytest.raises(ConsistencyError, match="does not carry the seed"):
        stabilizer_data(member, t, census)


def test_wrong_transporter_fails_the_pick_check(monkeypatch):
    # a sampled member after the representative shares its m, but its own
    # transporter is still checked
    monkeypatch.setattr(groups, "BRUTE_FORCE_Q", 1)
    g, t, census = _torus_census("gl2", 3, "transpose-inverse", "elliptic")
    census.seed_stabilizers  # formed before a transporter is tampered with
    orbit = next(o for o in census.t_orbits if len(o.members) > 1)
    pick = orbit.members[1]
    assert pick != census.seed
    orbit_entries(census, t)
    monkeypatch.setitem(census.transporters, pick, g.identity())
    with pytest.raises(ConsistencyError, match="does not carry the seed"):
        orbit_entries(census, t)


@pytest.mark.parametrize("brute_force_q, filters", ((9, 1), (1, 0)))
def test_one_direct_filter_per_census(monkeypatch, brute_force_q, filters):
    # the seed's sets come from the census's Schreier generators; the one
    # direct filter is the witness's, up to BRUTE_FORCE_Q
    monkeypatch.setattr(groups, "BRUTE_FORCE_Q", brute_force_q)
    calls = []
    direct = groups._direct_stabilizers
    monkeypatch.setattr(
        groups, "_direct_stabilizers", lambda th: calls.append(th) or direct(th)
    )
    g, t, census = _torus_census("gl2", 5, "diag", "elliptic")
    for member in census.all_members:
        stabilizer_data(member, t, census)
    assert len(calls) == filters
    assert census.seed not in calls


# ---------------------------------------------------------------------------
# the seed's stabilizers from the census's Schreier generators

SCHREIER_SEEDS = [
    ("gl2", q, seed) for q in (3, 5, 7, 9) for seed in ("diag", "antidiag", "transpose-inverse")
] + [("gl2_x_gl2", 3, "diag"), ("gl2_x_gl2", 3, "transpose-inverse")]


@pytest.mark.parametrize("key", SCHREIER_SEEDS, ids=_census_id)
def test_schreier_stabilizers_match_the_filter(key):
    kind, q, seed = key
    g, t, census = _torus_census(kind, q, seed, "elliptic")
    order, fixed = census._schreier_stabilizers()
    assert (order, fixed) == groups._direct_stabilizers(census.seed)
    assert order * len(census.all_members) == g.order


def test_withheld_schreier_generator_raises(monkeypatch):
    # without diag(gamma, 1) the generators are SL2's: the orbit is the
    # same, but its Schreier generators span only G_theta meet SL2
    g = MatrixGroup("gl2", 5)
    t = elliptic_torus(g)
    gens = g.generators()
    assert gens[-1] == ((g.tower.base.generator, 0), (0, 1))
    full = len(involution_orbit(named_involution(g, "diag"), t).all_members)
    monkeypatch.setattr(g, "generators", lambda: gens[:-1])
    census = involution_orbit(named_involution(g, "diag"), t)
    assert len(census.all_members) == full
    with pytest.raises(ConsistencyError, match="do not span"):
        census.seed_stabilizers


def test_wrong_transporter_is_never_silently_short(monkeypatch):
    # one member's transporter set to 1: the seed's sets either raise or
    # are the filter's, whichever member it is
    g = MatrixGroup("gl2", 5)
    t = elliptic_torus(g)
    seed = named_involution(g, "transpose-inverse")
    expected = groups._direct_stabilizers(seed)
    raised = 0
    for i in range(len(involution_orbit(seed, t).all_members)):
        census = involution_orbit(seed, t)
        member = census.all_members[i]
        if member == seed:
            continue
        census.transporters[member] = g.identity()
        try:
            got = census.seed_stabilizers
        except ConsistencyError:
            raised += 1
        else:
            assert got == expected
    assert raised > 0


def _decode(g, code):
    """The element with this literal-product code: four base-q digits per
    factor matrix, row-major, the first factor most significant."""
    parts = []
    for _ in range(g.n_factors):
        code, m = divmod(code, g.q**4)
        digits = []
        for _ in range(4):
            m, v = divmod(m, g.q)
            digits.append(v)
        d, c, b, a = digits
        parts.append(((a, b), (c, d)))
    return g.join(tuple(reversed(parts)))


LITERAL_CENSUSES = [
    ("gl2", q, seed, torus_kind)
    for q in (3, 5, 9)
    for seed in ("diag", "antidiag", "transpose-inverse")
    for torus_kind in ("split", "elliptic")
] + [("gl2_x_gl2", 3, "swap", "elliptic")]


@pytest.mark.parametrize("key", LITERAL_CENSUSES, ids=_census_id)
def test_literal_product_matches_group_products(key):
    # the row-table codes decode to exactly the products of group.mul, one
    # code per element; at q = 9 the codes are not residues mod a prime.
    # stabilizer_data checks a member's G^theta T_theta as the seed's
    # G^theta times T_theta conjugated by x^-1, the member's set conjugated
    g, t, census = _torus_census(*key)
    seed_fixed = census.seed_stabilizers[1]
    for member in census.all_members:
        data = stabilizer_data(member, t, census)
        x = census.transporter(member)
        xi = g.inv(x)
        pulled = [g.mul(g.mul(xi, y), x) for y in data.t_theta]
        codes = groups._literal_product(g, seed_fixed, pulled)
        expected = {g.mul(h, y) for h in seed_fixed for y in pulled}
        assert len(codes) == len(expected) == data.g_theta_order // data.m
        assert {_decode(g, c) for c in codes} == expected
        own_fixed = [g.mul(g.mul(x, h), xi) for h in seed_fixed]
        own = {g.mul(h, y) for h in own_fixed for y in data.t_theta}
        assert {g.mul(g.mul(x, z), xi) for z in expected} == own


@pytest.mark.parametrize("key", [k for k in LITERAL_CENSUSES if k[1] < 9], ids=_census_id)
def test_torus_orbit_literal_sets_are_t_conjugates(key):
    # a member Int(t) rep Int(t)^-1 of a torus orbit has the representative's
    # G^theta T_theta conjugated by t, so orbit_entries's one literal check
    # per orbit, on the representative, stands for every member: each
    # member's own stabilizer_data has its entry's m and the
    # representative's torus sets
    g, t, census = _torus_census(*key)
    seed_fixed = census.seed_stabilizers[1]

    def literal(th):
        x = census.transporter(th)
        xi = g.inv(x)
        own_fixed = [g.mul(g.mul(x, h), xi) for h in seed_fixed]
        return {g.mul(h, y) for h in own_fixed for y in th.torus_side(t)[0]}

    entries = orbit_entries(census, t)
    assert [e.orbit for e in entries] == list(census.t_orbits)
    for entry in entries:
        orbit = entry.orbit
        rep = orbit.representative
        rep_set = literal(rep)
        rep_data = stabilizer_data(rep, t, census)
        rep_sides = (set(rep_data.t_theta), set(rep_data.fixed_in_t_theta))
        carriers = {}
        for p in t.elements:
            carriers.setdefault(rep.conjugated(p), p)
        assert set(carriers) == set(orbit.members)
        for member in orbit.members:
            s = carriers[member]
            si = g.inv(s)
            assert literal(member) == {g.mul(g.mul(s, z), si) for z in rep_set}
            data = stabilizer_data(member, t, census)
            assert data.m == entry.m
            assert (set(data.t_theta), set(data.fixed_in_t_theta)) == rep_sides


def test_tampered_pick_fails_the_orbit_check(monkeypatch):
    # one pick's T_theta with a point swapped for one outside it: m is
    # unchanged, and the comparison with the representative raises
    g, t, census = _torus_census("gl2", 5, "diag", "elliptic")
    orbit = next(
        o
        for o in census.t_orbits
        if len(o.members) > 1
        and len(o.representative.torus_side(t)[0]) < len(t.elements)
    )
    # orbit_entries samples the second member after the representative
    picks = orbit.members[:2]
    assert picks[0] == orbit.representative
    orbit_entries(census, t)
    original = groups.Involution.torus_side

    def tampered(self, torus):
        t_theta, fixed = original(self, torus)
        if self == picks[1]:
            outside = next(x for x in torus.elements if x not in t_theta)
            t_theta = (outside,) + t_theta[1:]
        return t_theta, fixed

    monkeypatch.setattr(groups.Involution, "torus_side", tampered)
    with pytest.raises(ConsistencyError, match="differ in T_theta"):
        orbit_entries(census, t)


# ---------------------------------------------------------------------------
# the torus side from the factor points and the torus's generators

TORUS_CENSUSES = LITERAL_CENSUSES + [
    ("gl2_x_gl2", 5, "swap", "elliptic"),
    ("gl2_x_gl2", 3, "diag", "elliptic"),
    ("gl2_x_gl2", 3, "transpose-inverse", "elliptic"),
]


@pytest.mark.parametrize("key", TORUS_CENSUSES, ids=_census_id)
def test_torus_side_matches_the_all_points_filters(key):
    # stabilizes reads T's generators, and T_theta and the epsilon domain
    # read theta's factor tables; each must equal its filter over all of T
    g, t, census = _torus_census(*key)
    for member in census.all_members:
        images = [(x, member.apply(x)) for x in t.elements]
        assert member.stabilizes(t) == all(t.contains(im) for _, im in images)
        t_theta, fixed = member.torus_side(t)
        assert fixed == tuple(x for x, im in images if im == x)
        assert t_theta == tuple(
            x for x, im in images if _is_central(g, g.mul(x, g.inv(im)))
        )


@pytest.mark.parametrize("key", TORUS_CENSUSES, ids=_census_id)
def test_torus_orbits_match_conjugation_by_all_points(key):
    # each torus orbit, closed under T's generators, is the set of conjugates
    # of its representative by every point of T, and the orbits partition
    # the census
    g, t, census = _torus_census(*key)
    seen = []
    for orbit in census.t_orbits:
        rep = orbit.representative
        assert set(orbit.members) == {rep.conjugated(x) for x in t.elements}
        assert orbit.stable == all(t.contains(rep.apply(x)) for x in t.elements)
        seen.extend(orbit.members)
    assert sorted(seen, key=lambda th: th._key) == list(census.all_members)


@pytest.mark.parametrize(
    "kind, torus_kind, n_gens",
    (("gl2", "split", 2), ("gl2", "elliptic", 1), ("gl2_x_gl2", "elliptic", 2)),
)
def test_torus_generators(kind, torus_kind, n_gens):
    g = MatrixGroup(kind, 5)
    t = groups.TorusEmbedding(g, torus_kind)
    assert len(t.generators) == n_gens
    assert all(t.contains(s) for s in t.generators)
    assert len(t.points) ** g.n_factors == len(t.elements)


@pytest.mark.parametrize(
    "kind, torus_kind", (("gl2", "split"), ("gl2", "elliptic"), ("gl2_x_gl2", "elliptic"))
)
def test_torus_generators_that_miss_points_raise(monkeypatch, kind, torus_kind):
    # the squares of the generators reach an index-2 or index-4 subgroup
    g = MatrixGroup(kind, 5)
    torus_shape = groups._torus_shape

    def squared_generators(tower, kind):
        shape = torus_shape(tower, kind)
        E = tower.ext
        squares = tuple((E.mul(u, u), E.mul(v, v)) for u, v in shape.generators)
        return shape._replace(generators=squares)

    monkeypatch.setattr(groups, "_torus_shape", squared_generators)
    with pytest.raises(ConsistencyError, match="generators reach"):
        groups.TorusEmbedding(g, torus_kind)


# ---------------------------------------------------------------------------
# the infinitesimal side


def test_lie_fixed_space_dimensions():
    g = MatrixGroup("gl2", 3)
    # conjugation by diag(1,-1) fixes the diagonal subalgebra
    assert LieFixedSpace(named_involution(g, "diag")).dimension == 2
    # X -> -X^t fixes only the antisymmetric line
    assert LieFixedSpace(named_involution(g, "transpose-inverse")).dimension == 1
    prod = MatrixGroup("gl2_x_gl2", 3)
    assert LieFixedSpace(named_involution(prod, "swap")).dimension == 4


def _solve(a_rows, b, F):
    """One solution x of A x = b by elimination of the augmented matrix."""
    m, pivots = fq_rref([list(row) + [bv] for row, bv in zip(a_rows, b)], F)
    n = len(a_rows[0])
    assert n not in pivots
    x = [0] * n
    for r, pc in enumerate(pivots):
        x[pc] = m[r][n]
    return x


@pytest.mark.parametrize(
    "kind, q, seed",
    [("gl2", q, s) for q in (3, 5) for s in ("diag", "antidiag", "transpose-inverse")]
    + [("gl2_x_gl2", q, "swap") for q in (3, 5)],
)
def test_matrix_of_ad_matches_solved_coordinates(kind, q, seed):
    # the free-coordinate read equals the coordinates found by elimination,
    # on G^theta and on the torus points theta fixes
    g = MatrixGroup(kind, q)
    th = named_involution(g, seed)
    space = LieFixedSpace(th)
    F = g.tower.base
    basis_rows = [list(row) for row in zip(*space.vectors)]
    points = groups._direct_stabilizers(th)[1][::7] + th.torus_side(elliptic_torus(g))[1]
    for x in points:
        xi = g.inv(x)
        solved = [
            _solve(basis_rows, groups._vec(g, g.mul(g.mul(x, groups._unvec(g, v)), xi)), F)
            for v in space.vectors
        ]
        n = space.dimension
        assert space.matrix_of_ad(x) == [[solved[j][i] for j in range(n)] for i in range(n)]


def test_matrix_of_ad_raises_off_the_fixed_space():
    # a transvection moves the diagonal line diag(1, 0) off the diagonal
    g = MatrixGroup("gl2", 3)
    space = LieFixedSpace(named_involution(g, "diag"))
    with pytest.raises(ConsistencyError, match="does not preserve the fixed space"):
        space.matrix_of_ad(((1, 1), (0, 1)))


def test_lie_fixed_det_values():
    g = MatrixGroup("gl2", 3)
    tinv = named_involution(g, "transpose-inverse")
    # on the 1-dimensional fixed space (the antisymmetric line) conjugation
    # by diag(1, -1) acts by the determinant, which is -1
    space = LieFixedSpace(tinv)
    assert lie_fixed_det(tinv, ((1, 0), (0, 2)), space) == -1
    assert lie_fixed_det(tinv, g.identity(), space) == 1
    diag = named_involution(g, "diag")
    # diagonal matrices act trivially on the diagonal fixed space
    space = LieFixedSpace(diag)
    assert lie_fixed_det(diag, ((2, 0), (0, 1)), space) == 1
    w = ((0, 1), (1, 0))
    assert lie_fixed_det(diag, w, space) == -1  # swaps the two diagonal lines


def test_lie_fixed_det_multiplicative():
    g = MatrixGroup("gl2", 3)
    th = named_involution(g, "transpose-inverse")
    space = LieFixedSpace(th)
    fixed = groups._direct_stabilizers(th)[1]
    for x in fixed:
        for y in fixed:
            assert lie_fixed_det(th, g.mul(x, y), space) == lie_fixed_det(
                th, x, space
            ) * lie_fixed_det(th, y, space)


# ---------------------------------------------------------------------------
# the shadow on the datum, and the killed roots


def test_derived_theta_star_matrices():
    g = MatrixGroup("gl2", 3)
    te = elliptic_torus(g)
    ts = TorusEmbedding(g, "split")

    # conjugation by the antidiagonal witness acts on the elliptic torus as
    # Frobenius: exponent coordinates swap
    census = involution_orbit(named_involution(g, "diag"), te)
    stable = [o for o in census.t_orbits if o.stable]
    assert len(stable) == 1
    shadow = derived_theta_star(stable[0].representative, te)
    assert shadow.matrix == ((0, 1), (1, 0))

    # a diagonal witness acts trivially on the split torus
    census = involution_orbit(named_involution(g, "diag"), ts)
    for orbit in census.t_orbits:
        if orbit.stable and orbit.representative.witness == ((1, 0), (0, 2)):
            shadow = derived_theta_star(orbit.representative, ts)
            assert shadow.matrix == ((1, 0), (0, 1))

    # transpose-inverse with the identity witness inverts the split torus
    census = involution_orbit(named_involution(g, "transpose-inverse"), ts)
    stable = [o for o in census.t_orbits if o.stable]
    assert len(stable) == 1
    shadow = derived_theta_star(stable[0].representative, ts)
    assert shadow.matrix == ((-1, 0), (0, -1))


def test_derived_theta_star_elliptic_inversion():
    g = MatrixGroup("gl2", 3)
    te = elliptic_torus(g)
    census = involution_orbit(named_involution(g, "transpose-inverse"), te)
    shapes = {}
    for orbit in census.t_orbits:
        if orbit.stable:
            shadow = derived_theta_star(orbit.representative, te)
            shapes[len(orbit.members)] = shadow.matrix
    # the singleton acts by inverted Frobenius, the pair by plain inversion
    assert shapes[1] == ((0, -1), (-1, 0))
    assert shapes[2] == ((-1, 0), (0, -1))


def test_derived_theta_star_product_swap():
    g = MatrixGroup("gl2_x_gl2", 3)
    t = elliptic_torus(g)
    census = involution_orbit(named_involution(g, "swap"), t)
    mats = set()
    for orbit in census.t_orbits:
        if orbit.stable:
            mats.add(derived_theta_star(orbit.representative, t).matrix)
    exchange = tuple(
        tuple(1 if j == (i + 2) % 4 else 0 for j in range(4)) for i in range(4)
    )
    reversal = (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    )
    assert mats == {exchange, reversal}


def test_derived_theta_star_rejects_unstable():
    g = MatrixGroup("gl2", 5)
    te = elliptic_torus(g)
    th = named_involution(g, "transpose-inverse")
    assert not th.stabilizes(te)
    with pytest.raises(ConfigError):
        derived_theta_star(th, te)


KILLED_BOTH = ((-1, 1), (1, -1))


def test_phi_theta_certified_values():
    g = MatrixGroup("gl2", 3)
    te = elliptic_torus(g)
    census = involution_orbit(named_involution(g, "transpose-inverse"), te)
    killed = {}
    for orbit in census.t_orbits:
        if orbit.stable:
            killed[len(orbit.members)] = phi_theta_certified(orbit.representative, te)
    assert killed[1] == ()  # inverted Frobenius fixes the root
    assert killed[2] == KILLED_BOTH  # inversion negates both roots

    ts = TorusEmbedding(g, "split")
    census = involution_orbit(named_involution(g, "antidiag"), ts)
    for orbit in census.t_orbits:
        if orbit.stable:
            rep = orbit.representative
            got = phi_theta_certified(rep, ts)
            if rep.witness == ((0, 1), (1, 0)):
                assert got == KILLED_BOTH
            else:
                assert got == ()


@pytest.mark.parametrize("q", (3, 5))
def test_phi_theta_certified_product(q):
    g = MatrixGroup("gl2_x_gl2", q)
    t = elliptic_torus(g)
    census = involution_orbit(named_involution(g, "swap"), t)
    for orbit in census.t_orbits:
        if orbit.stable:
            assert phi_theta_certified(orbit.representative, t) == ()


@pytest.mark.parametrize("kind", ("gl2", "gl2_x_gl2"))
def test_phi_theta_certified_applies_theta_to_generators_only(monkeypatch, kind):
    g = MatrixGroup(kind, 3)
    t = elliptic_torus(g)
    seed = "swap" if kind == "gl2_x_gl2" else "transpose-inverse"
    census = involution_orbit(named_involution(g, seed), t)
    calls = []
    apply_ext = Involution.apply_ext

    def counted(self, *args, **kwargs):
        calls.append(1)
        return apply_ext(self, *args, **kwargs)

    monkeypatch.setattr(Involution, "apply_ext", counted)
    for orbit in census.t_orbits:
        if orbit.stable:
            calls.clear()
            phi_theta_certified(orbit.representative, t)
            # coord_count for the lattice shadow, coord_count for T+
            assert 0 < len(calls) <= 2 * t.coord_count
