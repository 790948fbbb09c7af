"""Twisted root datum tests: validation, sign routes, orbits, involutions.

The sign table asserted in test_frozen_sign_table was derived by hand from
the orbit pictures of each shipped datum (orbit counts, symmetric orbit
counts, and positives sent negative all worked out independently) before
any code ran.
"""

import itertools
import json
import random

import pytest

from dlcusp.errors import ConfigError, ConsistencyError
from dlcusp.linalg import int_matrix_order, int_mat_mul, rational_rank
from dlcusp.rootdata import (
    GaloisOrbit,
    InvolutionOnDatum,
    TwistedRootDatum,
    datum_involutions,
    datum_names,
    epsilon_product,
    fq_rank_sigma,
    galois_orbits,
    load_datum,
    orbit_product,
    phi_theta,
    random_twists,
    sigma_group,
    sigma_product,
    sign_changes,
    sub_datum_on,
    verify_centralizer_sigma,
    with_twist,
    _matrix_pool,
    _pool_indices,
)

ALL_NAMES = (
    "gl2_elliptic",
    "gl2_split",
    "gl2xgl2_elliptic",
    "gl2xgl2_split",
    "gl2xgl2_swap",
    "gl2xgl2_twisted4",
    "sl2_anisotropic",
    "sl2_split",
)


def test_shipped_names():
    assert tuple(datum_names()) == ALL_NAMES


# name -> (fixed rank, sigma_T, sigma_G, product, sorted orbit sizes)
SIGN_TABLE = {
    "gl2_split": (2, 1, 1, 1, [1, 1]),
    "gl2_elliptic": (1, -1, 1, -1, [2]),
    "sl2_split": (1, -1, -1, 1, [1, 1]),
    "sl2_anisotropic": (0, 1, -1, -1, [2]),
    "gl2xgl2_split": (4, 1, 1, 1, [1, 1, 1, 1]),
    "gl2xgl2_elliptic": (2, 1, 1, 1, [2, 2]),
    "gl2xgl2_swap": (2, 1, 1, 1, [2, 2]),
    "gl2xgl2_twisted4": (1, -1, 1, -1, [4]),
}


@pytest.mark.parametrize("name", sorted(SIGN_TABLE))
def test_frozen_sign_table(name):
    datum = load_datum(name)
    rank, s_t, s_g, prod, sizes = SIGN_TABLE[name]
    got_rank, got_st = fq_rank_sigma(datum)
    assert got_rank == rank
    assert got_st == s_t
    assert sigma_group(datum) == s_g
    assert sigma_product(datum) == prod
    assert prod == s_t * s_g
    assert sorted(o.size for o in galois_orbits(datum)) == sizes


def _dual(tau):
    """(tau^-1)^T, built here: tau has finite order m, so tau^-1 = tau^(m-1)."""
    n = len(tau)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = ident
    for _ in range(int_matrix_order(tau) - 1):
        inverse = int_mat_mul(inverse, tau)
    assert int_mat_mul(tau, inverse) == ident
    return [list(col) for col in zip(*inverse)]


def test_cocharacter_rank_agrees():
    # the twist-fixed rank is the same on the cocharacter lattice
    for name in ALL_NAMES:
        datum = load_datum(name)
        dual = _dual(datum.tau)
        n = datum.rank
        delta = [[dual[i][j] - (i == j) for j in range(n)] for i in range(n)]
        co_rank = n - rational_rank(delta)
        assert (co_rank, (-1) ** co_rank) == fq_rank_sigma(datum)


def test_orbit_shapes():
    ell = galois_orbits(load_datum("gl2_elliptic"))
    assert len(ell) == 1 and ell[0].symmetric
    assert ell[0].elements == ((-1, 1), (1, -1))
    assert sign_changes(ell[0], load_datum("gl2_elliptic")) == 1

    swap = galois_orbits(load_datum("gl2xgl2_swap"))
    assert [o.symmetric for o in swap] == [False, False]
    # the two swap orbits are negatives of each other
    a, b = swap
    assert {tuple(-x for x in v) for v in a.elements} == set(b.elements)

    tw4 = galois_orbits(load_datum("gl2xgl2_twisted4"))
    assert len(tw4) == 1 and tw4[0].size == 4 and tw4[0].symmetric
    assert sign_changes(tw4[0], load_datum("gl2xgl2_twisted4")) == 1


def test_orbits_start_at_lex_min():
    for name in ALL_NAMES:
        datum = load_datum(name)
        for orbit in galois_orbits(datum):
            assert orbit.representative == min(orbit.elements)
            # listed cyclically under the twist
            for i, a in enumerate(orbit.elements):
                assert datum.tau_apply(a) == orbit.elements[(i + 1) % orbit.size]


def test_symmetric_orbit_half_negation():
    orbit = galois_orbits(load_datum("gl2xgl2_twisted4"))[0]
    half = orbit.size // 2
    for i in range(half):
        assert orbit.elements[i + half] == tuple(-x for x in orbit.elements[i])


def test_sign_identity_under_random_twists():
    for name in ALL_NAMES:
        datum = load_datum(name)
        for twisted in random_twists(datum, 25, seed=17):
            rank, s_t = fq_rank_sigma(twisted)
            assert sigma_product(twisted) == s_t * sigma_group(twisted)


def test_random_twists_deterministic():
    datum = load_datum("gl2xgl2_split")
    a = random_twists(datum, 10, seed=3)
    b = random_twists(datum, 10, seed=3)
    assert [t.tau for t in a] == [t.tau for t in b]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 32))
def test_pool_indices_match_random_choice(n):
    # a draw's indices are the indices rng.choice would pick, in order
    for seed in range(100):
        rng = random.Random(seed)
        expected = [rng.choice(range(n)) for _ in range(200)]
        assert list(itertools.islice(_pool_indices(seed, n), 200)) == expected


@pytest.mark.parametrize("seed", (0, 3, 17))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_random_twists_sequence(name, seed):
    # each draw is the product of two seeded pool choices, in order
    datum = load_datum(name)
    pool = list(_matrix_pool(datum.rank).values())
    rng = random.Random(seed)
    expected = []
    for _ in range(60):
        a = rng.choice(pool)
        b = rng.choice(pool)
        m = int_mat_mul([list(r) for r in a], [list(r) for r in b])
        expected.append(tuple(map(tuple, m)))
    twists = random_twists(datum, 60, seed=seed)
    assert [t.tau for t in twists] == expected
    # equal draws share one validated datum
    by_tau = {t.tau: t for t in twists}
    assert all(t is by_tau[t.tau] for t in twists)
    assert len(by_tau) <= {1: 2, 2: 4, 4: 32}[datum.rank]


# -- datum validation ---------------------------------------------------------


def _gl2_split_kwargs():
    d = load_datum("gl2_split")
    return dict(
        rank=d.rank,
        roots=d.roots,
        coroots=d.coroots,
        positive=d.positive,
        tau=d.tau,
        order=d.order,
    )


def test_validation_rejects_bad_data():
    good = _gl2_split_kwargs()
    with pytest.raises(ConfigError):
        TwistedRootDatum(**{**good, "roots": ((1, -1), (1, 1)), "coroots": good["coroots"]})
    with pytest.raises(ConfigError):
        TwistedRootDatum(**{**good, "tau": ((2, 0), (0, 1))})
    with pytest.raises(ConfigError):
        TwistedRootDatum(**{**good, "order": 3})
    with pytest.raises(ConfigError):
        TwistedRootDatum(**{**good, "positive": (0, 1)})
    with pytest.raises(ConfigError):
        TwistedRootDatum(**{**good, "tau": ((1, 1), (0, 1)), "order": 1})


def test_load_datum_errors_and_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_datum("no_such_datum")
    d = load_datum("sl2_split")
    path = tmp_path / "copy.json"
    path.write_text(
        json.dumps(
            {
                "rank": d.rank,
                "roots": [list(v) for v in d.roots],
                "coroots": [list(v) for v in d.coroots],
                "positive": list(d.positive),
                "tau": [list(r) for r in d.tau],
                "order": d.order,
            }
        )
    )
    loaded = load_datum(str(path))
    assert loaded.roots == d.roots and loaded.tau == d.tau
    mistyped = tmp_path / "mistyped.json"
    for rank in ('"two"', "2.5", "true"):
        mistyped.write_text(path.read_text().replace(f'"rank": {d.rank}', f'"rank": {rank}'))
        with pytest.raises(ConfigError, match="mistyped"):
            load_datum(str(mistyped))


# -- retwisting -----------------------------------------------------------------

# a root system on which a twist can permute the roots but not the coroots:
# roots +-(1, 0) with coroots +-(2, 1)
LEANING = dict(rank=2, roots=((1, 0), (-1, 0)), coroots=((2, 1), (-2, -1)), positive=(0,))


def _coroot_compatible(datum, tau):
    """The twist check as stated: (tau^-1)^T a^vee = (tau a)^vee at every root."""
    dual = _dual(tau)
    for a, av in zip(datum.roots, datum.coroots):
        image = tuple(sum(x * y for x, y in zip(row, a)) for row in tau)
        if datum.coroot_of(image) != tuple(sum(x * y for x, y in zip(row, av)) for row in dual):
            return False
    return True


def _permutes_roots(datum, tau):
    images = {tuple(sum(x * y for x, y in zip(row, a)) for row in tau) for a in datum.roots}
    return images == set(datum.roots)


def test_with_twist_refuses_mistyped_entries():
    split = load_datum("gl2_split")
    for tau in (((1.9, 0), (0, 1)), (("1", 0), (0, 1)), ((True, 0), (0, 1)), (1, 0)):
        with pytest.raises(ConfigError, match="mistyped"):
            with_twist(split, tau)
    assert with_twist(split, [[0, 1], [1, 0]]).tau == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "base, tau, order, message",
    [
        ("gl2_split", ((1, 0),), 1, "rank x rank"),
        ("gl2_split", ((1, 0), (0, 1, 0)), 1, "rank x rank"),
        ("gl2_split", ((2, 0), (0, 1)), 1, "unimodular, det 2"),
        ("gl2_split", ((1, 1), (0, 1)), 1, "order exceeds 64"),
        ("gl2_split", ((0, -1), (1, 0)), 4, "does not permute the roots"),
        ("leaning", ((1, 0), (0, -1)), 2, "disagree on the coroot pairing"),
    ],
)
def test_retwist_refusals_match_the_constructor(base, tau, order, message):
    if base == "leaning":
        datum = TwistedRootDatum(**LEANING, tau=((1, 0), (0, 1)), order=1)
    else:
        datum = load_datum(base)
    fields = dict(rank=datum.rank, roots=datum.roots, coroots=datum.coroots)
    with pytest.raises(ConfigError, match=message) as built:
        TwistedRootDatum(**fields, positive=datum.positive, tau=tau, order=order)
    with pytest.raises(ConfigError) as retwisted:
        with_twist(datum, tau)
    assert str(retwisted.value) == str(built.value)


def test_coroot_check_agrees_with_the_inverse_on_the_pools():
    for name in ALL_NAMES:
        datum = load_datum(name)
        for tau in _matrix_pool(datum.rank).values():
            if not _permutes_roots(datum, tau):
                with pytest.raises(ConfigError, match="does not permute"):
                    with_twist(datum, tau)
            elif _coroot_compatible(datum, tau):
                assert with_twist(datum, tau).tau == tau
            else:
                with pytest.raises(ConfigError, match="coroot pairing"):
                    with_twist(datum, tau)


def test_coroot_check_agrees_with_the_inverse_both_ways():
    # every finite-order unimodular 2x2 matrix with entries in {-1, 0, 1}
    # that permutes the roots of LEANING: some keep the coroots, some do not
    datum = TwistedRootDatum(**LEANING, tau=((1, 0), (0, 1)), order=1)
    verdicts = set()
    for entries in itertools.product((-1, 0, 1), repeat=4):
        tau = (entries[:2], entries[2:])
        if entries[0] * entries[3] - entries[1] * entries[2] not in (1, -1):
            continue
        try:
            int_matrix_order(tau)
        except ValueError:
            continue
        if not _permutes_roots(datum, tau):
            continue
        compatible = _coroot_compatible(datum, tau)
        verdicts.add(compatible)
        if compatible:
            assert with_twist(datum, tau).tau == tau
        else:
            with pytest.raises(ConfigError, match="coroot pairing"):
                with_twist(datum, tau)
    assert verdicts == {True, False}


def test_retwist_shares_the_root_system():
    datum = load_datum("gl2xgl2_swap")
    twisted = with_twist(datum, datum.tau)
    for field in ("rank", "roots", "coroots", "positive"):
        assert getattr(twisted, field) is getattr(datum, field)
    assert (twisted.order, twisted.name) == (datum.order, "gl2xgl2_swap:retwisted")
    assert hash(twisted) == hash(with_twist(datum, datum.tau))


# -- involutions on a datum ---------------------------------------------------

INVOLUTION_NAMES = {
    "gl2_split": ["id", "minus_id", "minus_swap", "swap"],
    "gl2_elliptic": ["id", "minus_id", "minus_swap", "swap"],
    "sl2_split": ["id", "minus_id"],
    "sl2_anisotropic": ["id", "minus_id"],
    "gl2xgl2_swap": [
        "exchange(-1,-1)",
        "exchange(-w,-w)",
        "exchange(1,1)",
        "exchange(w,w)",
        "keep(-1,-1)",
        "keep(-w,-w)",
        "keep(1,1)",
        "keep(w,w)",
    ],
    "gl2xgl2_twisted4": ["keep(-1,-1)", "keep(-w,-w)", "keep(1,1)", "keep(w,w)"],
}


def test_datum_involution_census():
    for name, expected in INVOLUTION_NAMES.items():
        assert sorted(datum_involutions(load_datum(name))) == expected
    # the untwisted products admit every keep and the diagonal exchanges
    for name in ("gl2xgl2_split", "gl2xgl2_elliptic"):
        invs = datum_involutions(load_datum(name))
        assert len(invs) == 20
        assert sum(1 for n in invs if n.startswith("exchange")) == 4


def test_involution_validation():
    ell = load_datum("gl2_elliptic")
    with pytest.raises(ConfigError):  # not an involution
        InvolutionOnDatum(ell, ((1, 1), (0, 1)))
    with pytest.raises(ConfigError):  # involution, but roots leave the system
        InvolutionOnDatum(load_datum("gl2_split"), ((1, 1), (0, -1)))
    with pytest.raises(ConfigError):  # fine on roots, fails to commute with tau
        InvolutionOnDatum(ell, ((-1, 0), (2, 1)))


def test_phi_theta_values():
    split = load_datum("gl2_split")
    invs = datum_involutions(split)
    assert phi_theta(split, invs["id"]) == ()
    assert phi_theta(split, invs["minus_id"]) == ((-1, 1), (1, -1))
    assert phi_theta(split, invs["swap"]) == ((-1, 1), (1, -1))
    assert phi_theta(split, invs["minus_swap"]) == ()


def test_phi_theta_refuses_an_involution_on_another_datum():
    # the set is kept on the involution, which must act on the datum given
    invs = datum_involutions(load_datum("gl2_split"))
    ell = load_datum("gl2_elliptic")
    with pytest.raises(ConfigError, match="not on the datum"):
        phi_theta(ell, invs["minus_id"])
    with pytest.raises(ConfigError, match="not on the datum"):
        epsilon_product(ell, invs["minus_id"], (0, 0), 8)


def test_phi_theta_closed_under_negation():
    for name in ALL_NAMES:
        datum = load_datum(name)
        for theta in datum_involutions(datum).values():
            killed = phi_theta(datum, theta)
            assert {tuple(-x for x in a) for a in killed} == set(killed)


# -- orbit products on log vectors ---------------------------------------------
#
# A torus point t is given by its log vector l(t) against a generator g of
# F_9^x, of order 8, so a root a takes the value g^<a, l(t)>: 1 at log 0
# and -1 at log 4.


def test_orbit_product_sign_values():
    ell = load_datum("gl2_elliptic")
    killed = phi_theta(ell, datum_involutions(ell)["minus_id"])
    assert killed == ((-1, 1), (1, -1))

    assert orbit_product(ell, killed, (0, 0), 8) == 1
    assert orbit_product(ell, killed, (2, 2), 8) == 1
    assert orbit_product(ell, killed, (0, 4), 8) == -1
    assert orbit_product(ell, killed, (3, 7), 8) == -1
    assert orbit_product(ell, (), (1, 2), 8) == 1


def test_orbit_product_guardrails():
    ell = load_datum("gl2_elliptic")
    killed = phi_theta(ell, datum_involutions(ell)["minus_id"])
    with pytest.raises(ConsistencyError):  # a(t) = g is not its own inverse (-a)(t)
        orbit_product(ell, killed, (0, 1), 8)
    with pytest.raises(ConsistencyError):  # a(t) = g^2 is not either
        orbit_product(ell, killed, (0, 2), 8)
    with pytest.raises(ConsistencyError):  # subset not stable under the twist
        orbit_product(ell, ((-1, 1),), (0, 0), 8)


def test_orbit_product_at_fixed_points():
    # evaluate the killed roots at twist-fixed torus points of F_9: l(t) is
    # (k, 3k), and inversion fixes t = 1 and t = -1 = g^4
    ell = load_datum("gl2_elliptic")
    killed = phi_theta(ell, datum_involutions(ell)["minus_id"])
    for k in (0, 4):
        assert orbit_product(ell, killed, (k, 3 * k % 8), 8) == 1


def test_orbit_product_one_factor_per_root_pair():
    # untwisted: a and -a are separate orbits of one +-pair, so one factor
    split = load_datum("gl2_split")
    minus_id = datum_involutions(split)["minus_id"]
    killed = phi_theta(split, minus_id)
    assert orbit_product(split, killed, (4, 0), 8) == -1
    assert epsilon_product(split, minus_id, (4, 0), 8) == -1
    # the factor swap: two non-symmetric orbits, negatives of each other,
    # holding two +-pairs of roots between them
    swap = load_datum("gl2xgl2_swap")
    orbits = galois_orbits(swap)
    assert [set(o.elements) for o in orbits] == [
        {(-1, 1, 0, 0), (0, 0, 1, -1)},
        {(1, -1, 0, 0), (0, 0, -1, 1)},
    ]
    assert not any(o.symmetric for o in orbits)
    theta = datum_involutions(swap)["keep(-1,-1)"]
    assert set(phi_theta(swap, theta)) == set(swap.roots)
    # t = (a1, b1, a2, b2) is twist-fixed when a2 = b1^q and b2 = a1^q, and
    # inverted by theta when every entry is +-1.  Over the algebraic closure
    # the fixed Lie algebra is so(2) + so(2), on which t acts by a1/b1 and
    # a2/b2; at t = (1, -1, -1, 1) both are -1, so the determinant is +1.
    logs = (0, 4, 4, 0)
    assert epsilon_product(swap, theta, logs, 8) == 1
    assert orbit_product(swap, swap.roots, (4, 0, 0, 4), 8) == 1
    # the pick between a and -a is checked, not trusted: a(t) = g^+-1 on
    # both pairs here, so (-a)(t) != a(t), although the product over the
    # positive roots is 1, a sign, at the first log vector (g^2 at the second)
    with pytest.raises(ConsistencyError):
        orbit_product(swap, swap.roots, (1, 0, 0, 1), 8)
    with pytest.raises(ConsistencyError):
        orbit_product(swap, swap.roots, (1, 0, 1, 0), 8)
    with pytest.raises(ConsistencyError):  # subset not closed under -1
        orbit_product(swap, orbits[0].elements, (0, 0, 0, 0), 8)


def test_epsilon_product_matches_orbit_product():
    ell = load_datum("gl2_elliptic")
    theta = datum_involutions(ell)["minus_id"]
    for logs in ((0, 4), (2, 6), (4, 4)):
        assert epsilon_product(ell, theta, logs, 8) == orbit_product(
            ell, phi_theta(ell, theta), logs, 8
        )


# -- sub-datum and the centralizer sign ---------------------------------------


def test_sub_datum_roundtrip():
    split = load_datum("gl2_split")
    sub = sub_datum_on(split, split.roots)
    assert set(sub.roots) == set(split.roots)
    assert sigma_group(sub) == sigma_group(split)


def test_centralizer_sign_transfer():
    for name in ALL_NAMES:
        datum = load_datum(name)
        for theta in datum_involutions(datum).values():
            if any(theta.apply(a) == a for a in datum.roots):
                with pytest.raises(ConfigError):
                    verify_centralizer_sigma(datum, theta)
            else:
                assert verify_centralizer_sigma(datum, theta) == sigma_group(datum)


def test_centralizer_sign_fixed_root_example():
    datum = load_datum("gl2xgl2_elliptic")
    theta = datum_involutions(datum)["keep(-1,1)"]
    # negates the first factor roots, fixes the second factor roots
    with pytest.raises(ConfigError):
        verify_centralizer_sigma(datum, theta)


def test_retwist_changes_signs():
    # one concrete sign flip: the split gl2 datum under the swap twist
    split = load_datum("gl2_split")
    retwisted = with_twist(split, ((0, 1), (1, 0)))
    assert sigma_product(split) == 1
    assert sigma_product(retwisted) == -1
    assert fq_rank_sigma(retwisted)[0] == 1
