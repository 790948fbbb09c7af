"""The multiplicity identity itself: epsilon characters, orbit sums, fixed
subgroup averages, and the grid of verified cells at small q."""

import cmath
import itertools
import math
from collections import Counter

import pytest

from dlcusp import groups, multiplicity
from dlcusp.dlchar import ClassFunction, conjugacy_classes, cuspidal_character
from dlcusp.errors import (
    ConfigError,
    ConsistencyError,
    MethodDisagreement,
    TheoremViolation,
)
from dlcusp.groups import (
    MatrixGroup,
    TorusEmbedding,
    elliptic_torus,
    named_involution,
)
from dlcusp.multiplicity import (
    census_for,
    character_matches_epsilon,
    epsilon_character,
    lhs_multiplicity,
    orbit_entries,
    rhs_orbit_sum,
    verify_theorem,
)


def _stable_reps(group, torus, seed):
    census = census_for(group, torus, seed)
    return [o.representative for o in census.t_orbits if o.stable]


# -- epsilon ------------------------------------------------------------------


@pytest.mark.parametrize("q", (3, 5, 7))
def test_epsilon_trivial_on_elliptic_cells(q):
    group = MatrixGroup("gl2", q)
    torus = elliptic_torus(group)
    for seed in ("diag", "antidiag", "transpose-inverse"):
        for theta in _stable_reps(group, torus, seed):
            signs = epsilon_character(theta, torus)
            assert set(signs.values()) == {1}
            assert len(signs) >= 2  # +-1 are always fixed


def test_epsilon_domain_sizes_q3_transpose_inverse():
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    sizes = sorted(
        len(epsilon_character(th, torus))
        for th in _stable_reps(group, torus, "transpose-inverse")
    )
    # the singleton class fixes only the center, the other all fourth roots
    assert sizes == [2, 4]


@pytest.mark.parametrize("q", (3, 5, 7))
def test_epsilon_methods_disagree_on_split_transpose_inverse(q, monkeypatch):
    group = MatrixGroup("gl2", q)
    torus = TorusEmbedding(group, "split")
    theta = named_involution(group, "transpose-inverse")
    # the fixed Lie algebra is so(2), on which diag(a, b) acts by a/b: both
    # routes give -1 at diag(1, -1) and +1 at the center
    minus = group.tower.base.neg(1)
    signs = epsilon_character(theta, torus)
    assert signs[((1, 0), (0, minus))] == -1
    assert signs[((minus, 0), (0, 1))] == -1
    assert signs[group.identity()] == 1
    assert signs[group.scalar(minus)] == 1

    # the guard still fires when the product route is forced to +1
    monkeypatch.setattr("dlcusp.multiplicity.epsilon_product", lambda *args: 1)
    with pytest.raises(MethodDisagreement) as err:
        epsilon_character(theta, torus)
    detail = err.value.detail
    assert detail["witness"] == ((1, 0), (0, 1))
    assert detail["det_sign"] == -1
    assert detail["product_sign"] == 1
    t = detail["torus_point"]
    assert t[0][1] == 0 and t[1][0] == 0  # a diagonal matrix witnesses it


def test_epsilon_split_diag_is_fine():
    group = MatrixGroup("gl2", 3)
    torus = TorusEmbedding(group, "split")
    theta = named_involution(group, "diag")
    signs = epsilon_character(theta, torus)
    assert set(signs.values()) == {1}
    assert len(signs) == 4  # the whole diagonal torus is fixed


def _split_diag(q):
    group = MatrixGroup("gl2", q)
    torus = TorusEmbedding(group, "split")
    theta = named_involution(group, "diag")
    domain = theta.torus_side(torus)[1]
    return group, torus, theta, domain


def test_epsilon_sign_table_that_is_not_a_character_raises(monkeypatch):
    # both routes flipped together at one point that is neither the
    # identity nor a generator: they agree pointwise, and only the
    # multiplicativity certificate can catch it
    group, torus, theta, domain = _split_diag(5)
    gens = multiplicity._domain_generators(group, domain)
    victim = next(t for t in domain if t not in gens and t != group.identity())
    current = []
    lie_fixed_det = multiplicity.lie_fixed_det
    epsilon_product = multiplicity.epsilon_product

    def det_route(theta, t, space):
        current[:] = [t]
        sign = lie_fixed_det(theta, t, space)
        return -sign if t == victim else sign

    def product_route(datum, shadow, logs, n):
        sign = epsilon_product(datum, shadow, logs, n)
        return -sign if current == [victim] else sign

    monkeypatch.setattr("dlcusp.multiplicity.lie_fixed_det", det_route)
    monkeypatch.setattr("dlcusp.multiplicity.epsilon_product", product_route)
    with pytest.raises(ConsistencyError, match="epsilon is not multiplicative") as err:
        epsilon_character(theta, torus)
    g, x = err.value.detail
    assert g in gens and victim in (x, group.mul(g, x))


def _fewest_generators(group, domain):
    """The least number of domain points whose closure is the domain, by search."""
    for k in itertools.count(1):
        for gens in itertools.combinations(domain, k):
            span, frontier = {group.identity()}, [group.identity()]
            while frontier:
                frontier = {group.mul(g, x) for x in frontier for g in gens} - span
                span |= frontier
            if span == set(domain):
                return k


@pytest.mark.parametrize("q", (3, 5, 7))
def test_epsilon_generators_that_miss_points_raise(monkeypatch, q):
    group, torus, theta, domain = _split_diag(q)
    gens = multiplicity._domain_generators(group, domain)
    # as few generators as possible (Z_{q-1}^2 needs two), each outside the
    # span of the earlier ones, so the span without the last misses it
    assert len(gens) == _fewest_generators(group, domain) == 2
    monkeypatch.setattr(
        multiplicity, "_domain_generators", lambda group, domain: gens[:-1]
    )
    with pytest.raises(ConsistencyError, match="generators reach"):
        epsilon_character(theta, torus)


def test_epsilon_generators_of_a_cyclic_domain():
    # the swap fixes the diagonal copy of the cyclic elliptic torus
    group = MatrixGroup("gl2_x_gl2", 3)
    torus = elliptic_torus(group)
    domain = named_involution(group, "swap").torus_side(torus)[1]
    assert len(domain) == 8
    assert len(multiplicity._domain_generators(group, domain)) == 1


def test_epsilon_generators_that_leave_the_domain_raise(monkeypatch):
    # the transpose-inverse fixes a proper subgroup of the elliptic torus at
    # q = 3, which a generator of the whole torus leaves
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    theta = named_involution(group, "transpose-inverse")
    domain = theta.torus_side(torus)[1]
    assert len(domain) < len(torus.elements)
    monkeypatch.setattr(
        multiplicity, "_domain_generators", lambda group, domain: list(torus.generators)
    )
    with pytest.raises(ConsistencyError, match="leave the domain"):
        epsilon_character(theta, torus)


def test_epsilon_requires_stable_torus():
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    census = census_for(group, torus, "diag")
    unstable = next(o for o in census.t_orbits if not o.stable)
    with pytest.raises(ConfigError):
        epsilon_character(unstable.representative, torus)


def test_character_matches_epsilon_parity():
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    theta = _stable_reps(group, torus, "transpose-inverse")
    by_size = {len(epsilon_character(t, torus)): t for t in theta}
    big = epsilon_character(by_size[4], torus)
    # trivial epsilon on the fourth roots of unity detects k = 0 mod 4
    for k in (1, 2, 3, 5, 6, 7):
        lam = (k,)
        assert character_matches_epsilon(lam, torus, big) == (k % 4 == 0)


# -- orbit sums ---------------------------------------------------------------


def test_rhs_orbit_sum_reports_q3_diag():
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    census = census_for(group, torus, "diag")
    lam = (2,)
    entries = orbit_entries(census, torus)
    total, matching = rhs_orbit_sum(entries, torus, lam)
    assert total == 1
    assert [len(e.orbit.members) for e in entries] == [2, 4]
    assert [e.orbit.stable for e in entries] == [True, False]
    assert matching == (True, False)
    assert entries[0].m == 1  # the matching orbit's m is the total
    assert entries[1].m >= 1  # the unstable orbit has an m but adds nothing


def test_rhs_orbit_sum_no_match():
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    census = census_for(group, torus, "diag")
    entries = orbit_entries(census, torus)
    total, matching = rhs_orbit_sum(entries, torus, (1,))
    assert total == 0
    assert len(matching) == len(entries) and not any(matching)


# -- character side -----------------------------------------------------------


def test_lhs_multiplicity_matches_direct_average():
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    census = census_for(group, torus, "transpose-inverse")
    chi = cuspidal_character(group, 2)
    assert lhs_multiplicity(census, (chi,)) == 1
    assert lhs_multiplicity(census, (cuspidal_character(group, 1),)) == 0


def _complex(table, m):
    """The complex value of an {exponent: coefficient} map: the reference view."""
    n = table.n_modulus
    return sum(c * cmath.exp(2j * math.pi * e / n) for e, c in m.items())


def test_product_cuspidal_values():
    group = MatrixGroup("gl2_x_gl2", 3)
    view = group.factor
    table = conjugacy_classes(view)
    n = table.n_modulus
    a = cuspidal_character(view, 1)
    b = cuspidal_character(view, 2)
    g = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    product = multiplicity._product_value((a.value(g[0]), b.value(g[1])), n)
    expected = _complex(table, a.value(g[0])) * _complex(table, b.value(g[1]))
    assert abs(_complex(table, product) - expected) < 1e-9
    # a gl2 cell is the one-factor case
    assert multiplicity._product_value((b.value(g[1]),), n) == b.value(g[1])
    # the product group's lhs averages the outer product of (a, b) over G^theta
    census = census_for(group, elliptic_torus(group), "swap")
    fixed = census.seed_stabilizers[1]
    average = sum(
        _complex(table, a.value(h[0])) * _complex(table, b.value(h[1])) for h in fixed
    ) / len(fixed)
    lhs = lhs_multiplicity(census, (a, b))
    assert abs(average - lhs) < 1e-9
    with pytest.raises(ConfigError):
        lhs_multiplicity(census, (a,))


def _constant(table, m):
    return ClassFunction(table, [m for _ in table.classes])


def test_lhs_refuses_a_non_integral_average():
    group = MatrixGroup("gl2", 3)
    table = conjugacy_classes(group)
    census = census_for(group, elliptic_torus(group), "diag")
    fixed = census.seed_stabilizers[1]
    # the constant zeta sums to |G^theta| zeta, which is not an integer
    with pytest.raises(ConsistencyError, match="not an integer multiple") as err:
        lhs_multiplicity(census, (_constant(table, {1: 1}),))
    assert err.value.detail == {
        "reduced_sum": table.reduce({1: len(fixed)}),
        "count": len(fixed),
    }
    # the indicator of the identity sums to 1, not a multiple of |G^theta|
    delta = ClassFunction(
        table, [{0: 1} if c.key == ("central", 1) else {} for c in table.classes]
    )
    with pytest.raises(ConsistencyError) as err:
        lhs_multiplicity(census, (delta,))
    # the reduced sum replays the failure: it is the literal sum over G^theta
    literal = Counter()
    for h in fixed:
        literal.update(delta.value(h))
    assert err.value.detail["reduced_sum"] == table.reduce(literal) == table.reduce({0: 1})
    with pytest.raises(ConsistencyError, match="negative multiplicity"):
        lhs_multiplicity(census, (_constant(table, {0: -1}),))


# -- the theorem --------------------------------------------------------------

GL2_NONZERO = {
    (3, "diag"): {2: 1},
    (3, "antidiag"): {2: 1},
    (3, "transpose-inverse"): {2: 1},
    (5, "diag"): {4: 1, 8: 1},
    (5, "transpose-inverse"): {2: 1, 4: 1, 8: 1, 14: 1},
}


@pytest.mark.parametrize("q,seed", sorted(GL2_NONZERO))
def test_gl2_grid_small(q, seed):
    from dlcusp.dlchar import general_position_exponents

    group = MatrixGroup("gl2", q)
    expected = GL2_NONZERO[(q, seed)]
    for k, _ in general_position_exponents(group):
        res = verify_theorem(group, seed, (k,))
        assert res.lhs == res.rhs == expected.get(k, 0)
        assert res.exponents == (k,) and res.q == q and res.seed == seed
        assert len(res.matching) == len(res.entries)
        if res.lhs:
            assert res.m_values == (1,)
            assert sum(res.matching) == 1


def test_gl2_q7_spot_checks():
    group = MatrixGroup("gl2", 7)
    assert verify_theorem(group, "diag", (6,)).lhs == 1
    assert verify_theorem(group, "diag", (4,)).lhs == 0
    assert verify_theorem(group, "transpose-inverse", (34,)).lhs == 1


def test_cold_gl2_cell_filters_nothing(monkeypatch):
    # past BRUTE_FORCE_Q the seed's stabilizers come from the census and no
    # stabilizer filter runs; the literal check runs once per torus orbit
    calls = {"_direct_stabilizers": 0, "_literal_product": 0}
    for name in calls:
        original = getattr(groups, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(groups, name, counted)
    group = MatrixGroup("gl2", 11)
    verify_theorem(group, "diag", (7,))
    n_orbits = len(census_for(group, elliptic_torus(group), "diag").t_orbits)
    assert calls == {"_direct_stabilizers": 0, "_literal_product": n_orbits}


def test_rejects_degenerate_exponent(monkeypatch):
    # a Frobenius-fixed exponent or a wrong exponent count is refused
    # before the census is built
    censuses = []

    def counted(*args):
        censuses.append(args)
        return census_for(*args)

    monkeypatch.setattr(multiplicity, "census_for", counted)
    gl2, prod = MatrixGroup("gl2", 3), MatrixGroup("gl2_x_gl2", 3)
    for group, exponents in ((gl2, (4,)), (gl2, (0,)), (gl2, (1, 2)), (prod, (1,))):
        with pytest.raises(ConfigError):
            verify_theorem(group, "diag", exponents)
    assert censuses == []
    verify_theorem(gl2, "diag", (1,))
    assert len(censuses) == 1


def test_theorem_result_wall_time_positive():
    res = verify_theorem(MatrixGroup("gl2", 3), "diag", (1,))
    assert res.wall_ms > 0


def test_product_swap_diagonal():
    group = MatrixGroup("gl2_x_gl2", 3)
    res = verify_theorem(group, "swap", (1, 7))  # chi_1 against its inverse
    assert res.lhs == res.rhs == 1
    matching = [e for e, flag in zip(res.entries, res.matching) if flag]
    assert len(matching) == 1 and matching[0].m == 1 == res.m_values[0]
    off = verify_theorem(group, "swap", (1, 6))  # chi_1 against inverse of chi_2
    assert off.lhs == off.rhs == 0


def test_distinction_grid_q3_is_identity():
    # chi_i against the inverse of chi_j, over the Frobenius pair
    # representatives 1, 2, 5 of F_9^x (the inverse of chi_j has exponent -j)
    group = MatrixGroup("gl2_x_gl2", 3)
    reps = (1, 2, 5)
    for i in reps:
        for j in reps:
            res = verify_theorem(group, "swap", (i, -j % 8))
            assert res.lhs == (1 if i == j else 0)
            assert res.lhs == res.rhs


def test_one_census_and_one_orbit_analysis_per_cell(monkeypatch):
    # the Frobenius partner's orbit sum reuses the cell's orbit entries, so
    # nothing is analysed twice: one stabilizer_data per torus orbit, on its
    # representative
    censuses = []
    analysed = []

    def counted_orbit(*args):
        censuses.append(groups.involution_orbit(*args))
        return censuses[-1]

    def counted_data(theta, *args):
        analysed.append(theta)
        return groups.stabilizer_data(theta, *args)

    monkeypatch.setattr(multiplicity, "involution_orbit", counted_orbit)
    monkeypatch.setattr(multiplicity, "stabilizer_data", counted_data)
    for kind, q, seed, exponents in (
        ("gl2", 5, "transpose-inverse", (2,)),
        ("gl2_x_gl2", 3, "swap", (1, 7)),
    ):
        censuses.clear()
        analysed.clear()
        verify_theorem(MatrixGroup(kind, q), seed, exponents)
        assert len(censuses) == 1
        t_orbits = censuses[0].t_orbits
        assert len(t_orbits) > 1
        assert analysed == [o.representative for o in t_orbits]


def test_violation_carries_result(monkeypatch):
    # force a mismatch by averaging a non-cuspidal class function: the
    # constant 1 has average 1 on every fixed subgroup but lambda = 1 is
    # degenerate, so go through the internals directly
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    census = census_for(group, torus, "diag")

    one = _constant(conjugacy_classes(group), {0: 1})
    lam = (1,)
    lhs = lhs_multiplicity(census, (one,))
    rhs, _ = rhs_orbit_sum(orbit_entries(census, torus), torus, lam)
    assert lhs == 1 and rhs == 0
    assert issubclass(TheoremViolation, Exception)

    # through verify_theorem: a character side forced to 0 against lambda = 2,
    # which matches the stable orbit; the violation carries the whole result
    monkeypatch.setattr(multiplicity, "lhs_multiplicity", lambda census, chis: 0)
    with pytest.raises(TheoremViolation, match="multiplicity 0 differs") as err:
        verify_theorem(group, "diag", (2,))
    res = err.value.detail
    assert (res.lhs, res.rhs) == (0, 1)
    assert [e.orbit for e in res.entries] == list(census.t_orbits)
    assert res.matching == (True, False)
    assert res.m_values == (1,)


# -- the rules of the orbit side ----------------------------------------------


def _q3_diag():
    """GL2 q = 3 diag: a two-member stable orbit, which lambda = 2 matches,
    and an unstable one."""
    group = MatrixGroup("gl2", 3)
    torus = elliptic_torus(group)
    entries = orbit_entries(census_for(group, torus, "diag"), torus)
    assert [(len(e.orbit.members), e.orbit.stable) for e in entries] == [
        (2, True),
        (4, False),
    ]
    return group, torus, entries


def test_rhs_weights_each_matching_orbit_by_its_m():
    _, torus, entries = _q3_diag()
    stable = entries[0]._replace(m=2)
    assert rhs_orbit_sum([stable], torus, (2,)) == (2, (True,))
    assert rhs_orbit_sum([stable, stable], torus, (2,)) == (4, (True, True))
    assert rhs_orbit_sum([stable, entries[1]._replace(m=2)], torus, (2,)) == (
        2,
        (True, False),
    )


def test_rhs_refuses_a_flag_that_varies_on_an_orbit(monkeypatch):
    _, torus, entries = _q3_diag()
    rep_signs = entries[0].eps[0]
    assert len(entries[0].eps) == 2  # the representative and the other member
    monkeypatch.setattr(
        multiplicity,
        "character_matches_epsilon",
        lambda exponents, torus, signs: signs is rep_signs,
    )
    with pytest.raises(ConsistencyError, match="not constant"):
        rhs_orbit_sum(entries, torus, (2,))


def test_partner_exponent_must_give_the_same_orbit_side(monkeypatch):
    group, _, _ = _q3_diag()
    original = multiplicity.character_matches_epsilon
    monkeypatch.setattr(
        multiplicity,
        "character_matches_epsilon",
        lambda exponents, torus, signs: exponents == (2,)
        and original(exponents, torus, signs),
    )
    with pytest.raises(ConsistencyError, match="changed under the Frobenius partner") as err:
        verify_theorem(group, "diag", (2,))
    assert err.value.detail == (1, 0)


@pytest.mark.parametrize(
    "kind,q,seed,exponents",
    # lambda^-1 is neither lambda nor lambda^q here, so chi_-k is not chi_k
    (("gl2", 5, "diag", (1,)), ("gl2_x_gl2", 3, "swap", (1, 7))),
)
def test_chi_of_the_inverse_exponent_is_refused(monkeypatch, kind, q, seed, exponents):
    group = MatrixGroup(kind, q)
    n = group.tower.ext.order
    for k in exponents:
        assert -k % n not in (k, k * q % n)
    verify_theorem(group, seed, exponents)
    monkeypatch.setattr(
        multiplicity, "cuspidal_character", lambda factor, k: cuspidal_character(factor, -k)
    )
    with pytest.raises(ConsistencyError, match="not -R_T") as err:
        verify_theorem(group, seed, exponents)
    assert err.value.detail["exponent"] == exponents[0]
    assert err.value.detail["torus_point"] in elliptic_torus(group).points
