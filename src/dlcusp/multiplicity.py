"""Both sides of the multiplicity identity for cuspidal representations.

The left side averages a certified cuspidal character over the fixed
subgroup of an involution; the right side sums orbit indices over the
torus orbits of the involution class whose epsilon character matches the
inducing torus character.  Both sides are exact integers and the module
refuses to return unequal sides silently.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from typing import NamedTuple

from .dlchar import conjugacy_classes, cuspidal_character
from .errors import ConfigError, ConsistencyError, MethodDisagreement, TheoremViolation
from .groups import (
    Involution,
    LieFixedSpace,
    MatrixGroup,
    OrbitCensus,
    TorusEmbedding,
    derived_theta_star,
    elliptic_torus,
    involution_orbit,
    lie_fixed_det,
    named_involution,
    orbit_stabilizer_data,
)
from .rootdata import epsilon_product

__all__ = [
    "EpsilonCharacter",
    "epsilon_character",
    "character_matches_epsilon",
    "OrbitReport",
    "orbit_entries",
    "rhs_orbit_sum",
    "lhs_multiplicity",
    "TheoremResult",
    "verify_theorem",
    "census_for",
]


# ---------------------------------------------------------------------------
# the epsilon character of an involution on a stable torus


class EpsilonCharacter(NamedTuple):
    theta: Involution
    torus: TorusEmbedding
    domain: tuple
    signs: dict

    def sign(self, t) -> int:
        return self.signs[t]


def _domain_generators(group: MatrixGroup, domain) -> list:
    """Generators of the abelian group domain, picked in domain order: a point
    outside the span so far joins, and the span grows by its cosets x^k S.

    Nothing rests on the pick; _check_multiplicative certifies the closure.
    """
    span, gens = {group.identity()}, []
    for x in domain:
        if x in span:
            continue
        gens.append(x)
        power, coset, grown = x, span, set(span)
        while power not in span:
            coset = [group.mul(x, s) for s in coset]
            grown.update(coset)
            power = group.mul(x, power)
        span = grown
    return gens


def _check_multiplicative(group: MatrixGroup, signs: dict, gens) -> None:
    """Certify that signs, a sign on each domain point, is a character.

    The Cayley graph of gens is walked from the identity: every edge
    x -> g x must stay in the domain and satisfy signs[g x] = signs[g]
    signs[x], and the walk must reach every domain point.  The gens then
    generate the domain, and by induction on word length
    signs[y x] = signs[y] signs[x] for all y and x: |D| |gens| products in
    place of |D|^2.
    """
    one = group.identity()
    if one not in signs:
        raise ConsistencyError("the identity is not in the epsilon domain")
    reached, frontier = {one}, [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(g, x)
                if y not in signs:
                    raise ConsistencyError(
                        "the epsilon generators leave the domain", detail=(g, x)
                    )
                if signs[y] != signs[g] * signs[x]:
                    raise ConsistencyError("epsilon is not multiplicative", detail=(g, x))
                if y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(reached) != len(signs):
        raise ConsistencyError(
            f"the epsilon generators reach {len(reached)} points, "
            f"not the {len(signs)} of the domain"
        )


def epsilon_character(
    theta: Involution, torus: TorusEmbedding, domain=None
) -> EpsilonCharacter:
    """The sign character on the theta-fixed torus points, computed twice.

    domain: theta's fixed torus points (the second set of
    theta.torus_side(torus), which a pick's StabilizerData holds), formed
    here when omitted.  Route one takes det(Ad(t)) on the theta-fixed Lie
    subalgebra; route two takes the product of one root per +-pair of the
    roots negated by the lattice shadow of theta.  The two must agree at
    every fixed point, and the result must be multiplicative, which is
    checked on the Cayley edges of a certified generating set; disagreement
    raises with the witnessing torus point attached.
    """
    if not theta.stabilizes(torus):
        raise ConfigError("involution does not stabilize this torus")
    if domain is None:
        domain = theta.torus_side(torus)[1]
    space = LieFixedSpace(theta)
    shadow = derived_theta_star(theta, torus)
    datum = torus.datum
    signs = {}
    for t in domain:
        det_sign = lie_fixed_det(theta, t, space)
        coords = torus.eigen_coords(t)
        prod_sign = epsilon_product(datum, shadow, lambda a: torus.root_value(a, coords))
        if det_sign != prod_sign:
            raise MethodDisagreement(
                "fixed-space determinant and root-orbit product disagree",
                detail={
                    "kind": theta.kind,
                    "witness": theta.witness,
                    "torus_point": t,
                    "det_sign": det_sign,
                    "product_sign": prod_sign,
                },
            )
        signs[t] = det_sign
    group = torus.group
    _check_multiplicative(group, signs, _domain_generators(group, domain))
    return EpsilonCharacter(theta, torus, domain, signs)


def _log_lambda(torus: TorusEmbedding, exponents, t) -> int:
    """log lambda(t) = sum of k_i log u_i(t) mod q^2 - 1, for lambda with
    exponent k_i against the eigenvalue u_i of factor i."""
    logs = torus.eigenvalue_logs(t)
    return sum(k * e for k, e in zip(exponents, logs)) % torus.group.tower.order(2)


def character_matches_epsilon(exponents, eps: EpsilonCharacter) -> bool:
    """Exact test of lambda (one exponent per factor) restricted to the fixed
    points against epsilon: log lambda is 0 where epsilon is 1 and half the
    order of F_{q^2}^x where it is -1."""
    half = eps.torus.group.tower.order(2) // 2
    return all(
        _log_lambda(eps.torus, exponents, t) == (0 if eps.sign(t) == 1 else half)
        for t in eps.domain
    )


# ---------------------------------------------------------------------------
# the orbit side


class OrbitReport(NamedTuple):
    representative: Involution
    n_members: int
    stable: bool
    matching: bool
    m: int
    contribution: int


class _OrbitEntry:
    """One torus orbit's index m and sampled epsilon characters.

    Each sampled member's stabilizer side is read off the census seed and
    the member's own theta (orbit_stabilizer_data: the literal product
    check runs on the representative).  Every pick's T_theta and fixed
    torus points equal the representative's there, and m is a function of
    those sets and the seed's orders, so m is the representative's.
    """

    def __init__(self, orbit, census: OrbitCensus, torus):
        self.orbit = orbit
        rep = orbit.representative
        members = orbit.members
        picks = [rep]
        if len(members) > 1:
            # deterministic spread: second, middle, last
            for i in (1, len(members) // 2, len(members) - 1):
                if members[i] not in picks:
                    picks.append(members[i])
        data = orbit_stabilizer_data(picks, torus, census)
        self.m = data[0].m
        self.eps = (
            [
                epsilon_character(th, torus, d.fixed_in_t_theta)
                for th, d in zip(picks, data)
            ]
            if orbit.stable
            else None
        )


def orbit_entries(census: OrbitCensus, torus: TorusEmbedding):
    """One _OrbitEntry per torus orbit of the census, in census order."""
    return [_OrbitEntry(o, census, torus) for o in census.t_orbits]


def rhs_orbit_sum(entries, exponents):
    """Sum of orbit indices over matching stable orbits, with full reports.

    entries: orbit_entries of the census, shared by every lambda of a cell;
    exponents: lambda, one exponent per factor.
    """
    total = 0
    reports = []
    for entry in entries:
        orbit = entry.orbit
        if orbit.stable:
            flags = {character_matches_epsilon(exponents, e) for e in entry.eps}
            if len(flags) != 1:
                raise ConsistencyError(
                    "matching flag is not constant on a torus orbit",
                    detail=orbit.representative.witness,
                )
            matching = flags.pop()
        else:
            matching = False
        contribution = entry.m if matching else 0
        total += contribution
        reports.append(
            OrbitReport(
                orbit.representative,
                len(orbit.members),
                orbit.stable,
                matching,
                entry.m,
                contribution,
            )
        )
    return total, tuple(reports)


# ---------------------------------------------------------------------------
# the character side


def _product_value(values, n) -> Counter:
    """The {e: c} map of the product of the {e: c} value maps, exponents mod n."""
    acc = Counter()
    for items in itertools.product(*(v.items() for v in values)):
        acc[sum(e for e, _ in items) % n] += math.prod(c for _, c in items)
    return acc


def lhs_multiplicity(census: OrbitCensus, chis) -> int:
    """Average over the census seed's G^theta of the outer product of chis,
    one class function per GL2 factor.

    Every member's G^theta is the seed's conjugated, so the average is the
    same for every member of the class.  G^theta is counted by its tuples of
    factor classes, and the sum over it is formed once, exactly in
    Z[zeta_n]; it must be a nonnegative integer multiple of |G^theta|.
    """
    group = census.seed.group
    table = conjugacy_classes(group.factor)
    if len(chis) != group.n_factors or any(chi.table is not table for chi in chis):
        raise ConfigError("need one class function per factor, on the factor's table")
    _, fixed = census.seed_stabilizers
    counts = Counter(tuple(map(table.class_of, group.split(h))) for h in fixed)
    terms = Counter()
    for classes, count in counts.items():
        values = [chi.maps[i] for chi, i in zip(chis, classes)]
        for e, c in _product_value(values, table.n_modulus).items():
            terms[e] += count * c
    avg = table.average(terms, len(fixed))
    if avg < 0:
        raise ConsistencyError(f"negative multiplicity {avg}")
    return avg


# ---------------------------------------------------------------------------
# the theorem


class TheoremResult(NamedTuple):
    q: int
    seed: str
    exponents: tuple
    lhs: int
    rhs: int
    reports: tuple
    wall_ms: float

    @property
    def n_matching_orbits(self) -> int:
        return sum(1 for r in self.reports if r.matching)

    @property
    def m_values(self) -> tuple:
        return tuple(r.m for r in self.reports if r.matching)


def census_for(group: MatrixGroup, torus: TorusEmbedding, seed: str) -> OrbitCensus:
    """The class of the named seed, partitioned into torus orbits."""
    return involution_orbit(named_involution(group, seed), torus)


def verify_theorem(group: MatrixGroup, seed: str, exponents) -> TheoremResult:
    """Check lhs == rhs for one involution class and one inducing character.

    exponents: lambda, exponent k_i against the eigenvalue of factor i: (k,)
    for gl2, (k1, k2) for the product group; each k_i must be in general
    position, which cuspidal_character certifies.  Raises TheoremViolation
    with the full orbit reports attached when the two sides differ.
    """
    t0 = time.perf_counter()
    exponents = tuple(exponents)
    if len(exponents) != group.n_factors:
        raise ConfigError(
            f"{group.kind} needs {group.n_factors} exponents, got {len(exponents)}"
        )
    chis = tuple(cuspidal_character(group.factor, k) for k in exponents)
    torus = elliptic_torus(group)
    census = census_for(group, torus, seed)
    lhs = lhs_multiplicity(census, chis)
    entries = orbit_entries(census, torus)
    rhs, reports = rhs_orbit_sum(entries, exponents)

    # the right side may not depend on the Frobenius representative
    partner = tuple(k * group.q for k in exponents)
    rhs_partner, reports_partner = rhs_orbit_sum(entries, partner)
    if rhs_partner != rhs or [r.matching for r in reports_partner] != [
        r.matching for r in reports
    ]:
        raise ConsistencyError(
            "orbit sum changed under the Frobenius partner exponent",
            detail=(rhs, rhs_partner),
        )

    # central compatibility: a character nontrivial on the fixed center
    # admits no invariant vectors
    seed_theta = census.seed
    fixed_center = [
        z for z in group.center() if seed_theta.apply(z) == z
    ]
    if any(_log_lambda(torus, exponents, z) != 0 for z in fixed_center) and lhs != 0:
        raise ConsistencyError(
            "nonzero multiplicity with a nontrivial fixed central character",
            detail=exponents,
        )

    result = TheoremResult(
        group.q,
        seed,
        exponents,
        lhs,
        rhs,
        reports,
        (time.perf_counter() - t0) * 1000.0,
    )
    if lhs != rhs:
        raise TheoremViolation(
            f"multiplicity {lhs} differs from orbit sum {rhs}",
            detail=result,
        )
    return result
