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

from .dlchar import conjugacy_classes, cuspidal_character, sigma_r_t
from .errors import ConfigError, ConsistencyError, MethodDisagreement, TheoremViolation
from .groups import (
    Involution,
    LieFixedSpace,
    MatrixGroup,
    OrbitCensus,
    TOrbit,
    TorusEmbedding,
    _closure,
    derived_theta_star,
    elliptic_torus,
    involution_orbit,
    lie_fixed_det,
    named_involution,
    stabilizer_data,
)
from .rootdata import epsilon_product

__all__ = [
    "epsilon_character",
    "character_matches_epsilon",
    "OrbitEntry",
    "orbit_entries",
    "rhs_orbit_sum",
    "lhs_multiplicity",
    "TheoremResult",
    "verify_theorem",
    "census_for",
]


# ---------------------------------------------------------------------------
# the epsilon character of an involution on a stable torus


def _domain_generators(group: MatrixGroup, domain) -> list:
    """Fewest generators of the abelian group domain: at each step a point of
    largest order modulo the span so far joins, and the span grows by its
    cosets x^k S.

    A cyclic subgroup of largest order is a direct summand of a finite
    abelian group, so step i adds the i-th invariant factor and the count is
    the least possible.  A point's powers have no larger order than the
    point, so they are skipped as candidates.  Nothing rests on the pick;
    _check_multiplicative certifies the closure.
    """
    span, gens = {group.identity()}, []
    while True:
        best, best_order, seen = None, 0, set()
        for x in domain:
            if x in span or x in seen:
                continue
            order, power = 1, x
            while power not in span:
                seen.add(power)
                power = group.mul(x, power)
                order += 1
            if order > best_order:
                best, best_order = x, order
        if best is None:
            return gens
        gens.append(best)
        coset, grown = span, set(span)
        for _ in range(best_order - 1):
            coset = [group.mul(best, s) for s in coset]
            grown.update(coset)
        span = grown


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

    def edge(x, g):
        y = group.mul(g, x)
        if y not in signs:
            raise ConsistencyError("the epsilon generators leave the domain", detail=(g, x))
        if signs[y] != signs[g] * signs[x]:
            raise ConsistencyError("epsilon is not multiplicative", detail=(g, x))
        return y

    reached = _closure(one, gens, edge)
    if len(reached) != len(signs):
        raise ConsistencyError(
            f"the epsilon generators reach {len(reached)} points, "
            f"not the {len(signs)} of the domain"
        )


def epsilon_character(theta: Involution, torus: TorusEmbedding, domain=None) -> dict:
    """The sign character on the theta-fixed torus points, computed twice,
    as a {torus point: sign} map in domain order.

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
    datum, n = torus.datum, torus.group.tower.ext.order
    signs = {}
    for t in domain:
        det_sign = lie_fixed_det(theta, t, space)
        prod_sign = epsilon_product(datum, shadow, torus.eigenvalue_logs(t), n)
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
    return signs


def _log_lambda(torus: TorusEmbedding, exponents, t) -> int:
    """log lambda(t) = sum of k_i log u_i(t) mod q^2 - 1, for lambda with
    exponent k_i against the first eigenvalue u_i of factor i."""
    logs = torus.eigenvalue_logs(t)[::2]
    return sum(k * e for k, e in zip(exponents, logs)) % torus.group.tower.ext.order


def character_matches_epsilon(exponents, torus: TorusEmbedding, signs: dict) -> bool:
    """Exact test of lambda (one exponent per factor) restricted to the fixed
    points against epsilon, given as its {torus point: sign} map: log lambda
    is 0 where epsilon is 1 and half the order of F_{q^2}^x where it is -1."""
    half = torus.group.tower.ext.order // 2
    return all(
        _log_lambda(torus, exponents, t) == (0 if sign == 1 else half)
        for t, sign in signs.items()
    )


# ---------------------------------------------------------------------------
# the orbit side


class OrbitEntry(NamedTuple):
    orbit: TOrbit
    m: int
    eps: list


def orbit_entries(census: OrbitCensus, torus: TorusEmbedding):
    """One OrbitEntry (orbit, m, epsilon sign maps) per torus orbit of the
    census, in census order.

    The representative's stabilizer_data gives the orbit's m and runs its
    literal product check.  Another member is Int(t) rep Int(t)^-1 for a
    torus point t, so its T_theta and fixed torus points are the
    representative's and its G^theta T_theta is the representative's
    conjugated by t; m, a function of those sets and the seed's orders, is
    the representative's.  Each other sampled member (second, middle, last)
    gets its transporter check, and its two torus sets must equal the
    representative's.  On a stable orbit every sampled member gets its
    epsilon sign map; an unstable orbit's list is empty.
    """
    entries = []
    for orbit in census.t_orbits:
        rep, members = orbit.representative, orbit.members
        data = stabilizer_data(rep, torus, census)
        rep_sets = (set(data.t_theta), set(data.fixed_in_t_theta))
        eps = [epsilon_character(rep, torus, data.fixed_in_t_theta)] if orbit.stable else []
        # deterministic spread after the representative members[0]:
        # second, middle, last
        n = len(members)
        for theta in dict.fromkeys(members[i] for i in (1, n // 2, n - 1) if 0 < i < n):
            census.transporter(theta)
            t_theta, fixed = theta.torus_side(torus)
            if (set(t_theta), set(fixed)) != rep_sets:
                raise ConsistencyError(
                    "torus orbit members differ in T_theta or their fixed torus points",
                    detail={"representative": rep.witness, "member": theta.witness},
                )
            if orbit.stable:
                eps.append(epsilon_character(theta, torus, fixed))
        entries.append(OrbitEntry(orbit, data.m, eps))
    return tuple(entries)


def rhs_orbit_sum(entries, torus: TorusEmbedding, exponents):
    """(total, matching): the sum of the indices m over the stable orbits
    whose epsilon matches lambda, and one matching flag per entry, in
    census order.

    entries: orbit_entries of the census, shared by every lambda of a cell;
    exponents: lambda, one exponent per factor.  The flag must be the same
    at every sampled pick of an orbit; an unstable orbit, with no epsilon,
    never matches.
    """
    matching = []
    for entry in entries:
        flags = {character_matches_epsilon(exponents, torus, e) for e in entry.eps}
        if len(flags) > 1:
            raise ConsistencyError(
                "matching flag is not constant on a torus orbit",
                detail=entry.orbit.representative.witness,
            )
        matching.append(flags == {True})
    return sum(e.m for e, flag in zip(entries, matching) if flag), tuple(matching)


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
    """One verified cell: its two sides, the census's orbit entries and one
    matching flag per entry, in census order."""

    q: int
    seed: str
    exponents: tuple
    lhs: int
    rhs: int
    entries: tuple
    matching: tuple
    wall_ms: float

    @property
    def m_values(self) -> tuple:
        return tuple(e.m for e, flag in zip(self.entries, self.matching) if flag)


def _check_on_torus(chis, exponents, torus: TorusEmbedding) -> None:
    """Each chi_i against sigma R_T^{lambda_i} (dlchar.sigma_r_t) at every
    point of one factor's elliptic torus, compared exactly as
    {exponent: coefficient} maps."""
    for chi, k in zip(chis, exponents):
        for t, (lu, lv) in torus.logs.items():
            if chi.value(t) != sigma_r_t(chi.table, k, lu, lv):
                sign = "-" if chi.table.sigma < 0 else ""
                raise ConsistencyError(
                    f"chi of exponent {k} is not {sign}R_T^lambda on the elliptic torus",
                    detail={"exponent": k, "torus_point": t},
                )


def census_for(group: MatrixGroup, torus: TorusEmbedding, seed: str) -> OrbitCensus:
    """The class of the named seed, partitioned into torus orbits."""
    return involution_orbit(named_involution(group, seed), torus)


def verify_theorem(group: MatrixGroup, seed: str, exponents) -> TheoremResult:
    """Check lhs == rhs for one involution class and one inducing character.

    exponents: lambda, exponent k_i against the eigenvalue of factor i: (k,)
    for gl2, (k1, k2) for the product group; each k_i must be in general
    position, which cuspidal_character certifies, and each chi_i must be
    sigma R_T^{lambda_i} on the elliptic torus.  Raises TheoremViolation with the
    result attached when the two sides differ.
    """
    t0 = time.perf_counter()
    exponents = tuple(exponents)
    if len(exponents) != group.n_factors:
        raise ConfigError(
            f"{group.kind} needs {group.n_factors} exponents, got {len(exponents)}"
        )
    chis = tuple(cuspidal_character(group.factor, k) for k in exponents)
    torus = elliptic_torus(group)
    _check_on_torus(chis, exponents, torus)
    census = census_for(group, torus, seed)
    lhs = lhs_multiplicity(census, chis)
    entries = orbit_entries(census, torus)
    rhs, matching = rhs_orbit_sum(entries, torus, exponents)

    # the right side may not depend on the Frobenius representative
    partner = tuple(k * group.q for k in exponents)
    rhs_partner, matching_partner = rhs_orbit_sum(entries, torus, partner)
    if (rhs_partner, matching_partner) != (rhs, matching):
        raise ConsistencyError(
            "orbit sum changed under the Frobenius partner exponent",
            detail=(rhs, rhs_partner),
        )

    # central compatibility: a character nontrivial on the fixed center
    # admits no invariant vectors
    fixed_center = [z for z in group.center() if census.seed.apply(z) == z]
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
        entries,
        matching,
        (time.perf_counter() - t0) * 1000.0,
    )
    if lhs != rhs:
        raise TheoremViolation(
            f"multiplicity {lhs} differs from orbit sum {rhs}",
            detail=result,
        )
    return result
