"""Acceptance runs.

One test per headline claim.  Each prints exactly one PASS/FAIL line with
its wall time (visible under pytest -s; the test verdicts mirror the lines).
All oracles are exact integers, and every character sum is compared
exactly in Z[zeta_n].
"""

import time
from collections import Counter

import pytest

from dlcusp import groups
from dlcusp.dlchar import cuspidal_character, general_position_exponents
from dlcusp.errors import MethodDisagreement
from dlcusp.groups import (
    MatrixGroup,
    TorusEmbedding,
    elliptic_torus,
    phi_theta_certified,
)
from dlcusp.multiplicity import (
    census_for,
    epsilon_character,
    lhs_multiplicity,
    verify_theorem,
)
from dlcusp.rootdata import (
    datum_involutions,
    datum_names,
    fq_rank_sigma,
    load_datum,
    random_twists,
    sigma_group,
    sigma_product,
    verify_centralizer_sigma,
)

GL2_SEEDS = ("diag", "antidiag", "transpose-inverse")


def _report(n, ok, text, dt):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {text} ({dt:.2f}s)")


def test_criterion_1_four_route_sign_identity():
    t0 = time.perf_counter()
    bad = []
    twists = 0
    for name in datum_names():
        datum = load_datum(name)
        for d in [datum] + list(random_twists(datum, 13, seed=7)):
            if d is not datum:
                twists += 1
            _, s_torus = fq_rank_sigma(d)
            if sigma_product(d) != s_torus * sigma_group(d):
                bad.append(name)
    dt = time.perf_counter() - t0
    ok = not bad and twists >= 100
    _report(1, ok, f"four-route sign identity, {twists} random twists", dt)
    assert bad == [] and twists >= 100
    assert dt < 1.0


def test_criterion_2_epsilon_two_routes_agree():
    t0 = time.perf_counter()
    cells = 0
    disagreements = []
    for q in (3, 5, 7):
        group = MatrixGroup("gl2", q)
        for torus in (TorusEmbedding(group, "split"), elliptic_torus(group)):
            for seed in GL2_SEEDS:
                census = census_for(group, torus, seed)
                for orbit in census.t_orbits:
                    if not orbit.stable:
                        continue
                    cells += 1
                    try:
                        epsilon_character(orbit.representative, torus)
                    except MethodDisagreement as e:
                        d = e.detail
                        disagreements.append(
                            (q, torus.kind, seed, d["torus_point"],
                             d["det_sign"], d["product_sign"])
                        )
    dt = time.perf_counter() - t0
    ok = not disagreements
    tail = "" if ok else f"; {len(disagreements)} disagreeing cells"
    _report(2, ok, f"epsilon det route vs orbit product, {cells} stable cells{tail}", dt)
    assert dt < 10.0
    assert disagreements == [], disagreements


def test_criterion_3_killed_root_three_way():
    t0 = time.perf_counter()
    checked = 0
    for q in (3, 5):
        group = MatrixGroup("gl2", q)
        for torus in (TorusEmbedding(group, "split"), elliptic_torus(group)):
            for seed in GL2_SEEDS:
                census = census_for(group, torus, seed)
                for orbit in census.t_orbits:
                    if not orbit.stable:
                        continue
                    killed = phi_theta_certified(orbit.representative, torus)
                    assert len(killed) in (0, 2)
                    checked += 1
    prod = MatrixGroup("gl2_x_gl2", 3)
    census = census_for(prod, elliptic_torus(prod), "swap")
    for orbit in census.t_orbits:
        if orbit.stable:
            assert phi_theta_certified(orbit.representative, elliptic_torus(prod)) == ()
            checked += 1
    dt = time.perf_counter() - t0
    _report(3, True, f"killed-root sets certified three ways on {checked} cells", dt)
    assert dt < 10.0


def test_criterion_4_centralizer_sign_transfer():
    t0 = time.perf_counter()
    verified = 0
    for name in datum_names():
        datum = load_datum(name)
        seen_here = 0
        for theta in datum_involutions(datum).values():
            if any(theta.apply(a) == a for a in datum.roots):
                continue
            assert verify_centralizer_sigma(datum, theta) == sigma_group(datum)
            seen_here += 1
        assert seen_here >= 1
        verified += seen_here
    dt = time.perf_counter() - t0
    _report(4, True, f"centralizer sign transfer on {verified} (datum, involution) pairs", dt)
    assert dt < 1.0


def test_criterion_5_cuspidal_certification():
    t0 = time.perf_counter()
    total = 0
    for q in (3, 5, 7):
        group = MatrixGroup("gl2", q)
        pairs = general_position_exponents(group)
        assert len(pairs) == (q * q - q) // 2
        for k, _ in pairs:
            chi = cuspidal_character(group, k)
            assert chi.inner(chi) == 1
            assert chi.table.average(chi.value(group.identity()), 1) == q - 1
            total += 1
        # unipotent averages vanish; re-check two cosets per field here
        chi = cuspidal_character(group, pairs[0][0])
        for x in (group.identity(), ((0, 1), (1, 0))):
            acc = Counter()
            for b in range(q):
                acc.update(chi.value(group.mul(x, ((1, b), (0, 1)))))
            assert not any(chi.table.reduce(acc))
    dt = time.perf_counter() - t0
    _report(5, True, f"{total} cuspidal characters certified at q in (3, 5, 7)", dt)
    assert total == 3 + 10 + 21
    assert dt < 60.0


GRID_NONZERO = {
    (3, "diag"): {2: 1},
    (3, "antidiag"): {2: 1},
    (3, "transpose-inverse"): {2: 1},
    (5, "diag"): {4: 1, 8: 1},
    (5, "antidiag"): {4: 1, 8: 1},
    (5, "transpose-inverse"): {2: 1, 4: 1, 8: 1, 14: 1},
    (7, "diag"): {6: 1, 12: 1, 18: 1},
    (7, "antidiag"): {6: 1, 12: 1, 18: 1},
    (7, "transpose-inverse"): {
        2: 1, 4: 1, 6: 1, 10: 1, 12: 1, 18: 1, 20: 1, 26: 1, 34: 1
    },
}


def test_criterion_6_main_identity_full_grid():
    t0 = time.perf_counter()
    nonzero = {}
    cells = 0
    for q in (3, 5, 7):
        group = MatrixGroup("gl2", q)
        ks = [k for k, _ in general_position_exponents(group)]
        for seed in GL2_SEEDS:
            found = {}
            for k in ks:
                res = verify_theorem(group, seed, (k,))  # raises if lhs != rhs
                cells += 1
                if res.lhs:
                    found[k] = res.lhs
            nonzero[(q, seed)] = found
    dt = time.perf_counter() - t0
    ok = nonzero == GRID_NONZERO
    _report(6, ok, f"multiplicity identity exact on all {cells} grid cells", dt)
    assert nonzero == GRID_NONZERO
    # the q=3 diag row: exactly one of the three pairs is distinguished,
    # the pair containing exponent 2, with multiplicity one
    assert [nonzero[(3, "diag")].get(k, 0) for k in (1, 2, 5)] == [0, 1, 0]
    assert dt < 300.0


def test_criterion_7_product_swap_inner_product():
    t0 = time.perf_counter()
    # cell (i, j) pairs the i-th cuspidal character with the inverse of the
    # j-th, both indexed by the Frobenius pair representatives; its
    # multiplicity must be the character inner product of the two factors
    group = MatrixGroup("gl2_x_gl2", 3)
    view = group.factor
    reps = tuple(k for k, _ in general_position_exponents(view))
    assert reps == (1, 2, 5)
    n = group.tower.ext.order
    grid = []
    for ki in reps:
        row = []
        for kj in reps:
            res = verify_theorem(group, "swap", (ki, -kj % n))
            ip = cuspidal_character(view, ki).inner(cuspidal_character(view, kj))
            assert ip == res.lhs
            row.append(res)
        grid.append(row)
    for i in range(3):
        for j in range(3):
            assert grid[i][j].lhs == grid[i][j].rhs == (1 if i == j else 0)
    dt = time.perf_counter() - t0
    _report(7, True, "product swap grid equals the 3x3 identity", dt)
    assert dt < 120.0


def test_criterion_8_representative_independence():
    t0 = time.perf_counter()
    checked = 0
    for q, seed, k, expected in (
        (3, "diag", 2, 1),
        (3, "diag", 1, 0),
        (3, "antidiag", 2, 1),
        (3, "transpose-inverse", 2, 1),
        (5, "diag", 4, 1),
        (5, "diag", 1, 0),
        (5, "transpose-inverse", 2, 1),
    ):
        group = MatrixGroup("gl2", q)
        torus = elliptic_torus(group)
        census = census_for(group, torus, seed)
        chi = cuspidal_character(group, k)
        assert lhs_multiplicity(census, (chi,)) == expected
        # exhaustive: average over the directly filtered fixed subgroup of
        # every member
        for member in census.all_members:
            fixed = groups._direct_stabilizers(member)[1]
            acc = Counter()
            for h in fixed:
                acc.update(chi.value(h))
            assert chi.table.average(acc, len(fixed)) == expected
        checked += len(census.all_members)
    dt = time.perf_counter() - t0
    _report(8, True, f"multiplicity constant across {checked} class representatives", dt)
    assert dt < 120.0
