"""Cuspidal irreducible characters of GL2 over a small odd field.

Character values are stored exactly, as integer combinations of n-th roots
of unity indexed by discrete-log exponents, and each sum of them is tested
exactly in Z[zeta_n], by its residue modulo the cyclotomic polynomial Phi_n.
A character is sigma R_T^lambda by the Deligne-Lusztig formula (``sigma_r_t``),
sigma read off the ``gl2_elliptic`` datum, handed out only after a four-part
certification (norm one, correct degree, vanishing unipotent-averaged sums,
invariance under the Frobenius partner exponent), so downstream consumers
can treat "cuspidal" as a checked property rather than a label.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import ConfigError, ConsistencyError
from .groups import BRUTE_FORCE_Q, TORUS_DATA, MatrixGroup, _closure
from .rootdata import load_datum, sigma_product

__all__ = [
    "cyclotomic",
    "ConjugacyClass",
    "ConjugacyTable",
    "conjugacy_classes",
    "ClassFunction",
    "general_position_exponents",
    "sigma_r_t",
    "cuspidal_character",
]


def cyclotomic(n: int) -> list:
    """The coefficients of Phi_n, lowest degree first: Phi_d for each divisor
    d of n in turn is x^d - 1 divided exactly by the earlier Phi_e, e | d.
    The division steps skip the zero coefficients of Phi_e."""
    phis = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        p = [-1] + [0] * (d - 1) + [1]
        for e in [e for e in phis if d % e == 0]:
            b, quotient = phis[e], []
            terms = [(j, bj) for j, bj in enumerate(b[:-1]) if bj]
            while len(p) >= len(b):  # long division by the monic b, top down
                c = p.pop()
                quotient.append(c)
                if c:
                    low = len(p) + 1 - len(b)
                    for j, bj in terms:
                        p[low + j] -= c * bj
            if any(p):
                raise ConsistencyError(f"Phi_{e} does not divide x^{d} - 1")
            p = quotient[::-1]
        phis[d] = p
    return phis[n]


class ConjugacyClass(NamedTuple):
    kind: str  # central | unipotent | split | elliptic
    key: tuple
    rep: tuple
    size: int


class ConjugacyTable:
    """All conjugacy classes of GL2(F_q), with an exact element classifier.

    A non-central class is determined by (trace, det), so the table maps
    each of the q(q - 1) pairs with det != 0 to its class key.  The
    non-central classes are the distinct keys of that table, each with its
    companion matrix [[0, -det], [1, trace]] as representative and its
    size from its kind; the central classes are the q - 1 scalars.  For q
    up to BRUTE_FORCE_Q the classifier is also checked against a partition
    built independently by closing each class under conjugation by group
    generators, and the two must agree class by class.  The table also
    holds each x^e mod Phi_n, n = q^2 - 1, and its characters' sign sigma.
    """

    def __init__(self, group: MatrixGroup):
        if group.kind != "gl2":
            raise ConfigError("conjugacy tables are built for gl2 only")
        self.group = group
        t = group.tower
        F = t.base
        q = group.q
        n = self.n_modulus = t.ext.order
        # x^e mod Phi_n for each exponent e, as {degree: nonzero coefficient}:
        # x^e = x^(e - deg) x^deg, and x^deg = x^deg - Phi_n mod Phi_n
        phi = cyclotomic(n)
        d = self.degree = len(phi) - 1
        phi_terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
        self._powers = [{e: 1} for e in range(d)]
        for e in range(d, n):
            r = {}
            for j, c in phi_terms:
                for i, v in self._powers[e - d + j].items():
                    r[i] = r.get(i, 0) - c * v
            self._powers.append({i: v for i, v in r.items() if v})
        self._emb_log = {z: t.discrete_log(z) for z in range(1, q)}
        self.sigma = sigma_product(load_datum(TORUS_DATA["gl2", "elliptic"]))
        # each nonzero square with its least root, and the constants of _noncentral_key
        self._least_root = {}
        for x in range(1, q):
            self._least_root.setdefault(F.mul(x, x), x)
        self._four = F.embed_int(4)
        self._half = F.inv(F.embed_int(2))
        self._key_by_trace_det = {
            (tr, det): self._noncentral_key(tr, det)
            for tr in range(q)
            for det in range(1, q)
        }
        classes = [
            ConjugacyClass("central", ("central", z), ((z, 0), (0, z)), 1)
            for z in range(1, q)
        ]
        size = {"unipotent": q * q - 1, "split": q * q + q, "elliptic": q * q - q}
        for (tr, det), key in self._key_by_trace_det.items():
            rep = ((0, F.neg(det)), (1, tr))
            classes.append(ConjugacyClass(key[0], key, rep, size[key[0]]))
        classes.sort(key=lambda c: (c.kind, c.key))
        self.classes = tuple(classes)
        self.index = {c.key: i for i, c in enumerate(self.classes)}
        # counting distinct keys checks that no two (trace, det) share a class
        sizes = (len(self.index), sum(c.size for c in self.classes))
        if sizes != (q * q - 1, group.gl2_order):
            raise ConsistencyError(
                "class count or class sizes do not match GL2", detail=sizes
            )
        if q <= BRUTE_FORCE_Q:
            self._cross_check_brute_force()

    # -- classification ------------------------------------------------------

    def class_key(self, g) -> tuple:
        """The scalar of a central g; else the table's key for g's (trace, det)."""
        (a, b), (c, d) = g
        if b == 0 and c == 0 and a == d:
            return ("central", a)
        F = self.group.tower.base
        key = self._key_by_trace_det.get((F.add(a, d), F.sub(F.mul(a, d), F.mul(b, c))))
        if key is None:
            raise ConfigError("singular matrix has no class")
        return key

    def _noncentral_key(self, tr: int, det: int) -> tuple:
        """The class key of a non-central element with this trace and det."""
        t = self.group.tower
        F = t.base
        disc = F.sub(F.mul(tr, tr), F.mul(self._four, det))
        half = self._half
        if disc == 0:
            return ("unipotent", F.mul(tr, half))
        s = self._least_root.get(disc)
        if s is not None:
            r1 = F.mul(F.add(tr, s), half)
            r2 = F.mul(F.sub(tr, s), half)
            return ("split", tuple(sorted((r1, r2))))
        E = t.ext
        e = t.discrete_log(E.mul(E.add(tr, t.sqrt(disc)), half))
        return ("elliptic", min(e, (e * self.group.q) % self.n_modulus))

    def class_of(self, g) -> int:
        return self.index[self.class_key(g)]

    # -- exact sums in Z[zeta_n] --------------------------------------------

    def reduce(self, terms) -> tuple:
        """sum c zeta^e over the {e: c} terms, as coordinates on 1, zeta, zeta^2, ..."""
        acc = [0] * self.degree
        for e, c in terms.items():
            if c:
                for j, r in self._powers[e % self.n_modulus].items():
                    acc[j] += c * r
        return tuple(acc)

    def average(self, terms, count: int) -> int:
        """(1 / count) sum c zeta^e over the {e: c} terms, which must be an
        integer; else ConsistencyError with the reduced sum as detail."""
        reduced = self.reduce(terms)
        if any(reduced[1:]) or reduced[0] % count:
            raise ConsistencyError(
                f"exact sum is not an integer multiple of {count}",
                detail={"reduced_sum": reduced, "count": count},
            )
        return reduced[0] // count

    # -- independent partition ----------------------------------------------

    def _cross_check_brute_force(self):
        group = self.group
        F = group.tower.base
        steps = [(s, F.mat_inv(s)) for s in group.gl2_generators()]
        remaining = dict.fromkeys(group.gl2_elements())
        found = {}
        for start in group.gl2_elements():
            if start not in remaining:
                continue
            orbit = _closure(start, steps, lambda x, s: F.mat_mul(F.mat_mul(s[0], x), s[1]))
            keys = {self.class_key(x) for x in orbit}
            if len(keys) != 1:
                raise ConsistencyError(
                    "conjugation orbit spans several canonical classes",
                    detail=sorted(keys),
                )
            key = keys.pop()
            if key in found:
                raise ConsistencyError(f"canonical class {key} split into two orbits")
            found[key] = len(orbit)
            for x in orbit:
                remaining.pop(x, None)
        for cls in self.classes:
            if found.get(cls.key) != cls.size:
                raise ConsistencyError(
                    "class size mismatch between partition and formula",
                    detail=(cls.key, found.get(cls.key), cls.size),
                )


def conjugacy_classes(group: MatrixGroup) -> ConjugacyTable:
    table = getattr(group, "_conjugacy_table", None)
    if table is None:
        table = ConjugacyTable(group)
        group._conjugacy_table = table
    return table


# ---------------------------------------------------------------------------
# class functions


class ClassFunction:
    """Exact class function: one {exponent: coefficient} map per class."""

    def __init__(self, table: ConjugacyTable, maps):
        self.table = table
        self.maps = tuple(dict(m) for m in maps)
        if len(self.maps) != len(table.classes):
            raise ConfigError("need one value per conjugacy class")

    def value(self, g) -> dict:
        """The {exponent: coefficient} map of the value at g."""
        return self.maps[self.table.class_of(g)]

    def inner(self, other: "ClassFunction") -> int:
        """The inner product, which must be an integer (as for characters)."""
        if other.table is not self.table:
            raise ConfigError("class functions live on different groups")
        n = self.table.n_modulus
        terms = {}
        for cls, v, w in zip(self.table.classes, self.maps, other.maps):
            for e, c in v.items():
                for f, d in w.items():
                    terms[(e - f) % n] = terms.get((e - f) % n, 0) + cls.size * c * d
        return self.table.average(terms, self.table.group.gl2_order)


def general_position_exponents(group: MatrixGroup):
    """Frobenius-orbit representatives of regular character exponents.

    Returns sorted pairs (k, k*q mod N) with k the smaller member; there are
    (q^2 - q) / 2 of them.
    """
    q = group.q
    n = group.tower.ext.order
    # Frobenius is an involution on exponents mod n, as q^2 = 1 mod n
    pairs = tuple((k, k * q % n) for k in range(1, n) if k < k * q % n)
    if len(pairs) != (q * q - q) // 2:
        raise ConsistencyError(f"{len(pairs)} Frobenius pairs, not (q^2 - q) / 2")
    return pairs


# ---------------------------------------------------------------------------
# cuspidal characters


def sigma_r_t(table: ConjugacyTable, k: int, lu: int, lv: int, unipotent=False) -> dict:
    """sigma R_T^lambda at s u (Deligne and Lusztig 1976, Thm 4.2) as an
    {exponent: coefficient} map, for s a point of the elliptic torus whose
    eigenvalues have logs (lu, lv), lambda of exponent k, sigma = table.sigma:
    sigma Q_T(u) lambda(s) at a central s (lu = lv), with the Green function
    Q_T(1) = 1 - q and Q_T(u) = 1 at a regular unipotent u, and
    sigma (lambda(s) + lambda(s^q)) at any other s, where u = 1."""
    n = table.n_modulus
    if lu == lv:
        return {k * lu % n: table.sigma * (1 if unipotent else 1 - table.group.q)}
    return {e: table.sigma * c for e, c in Counter((k * lu % n, k * lv % n)).items()}


def _value_maps(table: ConjugacyTable, k: int):
    """sigma R_T^lambda on each class: from log z on a class z or z u, from
    (e, e q) on an elliptic class e, and 0 on a split class, which meets no T."""
    maps = []
    for cls in table.classes:
        if cls.kind == "split":
            maps.append({})
        elif cls.kind == "elliptic":
            e = cls.key[1]
            maps.append(sigma_r_t(table, k, e, e * table.group.q % table.n_modulus))
        else:
            log_z = table._emb_log[cls.key[1]]
            maps.append(sigma_r_t(table, k, log_z, log_z, unipotent=cls.kind != "central"))
    return maps


def cuspidal_character(group: MatrixGroup, k: int) -> ClassFunction:
    """The cuspidal character attached to a regular exponent, certified.

    Certification, each sum tested exactly in Z[zeta_n]: norm 1, degree
    q - 1, vanishing unipotent-averaged sums sum_b chi(g u_b) at every
    group element, and equal values from the Frobenius partner exponent.
    The sum at g is the sum over the coset g N, which depends only on the
    coset's type (`_coset_type_sums`), so each type's sum is formed once
    from the (trace, det) table and GL2 is never enumerated.  A failure
    names a representative g of the type, where the literal sum over g u_b
    replays it.  A character failing any check is not returned.
    """
    table = conjugacy_classes(group)
    q = group.q
    n = table.n_modulus
    k = k % n
    partner = (k * q) % n
    if (k * q - k) % n == 0:
        raise ConfigError(
            f"exponent {k} is fixed by Frobenius mod {n}; no cuspidal character"
        )
    chi = ClassFunction(table, _value_maps(table, k))
    if tuple(_value_maps(table, partner)) != chi.maps:
        raise ConsistencyError(
            "character values depend on the exponent representative",
            detail=(k, partner),
        )
    norm = chi.inner(chi)
    if norm != 1:
        raise ConsistencyError(f"character norm {norm} is not 1")
    degree = table.average(chi.value(group.identity()), 1)
    if degree != q - 1:
        raise ConsistencyError(f"degree {degree} differs from q - 1 = {q - 1}")
    for g, terms in _coset_type_sums(chi).items():
        # terms that cancel outright (split and central types) need no reduction
        reduced = table.reduce(terms) if any(terms.values()) else ()
        if any(reduced):
            raise ConsistencyError(
                "unipotent-averaged sum does not vanish",
                detail={"representative": g, "reduced_sum": reduced},
            )
    return chi


def _coset_type_sums(f: ClassFunction) -> dict:
    """{representative g: the {e: c} terms of f summed over g N}, one per coset type.

    For g = [[a, c], [x, d]], g u_b = [[a, ab + c], [x, xb + d]].  If x != 0
    the trace runs over F_q once at the fixed det, and no element is
    central.  If x = 0 and a != d every element is split with eigenvalues
    {a, d}; if x = 0 and a = d one is the scalar a and q - 1 are unipotent.
    """
    table = f.table
    F = table.group.tower.base
    q = table.group.q

    def at(tr, det):
        return f.maps[table.index[table._key_by_trace_det[tr, det]]]

    sums = {}
    for det in range(1, q):
        sums[((0, F.neg(det)), (1, 0))] = _combine((1, at(tr, det)) for tr in range(q))
    for a in range(1, q):
        central = f.maps[table.index[("central", a)]]
        sums[((a, 0), (0, a))] = _combine(
            ((1, central), (q - 1, at(F.add(a, a), F.mul(a, a))))
        )
        for d in range(a + 1, q):
            sums[((a, 0), (0, d))] = _combine(((q, at(F.add(a, d), F.mul(a, d))),))
    return sums


def _combine(weighted) -> dict:
    """The {e: c} terms of sum w * m over (weight w, value map m) pairs."""
    acc = {}
    for w, m in weighted:
        for e, c in m.items():
            acc[e] = acc.get(e, 0) + w * c
    return acc
