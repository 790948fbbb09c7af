"""Cuspidal irreducible characters of GL2 over a small odd field.

Character values are stored exactly, as integer combinations of roots of
unity indexed by discrete-log exponents; complex floats are derived views.
A character object is only handed out after passing a four-part
certification (norm one, correct degree, unipotent-averaged sums vanish,
and invariance under the Frobenius partner exponent), so downstream
consumers can treat "cuspidal" as a checked property rather than a label.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConfigError, ConsistencyError
from .groups import BRUTE_FORCE_Q, MatrixGroup, _m_inv, _m_mul

# the tolerance of every comparison of a complex character sum with its exact value
TOL = 1e-6

__all__ = [
    "TOL",
    "ConjugacyClass",
    "ConjugacyTable",
    "conjugacy_classes",
    "ClassFunction",
    "general_position_exponents",
    "cuspidal_character",
    "CuspidalCharacter",
]


@dataclass(frozen=True)
class ConjugacyClass:
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
    generators, and the two must agree class by class.
    """

    def __init__(self, group: MatrixGroup):
        if group.kind != "gl2":
            raise ConfigError("conjugacy tables are built for gl2 only")
        self.group = group
        t = group.tower
        F = t.base
        q = group.q
        self.n_modulus = t.order(2)
        self._emb_log = {z: t.discrete_log(t.embed(z, 2)) for z in range(1, q)}
        # each nonzero square with its least root, and the constants of _noncentral_key
        self._least_root = {}
        for x in range(1, q):
            self._least_root.setdefault(F.mul(x, x), x)
        self._four = F.embed_int(4)
        self._half = F.inv(F.embed_int(2))
        self._half2 = t.scalar(2, 2).inverse()
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
        s2 = t.sqrt(t.embed(disc, 2))
        u = (t.embed(tr, 2) + s2) * self._half2
        e = t.discrete_log(u)
        return ("elliptic", min(e, (e * self.group.q) % self.n_modulus))

    def class_of(self, g) -> int:
        return self.index[self.class_key(g)]

    # -- independent partition ----------------------------------------------

    def _cross_check_brute_force(self):
        group = self.group
        t = group.tower
        gens = group.gl2_generators()
        gen_invs = [_m_inv(t.base, s) for s in gens]
        remaining = dict.fromkeys(group.gl2_elements())
        found = {}
        for start in group.gl2_elements():
            if start not in remaining:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for x in frontier:
                    for s, si in zip(gens, gen_invs):
                        y = _m_mul(t.base, _m_mul(t.base, s, x), si)
                        if y not in orbit:
                            orbit.add(y)
                            nxt.append(y)
                frontier = nxt
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
        n = table.n_modulus
        self._complex = tuple(
            sum(
                c * cmath.exp(2j * math.pi * (e % n) / n)
                for e, c in m.items()
            )
            if m
            else 0j
            for m in self.maps
        )

    def value(self, g) -> complex:
        return self._complex[self.table.class_of(g)]

    def inner(self, other: "ClassFunction") -> complex:
        if other.table is not self.table:
            raise ConfigError("class functions live on different groups")
        order = self.table.group.gl2_order
        acc = 0j
        for cls, v, w in zip(self.table.classes, self._complex, other._complex):
            acc += cls.size * v * w.conjugate()
        return acc / order


def general_position_exponents(group: MatrixGroup):
    """Frobenius-orbit representatives of regular character exponents.

    Returns sorted pairs (k, k*q mod N) with k the smaller member; there are
    (q^2 - q) / 2 of them.
    """
    q = group.q
    n = group.tower.order(2)
    pairs = []
    seen = set()
    for k in range(1, n):
        if (k * q - k) % n == 0 or k in seen:
            continue
        partner = (k * q) % n
        seen.add(k)
        seen.add(partner)
        pairs.append((k, partner))
    if len(pairs) != (q * q - q) // 2:
        raise ConsistencyError(f"{len(pairs)} Frobenius pairs, not (q^2 - q) / 2")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# cuspidal characters


@dataclass(frozen=True)
class CuspidalCharacter:
    group: MatrixGroup
    exponent: int
    partner: int
    table: ConjugacyTable
    chi: ClassFunction

    def value(self, g) -> complex:
        return self.chi.value(g)


def _value_maps(table: ConjugacyTable, k: int):
    n = table.n_modulus
    q = table.group.q
    maps = []
    for cls in table.classes:
        if cls.kind == "central":
            e = (k * table._emb_log[cls.key[1]]) % n
            maps.append({e: q - 1})
        elif cls.kind == "unipotent":
            e = (k * table._emb_log[cls.key[1]]) % n
            maps.append({e: -1})
        elif cls.kind == "split":
            maps.append({})
        else:
            e = cls.key[1]
            m = {}
            for ex in ((k * e) % n, (k * e * q) % n):
                m[ex] = m.get(ex, 0) - 1
            maps.append(m)
    return maps


def cuspidal_character(group: MatrixGroup, k: int) -> CuspidalCharacter:
    """The cuspidal character attached to a regular exponent, certified.

    Certification: unit norm, degree q - 1, vanishing unipotent-averaged
    sums sum_b chi(g u_b) at every group element, and exact agreement with
    the Frobenius partner exponent.  The sum at g is the sum over the coset
    g N, which depends only on the coset's type (`_coset_type_sums`), so
    each type's sum is formed once from the (trace, det) table and GL2 is
    never enumerated.  A failure names a representative g of the type,
    where the literal sum over g u_b replays it.  A character failing any
    check is not returned.
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
    chi_partner = ClassFunction(table, _value_maps(table, partner))
    if chi.maps != chi_partner.maps:
        raise ConsistencyError(
            "character values depend on the exponent representative",
            detail=(k, partner),
        )
    norm = chi.inner(chi)
    if abs(norm - 1) > TOL:
        raise ConsistencyError(f"character norm {norm} is not 1")
    degree = chi.value(((1, 0), (0, 1)))
    if degree != q - 1:
        raise ConsistencyError(f"degree {degree} differs from q - 1 = {q - 1}")
    for g, acc in _coset_type_sums(chi).items():
        if abs(acc) > TOL:
            raise ConsistencyError(
                f"unipotent-averaged sum {acc} does not vanish",
                detail={"representative": g},
            )
    return CuspidalCharacter(group, k, partner, table, chi)


def _coset_type_sums(f: ClassFunction) -> dict:
    """{representative g: the sum of f over the coset g N}, one per coset type.

    For g = [[a, c], [x, d]], g u_b = [[a, ab + c], [x, xb + d]].  If x != 0
    the trace runs over F_q once at the fixed det, and no element is
    central.  If x = 0 and a != d every element is split with eigenvalues
    {a, d}; if x = 0 and a = d one is the scalar a and q - 1 are unipotent.
    """
    table = f.table
    F = table.group.tower.base
    q = table.group.q

    def at(tr, det):
        return f._complex[table.index[table._key_by_trace_det[tr, det]]]

    sums = {}
    for det in range(1, q):
        sums[((0, F.neg(det)), (1, 0))] = sum(at(tr, det) for tr in range(q))
    for a in range(1, q):
        central = f._complex[table.index[("central", a)]]
        sums[((a, 0), (0, a))] = central + (q - 1) * at(F.add(a, a), F.mul(a, a))
        for d in range(a + 1, q):
            sums[((a, 0), (0, d))] = q * at(F.add(a, d), F.mul(a, d))
    return sums
