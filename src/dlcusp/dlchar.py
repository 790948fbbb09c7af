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
from .groups import BRUTE_FORCE_Q, MatrixGroup, _m_det, _m_inv, _m_mul

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

    The canonical classifier reads (trace, det, scalar flag); for q up to
    BRUTE_FORCE_Q the table is also built independently by closing each
    class under conjugation by group generators, and the two partitions
    must agree class by class.
    """

    def __init__(self, group: MatrixGroup):
        if group.kind != "gl2":
            raise ConfigError("conjugacy tables are built for gl2 only")
        self.group = group
        t = group.tower
        q = group.q
        self.n_modulus = t.order(2)
        self._emb_log = {z: t.discrete_log(t.embed(z, 2)) for z in range(1, q)}
        # each nonzero square with its least root, and the constants of class_key
        self._least_root = {}
        for x in range(1, q):
            self._least_root.setdefault(t.base.mul(x, x), x)
        self._four = t.base.embed_int(4)
        self._half = t.base.inv(t.base.embed_int(2))
        self._half2 = t.scalar(2, 2).inverse()
        # non-central class keys by (trace, det), which determine them
        self._key_by_trace_det = {}
        classes = []
        for z in range(1, q):
            classes.append(
                ConjugacyClass("central", ("central", z), ((z, 0), (0, z)), 1)
            )
        for z in range(1, q):
            classes.append(
                ConjugacyClass(
                    "unipotent", ("unipotent", z), ((z, 1), (0, z)), q * q - 1
                )
            )
        for a in range(1, q):
            for b in range(a + 1, q):
                classes.append(
                    ConjugacyClass(
                        "split", ("split", (a, b)), ((a, 0), (0, b)), q * q + q
                    )
                )
        seen_elliptic = set()
        for e in range(self.n_modulus):
            if (e * q - e) % self.n_modulus == 0:
                continue  # the eigenvalue would be rational
            key = min(e, (e * q) % self.n_modulus)
            if key in seen_elliptic:
                continue
            seen_elliptic.add(key)
            u = t.generator(2) ** key
            tr, det = self._trace_det_of_eigen(u)
            classes.append(
                ConjugacyClass(
                    "elliptic",
                    ("elliptic", key),
                    ((0, t.base.neg(det)), (1, tr)),
                    q * q - q,
                )
            )
        classes.sort(key=lambda c: (c.kind, c.key))
        self.classes = tuple(classes)
        self.index = {c.key: i for i, c in enumerate(self.classes)}
        sizes = (len(self.classes), sum(c.size for c in self.classes))
        if sizes != (q * q - 1, group.gl2_order):
            raise ConsistencyError(
                "class count or class sizes do not match GL2", detail=sizes
            )
        if q <= BRUTE_FORCE_Q:
            self._cross_check_brute_force()

    def _trace_det_of_eigen(self, u):
        uc = u ** self.group.q
        tr = u + uc
        det = u * uc
        if tr.coeffs[1] != 0 or det.coeffs[1] != 0:
            raise ConsistencyError("an eigenvalue has irrational trace or determinant")
        return tr.coeffs[0], det.coeffs[0]

    # -- classification ------------------------------------------------------

    def class_key(self, g) -> tuple:
        """The scalar of a central g; else the key of g's (trace, det), memoized."""
        (a, b), (c, d) = g
        if b == 0 and c == 0 and a == d:
            return ("central", a)
        F = self.group.tower.base
        trace_det = (F.add(a, d), F.sub(F.mul(a, d), F.mul(b, c)))
        got = self._key_by_trace_det.get(trace_det)
        if got is None:
            got = self._noncentral_key(*trace_det)
            self._key_by_trace_det[trace_det] = got
        return got

    def _noncentral_key(self, tr: int, det: int) -> tuple:
        """The class key of a non-central element with this trace and det."""
        t = self.group.tower
        F = t.base
        if det == 0:
            raise ConfigError("singular matrix has no class")
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
    g N, so each coset's sum is formed once in a pass over GL2 and checked
    for all q of its elements.  A character failing any check is not
    returned.
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
    sums = _coset_sums(group, chi)
    if len(sums) * q != group.gl2_order:
        raise ConsistencyError(
            "the cosets g N do not have q elements each",
            detail=(len(sums), group.gl2_order),
        )
    for key, acc in sums.items():
        if abs(acc) > TOL:
            F = group.tower.base
            g = next(x for x in group.gl2_elements() if _coset_key(F, x) == key)
            raise ConsistencyError(
                f"unipotent-averaged sum {acc} does not vanish",
                detail={"coset": key, "representative": g},
            )
    return CuspidalCharacter(group, k, partner, table, chi)


def _coset_key(F, x) -> tuple:
    """(x00, x10, det x): the coset x N = {x u_b} of N = {u_b = [[1, b], [0, 1]]}.

    x u_b keeps x's first column and det, and the matrices with a given
    nonzero first column and det form one affine line of q, so the key
    names the coset.
    """
    return x[0][0], x[1][0], _m_det(F, x)


def _coset_sums(group: MatrixGroup, f) -> dict:
    """{coset key: the sum of f over the coset g N}, in one pass over GL2.

    Each value is the unipotent-averaged sum sum_b f(g u_b) of every g in
    the coset.
    """
    F = group.tower.base
    sums = {}
    for x in group.gl2_elements():
        key = _coset_key(F, x)
        sums[key] = sums.get(key, 0j) + f.value(x)
    return sums
