"""Explicit matrix groups over small odd fields, tori, and involutions.

Everything here is a finite, fully materialized object: group elements are
nested tuples of field codes, tori are explicit element lists with exact
eigenvalue coordinates in the quadratic extension, and involutions carry a
witness matrix that is canonicalized once so orbit bookkeeping is hashing,
not pointwise map comparison.

The two group kinds are ``gl2`` and ``gl2_x_gl2``: direct products of one and
of two GL2 factors.  Every operation works factor by factor through one 2x2
matrix kernel; only ``MatrixGroup.split`` and ``MatrixGroup.join`` know that
a gl2 element is a bare matrix and a product element a pair.  Only odd q is
supported, and enumeration is bounded so every operation stays at desk scale.
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from functools import cached_property, partial
from operator import add
from typing import NamedTuple

from .errors import ConfigError, ConsistencyError, ResourceBoundError
from .gf import FieldElement, build_field, odd_prime_power
from .linalg import fq_det, fq_kernel, fq_nullspace
from .rootdata import InvolutionOnDatum, TwistedRootDatum, load_datum

__all__ = [
    "MatrixGroup",
    "TorusEmbedding",
    "Involution",
    "OrbitCensus",
    "TOrbit",
    "StabilizerData",
    "elliptic_torus",
    "named_involution",
    "involution_orbit",
    "stabilizer_data",
    "orbit_stabilizer_data",
    "lie_fixed_det",
    "derived_theta_star",
    "phi_theta_certified",
]

# group kinds by factor count: KINDS[n - 1] has n GL2 factors
KINDS = ("gl2", "gl2_x_gl2")
Q_BOUND = {"gl2": 13, "gl2_x_gl2": 7}

# up to this q, results read off a shortcut are also computed directly
BRUTE_FORCE_Q = 9

# the census guard: larger involution orbits are refused
ORBIT_CAP = 100_000


def _closure(start, gens, step) -> set:
    """Everything reached from start by steps x -> step(x, s), s in gens."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = step(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# 2x2 matrices over a field F given by its operations: tower.base for base
# codes, tower.element_ops(2) for FieldElement entries of F_{q^2}


def _m_mul(F, x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    dot = F.dot
    return (
        (dot(a, e, b, g), dot(a, f, b, h)),
        (dot(c, e, d, g), dot(c, f, d, h)),
    )


def _m_sub(F, x, y):
    return tuple(tuple(map(F.sub, rx, ry)) for rx, ry in zip(x, y))


def _m_det(F, x):
    (a, b), (c, d) = x
    return F.sub(F.mul(a, d), F.mul(b, c))


def _m_inv(F, x):
    (a, b), (c, d) = x
    di = F.inv(_m_det(F, x))
    mul, neg = F.mul, F.neg
    return (
        (mul(di, d), mul(di, neg(b))),
        (mul(di, neg(c)), mul(di, a)),
    )


def _m_transpose(x):
    (a, b), (c, d) = x
    return ((a, c), (b, d))


def _m_scale(F, c, x):
    return tuple(tuple(F.mul(c, v) for v in row) for row in x)


def _m_identity():
    return ((1, 0), (0, 1))


def _m_is_scalar(m) -> bool:
    return m[0][1] == 0 and m[1][0] == 0 and m[0][0] == m[1][1] != 0


def _act(F, outer, a, ai, g):
    """One factor of an involution: g -> a g a^-1, or a g^-T a^-1 when outer."""
    if outer:
        g = _m_inv(F, _m_transpose(g))
    return _m_mul(F, _m_mul(F, a, g), ai)


def _d_act(F, outer, a, ai, x):
    """The differential of _act on a Lie algebra element."""
    if outer:
        x = _m_scale(F, F.neg(1), _m_transpose(x))
    return _m_mul(F, _m_mul(F, a, x), ai)


# ---------------------------------------------------------------------------
# groups


class MatrixGroup:
    """A fully explicit GL2(F_q) or GL2(F_q) x GL2(F_q).

    The group is the direct product of ``n_factors`` copies of ``factor``,
    its gl2 factor group on the same field tower (the group itself for gl2).
    """

    def __init__(self, kind: str, q: int):
        if kind not in KINDS:
            raise ConfigError(f"unknown group kind {kind!r}; known: {', '.join(KINDS)}")
        try:
            odd_prime_power(q)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        n_factors = KINDS.index(kind) + 1
        # refused before any table is built: the tables grow as q^2
        if q > Q_BOUND[kind]:
            raise ResourceBoundError(
                f"{kind} with q = {q} exceeds the desk-scale bound {Q_BOUND[kind]}",
                required=((q * q - 1) * (q * q - q)) ** n_factors,
            )
        self._setup(build_field(q, (1, 2)), n_factors)

    def _setup(self, tower, n_factors: int) -> None:
        q = tower.q
        self.kind = KINDS[n_factors - 1]
        self.q = q
        self.tower = tower
        self.n_factors = n_factors
        self.gl2_order = (q * q - 1) * (q * q - q)
        self.order = self.gl2_order**n_factors
        self._gl2_elements = None
        self._mul2 = partial(_m_mul, tower.base)
        if n_factors == 1:
            self.factor = self
        else:
            self.factor = object.__new__(MatrixGroup)
            self.factor._setup(tower, 1)

    # -- the element format ---------------------------------------------------

    def split(self, x) -> tuple:
        """The factor matrices of an element (a gl2 element is a bare matrix)."""
        return (x,) if self.n_factors == 1 else x

    def join(self, parts: tuple):
        """The element with these factor matrices; inverse to split."""
        return parts[0] if self.n_factors == 1 else parts

    # -- element arithmetic -------------------------------------------------

    def mul(self, x, y):
        return self.join(tuple(map(self._mul2, self.split(x), self.split(y))))

    def inv(self, x):
        return self.join(tuple(_m_inv(self.tower.base, m) for m in self.split(x)))

    def identity(self):
        return self.scalar(1)

    def contains(self, x) -> bool:
        try:
            parts = self.split(x)
            return len(parts) == self.n_factors and all(map(self._is_gl2, parts))
        except (TypeError, IndexError):
            return False

    def _is_gl2(self, m) -> bool:
        if len(m) != 2 or any(len(r) != 2 for r in m):
            return False
        if any(not (isinstance(v, int) and 0 <= v < self.q) for r in m for v in r):
            return False
        return _m_det(self.tower.base, m) != 0

    def scalar(self, z: int):
        return self.join((((z, 0), (0, z)),) * self.n_factors)

    def center(self):
        """Z(F_q), ordered by scalar codes."""
        scalars = [((z, 0), (0, z)) for z in range(1, self.q)]
        return tuple(map(self.join, itertools.product(scalars, repeat=self.n_factors)))

    # -- enumeration --------------------------------------------------------

    def gl2_elements(self):
        if self._gl2_elements is None:
            F = self.tower.base
            out = [
                m
                for m in (
                    ((a, b), (c, d))
                    for a in range(self.q)
                    for b in range(self.q)
                    for c in range(self.q)
                    for d in range(self.q)
                )
                if _m_det(F, m) != 0
            ]
            if len(out) != self.gl2_order:
                raise ConsistencyError(
                    f"GL2 enumeration found {len(out)} elements, not {self.gl2_order}"
                )
            self._gl2_elements = tuple(out)
        return self._gl2_elements

    def gl2_generators(self):
        """Transvections over a p-basis plus one determinant generator."""
        t = self.tower
        basis = [t.base.embed_int(1)]
        # the base multiplicative generator's powers give an F_p-basis for q = p^f
        gamma = t.generator(1).coeffs[0]
        for i in range(1, t.f):
            basis.append(t.base.mul(basis[-1], gamma))
        gens = []
        for b in basis:
            gens.append(((1, b), (0, 1)))
            gens.append(((1, 0), (b, 1)))
        gens.append(((gamma, 0), (0, 1)))
        return tuple(gens)

    def generators(self):
        """The gl2 generators placed in each factor in turn."""
        one = _m_identity()
        n = self.n_factors
        return tuple(
            self.join(tuple(g if j == i else one for j in range(n)))
            for g in self.factor.gl2_generators()
            for i in range(n)
        )


# ---------------------------------------------------------------------------
# tori


# the aligned root datum of each (group kind, torus kind) that is wired
TORUS_DATA = {
    ("gl2", "split"): "gl2_split",
    ("gl2", "elliptic"): "gl2_elliptic",
    ("gl2_x_gl2", "elliptic"): "gl2xgl2_elliptic",
}


class TorusEmbedding:
    """A maximal torus of the group as an explicit element list.

    The torus is the product of one torus per GL2 factor.  Exact eigenvalue
    coordinates live in the quadratic extension, two per factor: the split
    torus uses its two diagonal entries, the elliptic torus the eigenvalue
    pair (u, u^q) through the basis {1, delta} with delta^2 the canonical
    nonsquare.  Root vectors of the aligned twisted root datum are evaluated
    against these coordinates, one coordinate per lattice basis vector.

    ``points`` is one factor's torus, ``canonical`` maps each point to its
    canonical form modulo central scaling, and ``generators`` generate the
    whole torus: one factor generator at a time in one factor, the identity
    in the others.  The closure of the factor generators is certified to be
    ``points`` at construction.
    """

    def __init__(self, group: MatrixGroup, kind: str):
        if kind not in ("split", "elliptic"):
            raise ConfigError(f"unknown torus kind {kind!r}")
        if (group.kind, kind) not in TORUS_DATA:
            raise ConfigError("only the elliptic torus is wired for the product group")
        self.group = group
        self.kind = kind
        self.datum_name = TORUS_DATA[group.kind, kind]
        self.coord_count = 2 * group.n_factors
        t = group.tower
        q = group.q
        if kind == "split":
            points = tuple(((a, 0), (0, b)) for a in range(1, q) for b in range(1, q))
            expected = (q - 1) ** 2
        else:
            eps = t.smallest_nonsquare()
            pairs = ((a, b) for a in range(q) for b in range(q))
            candidates = (((a, t.base.mul(b, eps)), (b, a)) for a, b in pairs)
            points = tuple(sorted(m for m in candidates if _m_det(t.base, m) != 0))
            expected = q * q - 1
            # the F_{q^2} constants of u = a + b delta, delta^2 = eps
            self.eps = t.embed(eps, 2)
            self.delta = t.sqrt(self.eps)
            self.delta_inv = self.delta.inverse()
            self.half = t.scalar(2, 2).inverse()
        if len(points) != expected:
            raise ConsistencyError(
                f"{kind} torus of GL2 has {len(points)} points, not {expected}"
            )
        self.points = points
        self.canonical = {p: _canonical_witness(t.base, p) for p in points}
        self.elements = tuple(
            map(group.join, itertools.product(points, repeat=group.n_factors))
        )
        self.datum: TwistedRootDatum = load_datum(self.datum_name)
        self._set = frozenset(self.elements)
        # the torus is the direct product of the factor tori, so the
        # generators reach it exactly when the factor generators reach one
        # factor's points: n N products in place of N^n |generators|
        one = _m_identity()
        factor_generators = self._factor_generators()
        reached = _closure(one, factor_generators, group.factor.mul)
        if reached != set(points):
            raise ConsistencyError(
                f"the {kind} torus generators reach {len(reached)} points, "
                f"not the {len(points)} of one factor's torus"
            )
        n = group.n_factors
        self.generators = tuple(
            group.join(tuple(s if j == k else one for j in range(n)))
            for k in range(n)
            for s in factor_generators
        )

    def _factor_generators(self):
        """Generators of one factor's torus: diag(gamma, 1) and diag(1, gamma) for
        the split torus, the point with the eigenvalue generator(2) for the
        cyclic elliptic one."""
        if self.kind == "split":
            gamma = self.group.tower.generator(1).coeffs[0]
            return (((gamma, 0), (0, 1)), ((1, 0), (0, gamma)))
        u = self.group.tower.generator(2)
        return (next(p for p in self.points if self._factor_coords(p)[0] == u),)

    def contains(self, x) -> bool:
        return x in self._set

    # -- coordinates --------------------------------------------------------

    def _factor_coords(self, m):
        t = self.group.tower
        if self.kind == "split":
            return (t.embed(m[0][0], 2), t.embed(m[1][1], 2))
        u = t.embed(m[0][0], 2) + t.embed(m[1][0], 2) * self.delta
        return (u, u**self.group.q)

    def eigen_coords(self, x):
        """Exact coordinate tuple of a torus point (elements of F_{q^2})."""
        return tuple(c for m in self.group.split(x) for c in self._factor_coords(m))

    def eigenvalue_logs(self, x):
        """The discrete log of each factor's first eigenvalue coordinate."""
        return tuple(map(self.group.tower.discrete_log, self.eigen_coords(x)[::2]))

    def root_value(self, root, coords) -> FieldElement:
        acc = self.group.tower.one(2)
        for e, c in zip(root, coords):
            if e:
                acc = acc * c**e
        return acc

    # -- extension points ---------------------------------------------------

    def _factor_point(self, u, v):
        """The factor matrix over F_{q^2} with eigenvalue coordinates (u, v)."""
        if self.kind == "split":
            zero = self.group.tower.zero(2)
            return ((u, zero), (zero, v))
        a = (u + v) * self.half
        b = (u - v) * self.half * self.delta_inv
        return ((a, b * self.eps), (b, a))


def elliptic_torus(group: MatrixGroup) -> TorusEmbedding:
    return TorusEmbedding(group, "elliptic")


# ---------------------------------------------------------------------------
# involutions


def _canonical_witness(F, m):
    """Scale a witness so its first nonzero row-major entry is 1."""
    for v in (m[0][0], m[0][1], m[1][0], m[1][1]):
        if v:
            return _m_scale(F, F.inv(v), m)
    raise ConfigError("zero witness matrix")


class Involution:
    """An order-two automorphism with a canonical witness.

    kinds: inner g -> A g A^-1; outer g -> A transpose(g)^-1 A^-1, each
    factor with its own witness; swap (g, h) -> (a h a^-1, a^-1 g a) on the
    product group, i.e. the factor swap followed by the inner action of the
    witness pair (a, a^-1).  Witnesses are canonical modulo central scaling,
    which identifies automorphisms that are equal as maps.
    """

    def __init__(self, group: MatrixGroup, kind: str, witness):
        self.group = group
        self.kind = kind
        self._swaps = kind == "swap"
        self._outer = kind == "outer"
        if self._swaps:
            if group.n_factors != 2:
                raise ConfigError("swap involutions need the product group")
            if not group.factor.contains(witness):
                raise ConfigError("swap witness must be an invertible 2x2 matrix")
            self.witness = _canonical_witness(group.tower.base, witness)
        elif kind in ("inner", "outer"):
            parts = group.split(witness)
            if len(parts) != group.n_factors:
                raise ConfigError("product involutions carry a witness pair")
            self.witness = group.join(tuple(map(self._check_component, parts)))
        else:
            raise ConfigError(f"unknown involution kind {kind!r}")
        self._key = (self.kind, self.witness)

    def _check_component(self, m):
        F = self.group.tower.base
        if not (len(m) == 2 and all(len(r) == 2 for r in m)) or _m_det(F, m) == 0:
            raise ConfigError("witness must be an invertible 2x2 matrix")
        if self._outer:
            mt = _m_transpose(m)
            if mt != m and mt != _m_scale(F, F.neg(1), m):
                raise ConfigError("outer witness must be symmetric or antisymmetric")
        else:
            if not _m_is_scalar(_m_mul(F, m, m)):
                raise ConfigError("inner witness must square to a central element")
            if _m_is_scalar(m):
                raise ConfigError("inner witness must not be central")
        return _canonical_witness(F, m)

    @cached_property
    def _factor_witnesses(self):
        """(witnesses, their inverses), one per factor of the image."""
        F = self.group.tower.base
        if self._swaps:
            ai = _m_inv(F, self.witness)
            return (self.witness, ai), (ai, self.witness)
        ws = self.group.split(self.witness)
        return ws, tuple(_m_inv(F, w) for w in ws)

    def _on_factors(self, one_factor, x, ws, wis):
        """Map each factor of x (after the swap) by one_factor(a, a^-1, m)."""
        parts = self.group.split(x)
        if self._swaps:
            parts = parts[::-1]
        return self.group.join(tuple(map(one_factor, ws, wis, parts)))

    # -- the action ---------------------------------------------------------

    def apply(self, g):
        act = partial(_act, self.group.tower.base, self._outer)
        return self._on_factors(act, g, *self._factor_witnesses)

    def apply_ext(self, g):
        """The same map on matrices with FieldElement entries of F_{q^2}."""
        t = self.group.tower
        emb = lambda m: tuple(tuple(t.embed(v, 2) for v in row) for row in m)
        ws, wis = self._factor_witnesses
        act = partial(_act, t.element_ops(2), self._outer)
        return self._on_factors(act, g, tuple(map(emb, ws)), tuple(map(emb, wis)))

    def _d_apply(self, x):
        """The differential of theta on a Lie algebra element (same tuple shapes)."""
        d_act = partial(_d_act, self.group.tower.base, self._outer)
        return self._on_factors(d_act, x, *self._factor_witnesses)

    def conjugated(self, g) -> "Involution":
        """The involution Int(g) o theta o Int(g)^-1.

        Factor i of the image reads factor s(i) of the argument (s the swap
        or the identity), so its witness a becomes g_i a g_s(i)^-1, or
        g_i a g_s(i)^T for the outer action.
        """
        F = self.group.tower.base
        gs = self.group.split(g)
        right = gs[::-1] if self._swaps else gs
        right = map(_m_transpose, right) if self._outer else map(partial(_m_inv, F), right)
        ws = self._factor_witnesses[0]
        new = tuple(
            _m_mul(F, _m_mul(F, gi, w), r) for gi, w, r in zip(gs, ws, right)
        )
        witness = new[0] if self._swaps else self.group.join(new)
        return Involution(self.group, self.kind, witness)

    def stabilizes(self, torus: TorusEmbedding) -> bool:
        """Whether theta(T) lies in T, which theta of T's generators decides."""
        return all(torus.contains(self.apply(s)) for s in torus.generators)

    def torus_side(self, torus: TorusEmbedding):
        """(T_theta, the fixed points) of a torus, both in torus.elements order.

        T_theta holds the torus points x with x theta(x)^-1 central: each
        factor of x is then a scalar multiple of the same factor of
        theta(x), which is equality of their canonical forms.  Factor k of
        theta(x) is factor s(k) of x (s the swap or the identity) under the
        k-th witness, so theta is tabulated on the N factor points once per
        factor, n N applications in place of N^n.
        """
        F = self.group.tower.base
        pts, canonical = torus.points, torus.canonical
        act = partial(_act, F, self._outer)
        witnesses = tuple(zip(*self._factor_witnesses))
        if not self._swaps:
            t_theta, fixed = [], []
            for a, ai in witnesses:
                images = [act(a, ai, p) for p in pts]
                t_theta.append(
                    [p for p, im in zip(pts, images) if canonical[p] == _canonical_witness(F, im)]
                )
                fixed.append([p for p, im in zip(pts, images) if im == p])
            join = self.group.join
            return (
                tuple(map(join, itertools.product(*t_theta))),
                tuple(map(join, itertools.product(*fixed))),
            )
        # theta(x0, x1) = (a x1 a^-1, a^-1 x0 a): x0 ~ a x1 a^-1 implies
        # x1 ~ a^-1 x0 a, so the first factor decides
        a, ai = witnesses[0]
        by_image, by_form = {}, {}
        for p in pts:
            im = act(a, ai, p)
            by_image.setdefault(im, []).append(p)
            by_form.setdefault(_canonical_witness(F, im), []).append(p)
        return (
            tuple((x0, x1) for x0 in pts for x1 in by_form.get(canonical[x0], ())),
            tuple((x0, x1) for x0 in pts for x1 in by_image.get(x0, ())),
        )

    def __eq__(self, other):
        return isinstance(other, Involution) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Involution({self.kind}, {self.witness})"


def named_involution(group: MatrixGroup, name: str) -> Involution:
    if name == "swap":
        return Involution(group, "swap", _m_identity())
    witnesses = {
        "diag": ((1, 0), (0, group.tower.base.neg(1))),
        "antidiag": ((0, 1), (1, 0)),
        "transpose-inverse": _m_identity(),
    }
    if name not in witnesses:
        raise ConfigError(f"unknown involution name {name!r}")
    kind = "outer" if name == "transpose-inverse" else "inner"
    return Involution(group, kind, group.join((witnesses[name],) * group.n_factors))


# ---------------------------------------------------------------------------
# orbits and stabilizers


class TOrbit(NamedTuple):
    members: tuple
    representative: "Involution"
    stable: bool


class OrbitCensus:
    """The conjugation orbit of a seed, its torus orbits, and for each member
    th a transporter x with seed.conjugated(x) == th.

    A member th = Int(x) seed Int(x)^-1 has the seed's |G_theta| and
    |G^theta|, and its G^theta is the seed's conjugated by x, so only the
    seed's stabilizers are built and no member's are.
    """

    def __init__(self, seed: "Involution", all_members, t_orbits, transporters: dict):
        self.seed = seed
        self.all_members = all_members
        self.t_orbits = t_orbits
        self.transporters = transporters

    @cached_property
    def seed_stabilizers(self):
        """(|G_theta|, G^theta) of the seed, G^theta in lexicographic order.

        The swap's sets have a closed form (_direct_stabilizers); the other
        kinds are read off the census (_schreier_stabilizers).  Up to
        BRUTE_FORCE_Q one non-seed member is filtered directly as well, and
        its sets must equal the seed's conjugated by its transporter.
        """
        group = self.seed.group
        if self.seed._swaps:
            order, fixed = _direct_stabilizers(self.seed)
        else:
            order, fixed = self._schreier_stabilizers()
        witness = next((th for th in reversed(self.all_members) if th != self.seed), None)
        if group.q <= BRUTE_FORCE_Q and witness is not None:
            x = self.transporters[witness]
            xi = group.inv(x)
            transported = {group.mul(group.mul(x, h), xi) for h in fixed}
            direct_order, direct_fixed = _direct_stabilizers(witness)
            if order != direct_order or transported != set(direct_fixed):
                raise ConsistencyError(
                    "transported stabilizers differ from the direct filter",
                    detail={
                        "witness": witness.witness,
                        "g_theta_order": (order, direct_order),
                        "g_fixed_size": (len(transported), len(direct_fixed)),
                    },
                )
        return order, fixed

    def _schreier_generators(self):
        """h = x(th.conjugated(s))^-1 s x(th) for each member th and group
        generator s: each carries the seed to th, on to th.conjugated(s) and
        back, so it fixes the seed, and together they generate G_theta."""
        group = self.seed.group
        gens = group.generators()
        x = self.transporters
        for th in self.all_members:
            for s in gens:
                yield group.mul(group.mul(group.inv(x[th.conjugated(s)]), s), x[th])

    def _schreier_stabilizers(self):
        """(|G_theta|, G^theta) from the census's Schreier generators.

        G_theta is the seed's stabilizer in the conjugation action whose orbit
        this census holds, so |G_theta| = |G| / |orbit|.  Schreier generators
        are added while they leave the span, until the span has that many
        elements.  It must have exactly that many, each fixing the seed: a
        subgroup of G_theta that large is G_theta, and the census is then the
        whole orbit.  G^theta is the part of the span that theta fixes.
        """
        seed = self.seed
        group = seed.group
        order = group.order // len(self.all_members)
        one = group.identity()
        span, gens = {one}, []
        for h in self._schreier_generators():
            if len(span) >= order:
                break
            if h not in span:
                # checked on entry too, so a wrong transporter cannot grow
                # the span past G_theta towards all of G
                if seed.conjugated(h) != seed:
                    raise ConsistencyError(
                        "a Schreier generator does not fix the seed",
                        detail={"seed": seed.witness, "generator": h},
                    )
                gens.append(h)
                span = _closure(one, gens, group.mul)
        if len(span) * len(self.all_members) != group.order or any(
            seed.conjugated(h) != seed for h in span
        ):
            raise ConsistencyError(
                "the Schreier generators do not span the seed's stabilizer",
                detail={"seed": seed.witness, "span": len(span), "order": order},
            )
        return order, tuple(sorted(h for h in span if seed.apply(h) == h))

    def transporter(self, theta: "Involution"):
        """The transporter x of a member, checked: seed.conjugated(x) == theta."""
        x = self.transporters[theta]
        if self.seed.conjugated(x) != theta:
            raise ConsistencyError(
                "transporter does not carry the seed to the member",
                detail={"member": theta.witness, "transporter": x},
            )
        return x


def involution_orbit(theta0: Involution, torus: TorusEmbedding) -> OrbitCensus:
    """Full conjugation orbit of theta0, partitioned into torus orbits."""
    group = theta0.group
    gens = group.generators()
    # th = Int(x) theta0 Int(x)^-1, so th.conjugated(g) is reached by g x
    transporters = {theta0: group.identity()}
    frontier = [theta0]
    while frontier:
        nxt = []
        for th in frontier:
            for g in gens:
                im = th.conjugated(g)
                if im not in transporters:
                    transporters[im] = group.mul(g, transporters[th])
                    nxt.append(im)
                    if len(transporters) > ORBIT_CAP:
                        raise ResourceBoundError(
                            f"involution orbit exceeds the cap {ORBIT_CAP}",
                            required=len(transporters),
                        )
        frontier = nxt
    members = sorted(transporters, key=lambda th: th._key)
    # torus orbit partition
    unassigned = dict.fromkeys(members)
    t_orbits = []
    for th in members:
        if th not in unassigned:
            continue
        orbit = _closure(th, torus.generators, Involution.conjugated)
        for member in orbit:
            unassigned.pop(member, None)
        orbit = tuple(sorted(orbit, key=lambda x: x._key))
        flags = {member.stabilizes(torus) for member in orbit}
        if len(flags) != 1:
            raise ConsistencyError(
                "torus stability is not constant on a torus orbit",
                detail=[m.witness for m in orbit],
            )
        t_orbits.append(TOrbit(orbit, orbit[0], flags.pop()))
    t_orbits.sort(key=lambda o: o.representative._key)
    return OrbitCensus(theta0, tuple(members), tuple(t_orbits), transporters)


class StabilizerData(NamedTuple):
    g_theta_order: int
    g_fixed_order: int
    t_theta: tuple
    fixed_in_t_theta: tuple
    m: int


def _gl2_stabilizer_sets(factor: MatrixGroup, outer: bool, a, ai):
    """(G_theta, G^theta) for one gl2 factor by direct filtering."""
    F = factor.tower.base
    fixed = []
    twisted = []
    for g in factor.gl2_elements():
        im = _act(F, outer, a, ai, g)
        if im == g:
            fixed.append(g)
            twisted.append(g)
        elif _m_is_scalar(_m_mul(F, g, _m_inv(F, im))):
            twisted.append(g)
    return twisted, fixed


def _direct_stabilizers(theta: Involution):
    """(|G_theta|, G^theta) by direct filtering (closed form for the swap)."""
    group = theta.group
    ws, wis = theta._factor_witnesses
    if theta._swaps:
        # (g, h) is fixed exactly when h = a^-1 g a, and
        # G_theta = {(z a h a^-1, h) : z scalar}
        F = group.tower.base
        fixed = tuple(
            group.join((g, _act(F, False, ws[1], wis[1], g)))
            for g in group.factor.gl2_elements()
        )
        return group.gl2_order * (group.q - 1), fixed
    per = [
        _gl2_stabilizer_sets(group.factor, theta._outer, a, ai) for a, ai in zip(ws, wis)
    ]
    g_theta_order = math.prod(len(twisted) for twisted, _ in per)
    return g_theta_order, tuple(
        map(group.join, itertools.product(*(fixed for _, fixed in per)))
    )


def _row_times(F, r, y):
    """The row vector r times the 2x2 matrix y, by the steps of _m_mul."""
    (e, f), (g, h) = y
    u, v = r
    return F.dot(u, e, v, g), F.dot(u, f, v, h)


def _literal_product(group: MatrixGroup, g_fixed, t_theta) -> set:
    """The product set {x y : x in G^theta, y in T_theta}, one int code per element.

    Row i of x y is (row i of x) y, so each distinct factor matrix y of the
    T_theta points gets a table of r y over the rows r of G^theta's factor
    matrices (at most q^2 of them), and a factor product is two lookups.  A
    row (u, v) has code u q + v, a factor matrix the code (row 0) q^2 +
    (row 1), and factor k of n has weight (q^4)^(n - 1 - k).  Entries lie in
    range(q), so the packing is injective.
    """
    F, q = group.tower.base, group.q
    q2 = q * q
    # per factor slot k: the distinct rows of the factor-k matrices of
    # G^theta, each element's top and bottom row as positions among them,
    # the slot's weight, and for each factor matrix m met so far the
    # weighted codes of the elements' factor-k products x m
    slots = []
    for k, parts in enumerate(zip(*map(group.split, g_fixed))):
        rows = {}
        for x in parts:
            rows.setdefault(x[0], len(rows))
            rows.setdefault(x[1], len(rows))
        weight = q2 ** (2 * (group.n_factors - 1 - k))
        top = [rows[x[0]] for x in parts]
        bottom = [rows[x[1]] for x in parts]
        slots.append((tuple(rows), top, bottom, weight, {}))
    literal = set()
    for y in t_theta:
        codes = None
        for (rows, top, bottom, weight, products), m in zip(slots, group.split(y)):
            if m not in products:
                # the weighted code of r m for each row r, as a bottom and as a top row
                low = [(u * q + v) * weight for u, v in (_row_times(F, r, m) for r in rows)]
                high = [c * q2 for c in low]
                products[m] = array(
                    "q", map(add, map(high.__getitem__, top), map(low.__getitem__, bottom))
                )
            codes = products[m] if codes is None else map(add, codes, products[m])
        literal.update(codes)
    return literal


def _stabilizer_sides(theta: Involution, torus: TorusEmbedding, census: OrbitCensus):
    """(transporter, StabilizerData) of a census member, without the literal
    product check.

    theta = Int(x) seed Int(x)^-1 for its checked transporter x, so
    |G_theta| and |G^theta| are the seed's, and G^theta meets T_theta in the
    torus points theta fixes.
    """
    g_theta_order, g_fixed = census.seed_stabilizers
    x = census.transporter(theta)
    t_theta, fixed_in_t = theta.torus_side(torus)
    if len(fixed_in_t) == 0:
        raise ConsistencyError("identity missing from G^theta intersect T_theta")
    m, rem = divmod(g_theta_order * len(fixed_in_t), len(g_fixed) * len(t_theta))
    if rem:
        raise ConsistencyError(
            "G^theta T_theta does not divide G_theta",
            detail=(g_theta_order, len(g_fixed), len(t_theta), len(fixed_in_t)),
        )
    if m <= 0:
        raise ConsistencyError(f"nonpositive index m = {m}")
    if m & (m - 1):
        warnings.warn(f"index m = {m} is not a power of two", stacklevel=3)
    return x, StabilizerData(g_theta_order, len(g_fixed), t_theta, fixed_in_t, m)


def stabilizer_data(
    theta: Involution, torus: TorusEmbedding, census: OrbitCensus
) -> StabilizerData:
    """Exact stabilizer bookkeeping and the index m = [G_theta : G^theta T_theta].

    census: an orbit census holding theta.  The literal product
    G^theta T_theta = x (G^seed x^-1 T_theta x) x^-1, for theta's
    transporter x, is formed from the seed's G^theta and T_theta conjugated
    by x^-1, and must have |G_theta| / m elements.
    """
    group = theta.group
    x, data = _stabilizer_sides(theta, torus, census)
    xi = group.inv(x)
    conjugated = [group.mul(group.mul(xi, y), x) for y in data.t_theta]
    literal = _literal_product(group, census.seed_stabilizers[1], conjugated)
    if len(literal) * data.m != data.g_theta_order:
        raise ConsistencyError(
            "the literal product G^theta T_theta has the wrong size",
            detail=(len(literal), data.m, data.g_theta_order),
        )
    return data


def orbit_stabilizer_data(picks, torus: TorusEmbedding, census: OrbitCensus):
    """StabilizerData of members of one torus orbit, picks[0] its representative.

    Another pick is Int(t) rep Int(t)^-1 for a torus point t, so its T_theta
    and fixed torus points are the representative's, and its G^theta T_theta
    is the representative's conjugated by t.  The literal product check
    therefore runs on the representative only; every other pick gets its
    own m and transporter check, and its two torus sets must equal the
    representative's.
    """
    first = stabilizer_data(picks[0], torus, census)
    out = [first]
    for theta in picks[1:]:
        _, data = _stabilizer_sides(theta, torus, census)
        if (set(data.t_theta), set(data.fixed_in_t_theta)) != (
            set(first.t_theta),
            set(first.fixed_in_t_theta),
        ):
            raise ConsistencyError(
                "torus orbit members differ in T_theta or their fixed torus points",
                detail={"representative": picks[0].witness, "member": theta.witness},
            )
        out.append(data)
    return tuple(out)


# ---------------------------------------------------------------------------
# the Lie algebra side


def _vec(group: MatrixGroup, x):
    """Coordinates of a Lie algebra element, factor by factor, row-major."""
    return [v for m in group.split(x) for row in m for v in row]


def _unvec(group: MatrixGroup, v):
    return group.join(
        tuple(((v[i], v[i + 1]), (v[i + 2], v[i + 3])) for i in range(0, len(v), 4))
    )


class LieFixedSpace:
    """Basis of the +1 eigenspace of d(theta) on the Lie algebra.

    Basis vector i is 1 at free coordinate i and 0 at the other free
    coordinates (fq_kernel), so an element of the space has its entries
    there as its coordinates.
    """

    def __init__(self, theta: Involution):
        group = theta.group
        F = group.tower.base
        n = 4 * group.n_factors
        units = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        cols = [_vec(group, theta._d_apply(_unvec(group, e))) for e in units]
        # rows of (d theta - id) and (d theta + id), acting on coordinate vectors
        plus, free = fq_kernel(
            [[F.sub(cols[j][i], units[i][j]) for j in range(n)] for i in range(n)], F
        )
        minus = fq_nullspace(
            [[F.add(cols[j][i], units[i][j]) for j in range(n)] for i in range(n)], F
        )
        if len(plus) + len(minus) != n:
            raise ConsistencyError(
                "d theta is not semisimple with signs", detail=(len(plus), len(minus), n)
            )
        self.theta = theta
        self.dimension = len(plus)
        self.vectors = plus
        self.free = free

    def matrix_of_ad(self, g):
        """Coordinates of Ad(g) restricted to the fixed space.

        Each image is read at the free coordinates and must equal the
        combination of the basis with those coefficients.
        """
        group = self.theta.group
        F = group.tower.base
        gi = group.inv(g)
        cols = []
        for v in self.vectors:
            image = _vec(group, group.mul(group.mul(g, _unvec(group, v)), gi))
            coords = [image[c] for c in self.free]
            rebuilt = [F.zero] * len(image)
            for c, w in zip(coords, self.vectors):
                rebuilt = [F.add(r, F.mul(c, x)) for r, x in zip(rebuilt, w)]
            if rebuilt != image:
                raise ConsistencyError("Ad(g) does not preserve the fixed space")
            cols.append(coords)
        n = self.dimension
        return [[cols[j][i] for j in range(n)] for i in range(n)]


def lie_fixed_det(theta: Involution, g, space: LieFixedSpace) -> int:
    """det(Ad(g)) on the theta-fixed Lie subalgebra, certified to be a sign."""
    F = theta.group.tower.base
    if space.dimension == 0:
        return 1
    d = fq_det(space.matrix_of_ad(g), F)
    if d == F.embed_int(1):
        return 1
    if d == F.embed_int(-1):
        return -1
    raise ConsistencyError(f"det Ad is not a sign: code {d}")


# ---------------------------------------------------------------------------
# the lattice shadow of an involution on a torus


def derived_theta_star(theta: Involution, torus: TorusEmbedding) -> InvolutionOnDatum:
    """Recover the lattice involution induced on the torus character lattice.

    Works from the generator points over the quadratic extension, whose
    discrete-log coordinate tuples are the unit vectors, so each column of
    the matrix is read off exactly; the result is validated against the
    aligned datum.
    """
    t = torus.group.tower
    if not theta.stabilizes(torus):
        raise ConfigError("involution does not stabilize the torus")
    n = torus.coord_count
    N = t.order(2)
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        coords = _coords_of_ext(torus, theta.apply_ext(_generator_point(torus, k)))
        for j in range(n):
            e = t.discrete_log(coords[j]) % N
            if e > N // 2:
                e -= N
            if e not in (-1, 0, 1):
                raise ConsistencyError(
                    f"involution shadow has a non-unimodular exponent {e}"
                )
            # row k of the matrix lists the image exponents of basis slot k
            rows[k][j] = e
    shadow = tuple(tuple(r) for r in rows)
    return InvolutionOnDatum(torus.datum, shadow, name="derived")


def _generator_point(torus: TorusEmbedding, k: int):
    """The point over F_{q^2} with the generator of F_{q^2} in coordinate k, 1 elsewhere.

    These coord_count points generate the torus over F_{q^2}.
    """
    t = torus.group.tower
    g, one = t.generator(2), t.one(2)
    return _point_from_coords(
        torus, tuple(g if i == k else one for i in range(torus.coord_count))
    )


def _point_from_coords(torus: TorusEmbedding, coords):
    """The point over F_{q^2} with these eigenvalue coordinates."""
    return torus.group.join(
        tuple(
            torus._factor_point(coords[i], coords[i + 1])
            for i in range(0, len(coords), 2)
        )
    )


def _coords_of_ext(torus: TorusEmbedding, m):
    """Eigenvalue coordinates of a torus point over F_{q^2}, checked."""
    coords = ()
    for f in torus.group.split(m):
        if torus.kind == "split":
            if not (f[0][1].is_zero() and f[1][0].is_zero()):
                raise ConsistencyError("extension image is not in the split torus")
            coords += (f[0][0], f[1][1])
            continue
        a, b = f[0][0], f[1][0]
        if f[0][1] != b * torus.eps or f[1][1] != a:
            raise ConsistencyError("extension image is not in the elliptic torus")
        coords += (a + b * torus.delta, a - b * torus.delta)
    return coords


def phi_theta_certified(theta: Involution, torus: TorusEmbedding):
    """Roots killed by the torus part of theta, certified three ways.

    t -> t theta(t) is a homomorphism of the abelian torus, so the images
    s_k of the generator points generate T+ = {t theta(t)} over
    F_{q^2}.  The set of roots equal to 1 at every s_k (those vanishing
    on T+) must equal the set of roots negated by the lattice shadow, whose
    exponents must be unimodular, and the common centralizer of the s_k in
    the Lie algebra must have dimension rank + |the set|.  Returns the
    sorted root tuple.
    """
    group = torus.group
    t = group.tower
    datum = torus.datum
    shadow = derived_theta_star(theta, torus)
    negated = set(
        a for a in datum.roots if shadow.apply(a) == tuple(-x for x in a)
    )
    E = t.element_ops(2)
    plus = []
    for k in range(torus.coord_count):
        e = _generator_point(torus, k)
        image = theta.apply_ext(e)
        s = group.join(tuple(map(partial(_m_mul, E), group.split(e), group.split(image))))
        plus.append((s, _coords_of_ext(torus, s)))
    one = t.one(2)
    vanishing = set(
        a for a in datum.roots if all(torus.root_value(a, c) == one for _, c in plus)
    )
    if vanishing != negated:
        raise ConsistencyError(
            "vanishing-on-T+ and negated-by-theta root sets differ",
            detail={"vanishing": sorted(vanishing), "negated": sorted(negated)},
        )
    # centralizer dimension certificate
    dim = _centralizer_dimension(group, [s for s, _ in plus], E)
    if dim != torus.coord_count + len(vanishing):
        raise ConsistencyError(
            "Lie centralizer of T+ has the wrong dimension",
            detail={"dim": dim, "expected": torus.coord_count + len(vanishing)},
        )
    return tuple(sorted(vanishing))


def _centralizer_dimension(group: MatrixGroup, mats, E) -> int:
    """dim over the field E of {X in the Lie algebra : Xs = sX for all s}."""
    n = 4 * group.n_factors
    basis = [[E.one if i == j else E.zero for j in range(n)] for i in range(n)]
    for s in mats:
        if not basis:
            break
        rows = []
        for vec in basis:
            x = _unvec(group, vec)
            comm = tuple(
                _m_sub(E, _m_mul(E, xm, sm), _m_mul(E, sm, xm))
                for xm, sm in zip(group.split(x), group.split(s))
            )
            rows.append(_vec(group, group.join(comm)))
        # nullspace of the commutator map restricted to the current span
        coeff_rows = [[rows[j][i] for j in range(len(basis))] for i in range(n)]
        basis = [
            [sum((c * v for c, v in zip(co, col)), E.zero) for col in zip(*basis)]
            for co in fq_nullspace(coeff_rows, E)
        ]
    return len(basis)
