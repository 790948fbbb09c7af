"""Explicit matrix groups over small odd fields, tori, and involutions.

Everything here is a finite, fully materialized object: group elements are
nested tuples of field codes, tori are explicit element lists whose points
carry the discrete logs of their eigenvalues in the quadratic extension, and
involutions carry a witness matrix that is canonicalized once so orbit
bookkeeping is hashing, not pointwise map comparison.

The two group kinds are ``gl2`` and ``gl2_x_gl2``: direct products of one and
of two GL2 factors.  Every operation works factor by factor through the
field's 2x2 matrix kernel (``mat_mul`` and its kin in ``dlcusp.gf``); only
``MatrixGroup.split`` and ``MatrixGroup.join`` know that a gl2 element is a
bare matrix and a product element a pair.  Only odd q is supported, and
enumeration is bounded so every operation stays at desk scale.
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from functools import cached_property, partial
from operator import add, mul
from typing import NamedTuple

from .errors import ConfigError, ConsistencyError, ResourceBoundError
from .gf import build_field, odd_prime_power
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
# 2x2 matrices over a field F that owns the kernel (mat_mul, mat_inv,
# mat_det): tower.base for F_q codes, read off its tables, and tower.ext for
# F_{q^2} codes, of which F_q's are the ones below q


def _m_sub(F, x, y):
    return tuple(tuple(map(F.sub, rx, ry)) for rx, ry in zip(x, y))


def _m_transpose(x):
    (a, b), (c, d) = x
    return ((a, c), (b, d))


def _m_neg(F, x):
    return tuple(tuple(map(F.neg, row)) for row in x)


def _m_identity():
    return ((1, 0), (0, 1))


def _m_is_scalar(m) -> bool:
    return m[0][1] == 0 and m[1][0] == 0 and m[0][0] == m[1][1] != 0


def _act(F, outer, a, ai, g):
    """One factor of an involution: g -> a g a^-1, or a g^-T a^-1 when outer."""
    if outer:
        g = F.mat_inv(_m_transpose(g))
    return F.mat_mul(F.mat_mul(a, g), ai)


def _d_act(F, outer, a, ai, x):
    """The differential of _act on a Lie algebra element."""
    if outer:
        x = _m_neg(F, _m_transpose(x))
    return F.mat_mul(F.mat_mul(a, x), ai)


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
        self._setup(build_field(q), n_factors)

    def _setup(self, tower, n_factors: int) -> None:
        q = tower.q
        self.kind = KINDS[n_factors - 1]
        self.q = q
        self.tower = tower
        self.n_factors = n_factors
        self.gl2_order = (q * q - 1) * (q * q - q)
        self.order = self.gl2_order**n_factors
        self._gl2_elements = None
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
        return self.join(tuple(map(self.tower.base.mat_mul, self.split(x), self.split(y))))

    def inv(self, x):
        return self.join(tuple(map(self.tower.base.mat_inv, self.split(x))))

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
        return self.tower.base.mat_det(m) != 0

    def scalar(self, z: int):
        return self.join((((z, 0), (0, z)),) * self.n_factors)

    def center(self):
        """Z(F_q), ordered by scalar codes."""
        scalars = [((z, 0), (0, z)) for z in range(1, self.q)]
        return tuple(map(self.join, itertools.product(scalars, repeat=self.n_factors)))

    # -- enumeration --------------------------------------------------------

    def gl2_elements(self):
        if self._gl2_elements is None:
            det = self.tower.base.mat_det
            out = [
                m
                for m in (
                    ((a, b), (c, d))
                    for a in range(self.q)
                    for b in range(self.q)
                    for c in range(self.q)
                    for d in range(self.q)
                )
                if det(m) != 0
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
        gamma = t.base.generator
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


class _TorusShape(NamedTuple):
    """One GL2 factor's torus of a kind, as data: its points are
    P diag(u, v) P^-1 for the eigenbasis P over F_{q^2}."""

    basis: tuple  # P, whose columns are the eigenvectors of u and v
    pairs: tuple  # the (u, v) of the F_q-rational points
    generators: tuple  # the (u, v) of generators of the rational points
    order: int  # the number of rational points


def _torus_shape(tower, kind: str) -> _TorusShape:
    """The split torus: P = I, (u, v) in F_q^x x F_q^x, generated by
    (gamma, 1) and (1, gamma) for gamma the generator of F_q^x.  The
    elliptic torus: P has columns (delta, 1) and (-delta, 1), delta^2 the
    canonical nonsquare eps, so its points are ((a, b eps), (b, a)) with
    u, v = a +- b delta; they are rational when v = u^q, and (g, g^q)
    generates them for the generator g of F_{q^2}^x.  No other kind is
    known."""
    q, E = tower.q, tower.ext
    if kind == "split":
        gamma = tower.base.generator
        units = range(1, q)
        return _TorusShape(
            _m_identity(),
            tuple(itertools.product(units, units)),
            ((gamma, 1), (1, gamma)),
            (q - 1) ** 2,
        )
    if kind == "elliptic":
        delta = tower.sqrt(tower.smallest_nonsquare())
        g = E.generator
        return _TorusShape(
            ((delta, E.neg(delta)), (1, 1)),
            tuple((u, E.pow(u, q)) for u in range(1, q * q)),
            ((g, E.pow(g, q)),),
            q * q - 1,
        )
    raise ConfigError(f"unknown torus kind {kind!r}")


class TorusEmbedding:
    """A maximal torus of the group as an explicit element list.

    The torus is the product of one torus per GL2 factor, each the
    ``_torus_shape`` of its kind: a factor point is P diag(u, v) P^-1.  The
    log vector l(t) of a point lists the discrete logs (log u, log v) of
    each factor in turn, and a character of T, a root or lambda, is a
    vector a of the aligned twisted root datum's lattice, whose value at t
    is the generator of F_{q^2}^x to the power <a, l(t)> mod q^2 - 1.

    ``points`` is one factor's torus, ``logs`` maps each point to its log
    pair, ``canonical`` maps each point to its canonical form modulo
    central scaling, and ``generators`` generate the whole torus: one factor
    generator at a time in one factor, the identity in the others.  The
    closure of the factor generators is certified to be ``points`` at
    construction.
    """

    def __init__(self, group: MatrixGroup, kind: str):
        t = group.tower
        shape = _torus_shape(t, kind)
        if (group.kind, kind) not in TORUS_DATA:
            raise ConfigError("only the elliptic torus is wired for the product group")
        self.group = group
        self.kind = kind
        self.datum_name = TORUS_DATA[group.kind, kind]
        self.coord_count = 2 * group.n_factors
        self._basis = shape.basis, t.ext.mat_inv(shape.basis)
        log = t.discrete_log
        self.logs = {self._rational_point(u, v): (log(u), log(v)) for u, v in shape.pairs}
        if len(self.logs) != shape.order:
            raise ConsistencyError(
                f"{kind} torus of GL2 has {len(self.logs)} points, not {shape.order}"
            )
        points = self.points = tuple(sorted(self.logs))
        self.canonical = {p: t.base.mat_monic(p) for p in points}
        self.elements = tuple(
            map(group.join, itertools.product(points, repeat=group.n_factors))
        )
        self.datum: TwistedRootDatum = load_datum(self.datum_name)
        self._set = frozenset(self.elements)
        # the torus is the direct product of the factor tori, so the
        # generators reach it exactly when the factor generators reach one
        # factor's points: n N products in place of N^n |generators|
        one = _m_identity()
        factor_generators = [self._rational_point(u, v) for u, v in shape.generators]
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

    def contains(self, x) -> bool:
        return x in self._set

    def eigenvalue_logs(self, x):
        """The log vector l(x) of a torus point: each factor's log pair in turn."""
        return tuple(e for m in self.group.split(x) for e in self.logs[m])

    # -- points over F_{q^2} -------------------------------------------------

    def _factor_matrix(self, u, v):
        """P diag(u, v) P^-1 over F_{q^2}."""
        E = self.group.tower.ext
        P, P_inv = self._basis
        return E.mat_mul(E.mat_mul(P, ((u, 0), (0, v))), P_inv)

    def _rational_point(self, u, v):
        """The factor point with eigenvalues (u, v), checked F_q-rational:
        F_{q^2} codes below q are F_q's."""
        m = self._factor_matrix(u, v)
        if max(map(max, m)) >= self.group.q:
            raise ConsistencyError(
                f"the {self.kind} torus point of {(u, v)} is not F_q-rational"
            )
        return m

    def ext_point(self, logs):
        """The point over F_{q^2} with log vector ``logs``."""
        powers = self.group.tower.ext.powers
        return self.group.join(
            tuple(
                self._factor_matrix(powers[logs[i]], powers[logs[i + 1]])
                for i in range(0, len(logs), 2)
            )
        )

    def ext_logs(self, x):
        """The log vector of a point over F_{q^2}; each factor m must be
        diagonal in the eigenbasis, as P^-1 m P."""
        E = self.group.tower.ext
        log = self.group.tower.discrete_log
        P, P_inv = self._basis
        logs = ()
        for m in self.group.split(x):
            (u, b), (c, v) = E.mat_mul(E.mat_mul(P_inv, m), P)
            if b or c:
                raise ConsistencyError(f"extension image is not in the {self.kind} torus")
            logs += (log(u), log(v))
        return logs


def elliptic_torus(group: MatrixGroup) -> TorusEmbedding:
    return TorusEmbedding(group, "elliptic")


# ---------------------------------------------------------------------------
# involutions


def _check_component(factor: MatrixGroup, kind: str, m):
    """The monic form of one factor's witness: it must be in GL2(F_q), as
    factor.contains judges, and meet its kind's condition."""
    if not factor.contains(m):
        raise ConfigError(f"{kind} witness must be an invertible 2x2 matrix of F_q codes")
    F = factor.tower.base
    if kind == "outer":
        mt = _m_transpose(m)
        if mt != m and mt != _m_neg(F, m):
            raise ConfigError("outer witness must be symmetric or antisymmetric")
    elif kind == "inner":
        if not _m_is_scalar(F.mat_mul(m, m)):
            raise ConfigError("inner witness must square to a central element")
        if _m_is_scalar(m):
            raise ConfigError("inner witness must not be central")
    return F.mat_monic(m)


class Involution:
    """An order-two automorphism with a canonical witness.

    kinds: inner g -> A g A^-1; outer g -> A transpose(g)^-1 A^-1, each
    factor with its own witness; swap (g, h) -> (a h a^-1, a^-1 g a) on the
    product group, i.e. the factor swap followed by the inner action of the
    witness pair (a, a^-1).  Witnesses are canonical modulo central scaling,
    which identifies automorphisms that are equal as maps.
    """

    def __init__(self, group: MatrixGroup, kind: str, witness):
        if kind == "swap":
            if group.n_factors != 2:
                raise ConfigError("swap involutions need the product group")
            witness = _check_component(group.factor, kind, witness)
        elif kind in ("inner", "outer"):
            parts = group.split(witness)
            if not isinstance(parts, (tuple, list)) or len(parts) != group.n_factors:
                raise ConfigError("product involutions carry a witness pair")
            check = partial(_check_component, group.factor, kind)
            witness = group.join(tuple(map(check, parts)))
        else:
            raise ConfigError(f"unknown involution kind {kind!r}")
        self._bind(group, kind, witness)

    def _bind(self, group: MatrixGroup, kind: str, witness):
        """Set the fields for a witness that is checked and canonical."""
        self.group = group
        self.kind = kind
        self._swaps = kind == "swap"
        self._outer = kind == "outer"
        self.witness = witness
        self._key = (kind, witness)

    @cached_property
    def _factor_witnesses(self):
        """(witnesses, their inverses), one per factor of the image."""
        F = self.group.tower.base
        if self._swaps:
            ai = F.mat_inv(self.witness)
            return (self.witness, ai), (ai, self.witness)
        ws = self.group.split(self.witness)
        return ws, tuple(map(F.mat_inv, ws))

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
        """The same map on matrices over F_{q^2}; the witnesses' F_q codes
        are F_{q^2} codes as they stand."""
        act = partial(_act, self.group.tower.ext, self._outer)
        return self._on_factors(act, g, *self._factor_witnesses)

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
        right = map(_m_transpose, right) if self._outer else map(F.mat_inv, right)
        ws = self._factor_witnesses[0]
        new = [F.mat_mul(F.mat_mul(gi, w), r) for gi, w, r in zip(gs, ws, right)]
        new = tuple(map(F.mat_monic, new))
        # a conjugate of a checked witness passes the checks by construction
        image = object.__new__(Involution)
        image._bind(self.group, self.kind, new[0] if self._swaps else self.group.join(new))
        return image

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
                    [p for p, im in zip(pts, images) if canonical[p] == F.mat_monic(im)]
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
            by_form.setdefault(F.mat_monic(im), []).append(p)
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
    # th = Int(x) theta0 Int(x)^-1, so th.conjugated(g) is reached by g x
    transporters = {theta0: group.identity()}

    def step(th, g):
        im = th.conjugated(g)
        if im not in transporters:
            transporters[im] = group.mul(g, transporters[th])
            if len(transporters) > ORBIT_CAP:
                raise ResourceBoundError(
                    f"involution orbit exceeds the cap {ORBIT_CAP}",
                    required=len(transporters),
                )
        return im

    _closure(theta0, group.generators(), step)
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
        elif _m_is_scalar(F.mat_mul(g, F.mat_inv(im))):
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


def _literal_product(group: MatrixGroup, g_fixed, t_theta) -> set:
    """The product set {x y : x in G^theta, y in T_theta}, one int code per element.

    Row i of x y is (row i of x) y, so each distinct factor matrix y of the
    T_theta points gets a table of r y (the base field's row_times, read off
    its tables) over the rows r of G^theta's factor matrices (at most q^2 of
    them), and a factor product is two lookups.  A row (u, v) has code
    u q + v, a factor matrix the code (row 0) q^2 + (row 1), and factor k of
    n has weight (q^4)^(n - 1 - k).  Entries lie in range(q), so the packing
    is injective.
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
                low = [(u * q + v) * weight for u, v in (F.row_times(r, m) for r in rows)]
                high = [c * q2 for c in low]
                products[m] = array(
                    "q", map(add, map(high.__getitem__, top), map(low.__getitem__, bottom))
                )
            codes = products[m] if codes is None else map(add, codes, products[m])
        literal.update(codes)
    return literal


def stabilizer_data(
    theta: Involution, torus: TorusEmbedding, census: OrbitCensus
) -> StabilizerData:
    """Exact stabilizer bookkeeping and the index m = [G_theta : G^theta T_theta].

    census: an orbit census holding theta.  theta = Int(x) seed Int(x)^-1
    for its checked transporter x, so |G_theta| and |G^theta| are the
    seed's, and G^theta meets T_theta in the torus points theta fixes.  The
    literal product G^theta T_theta = x (G^seed x^-1 T_theta x) x^-1 is
    formed from the seed's G^theta and T_theta conjugated by x^-1, and must
    have |G_theta| / m elements.
    """
    group = theta.group
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
        warnings.warn(f"index m = {m} is not a power of two", stacklevel=2)
    xi = group.inv(x)
    conjugated = [group.mul(group.mul(xi, y), x) for y in t_theta]
    literal = _literal_product(group, g_fixed, conjugated)
    if len(literal) * m != g_theta_order:
        raise ConsistencyError(
            "the literal product G^theta T_theta has the wrong size",
            detail=(len(literal), m, g_theta_order),
        )
    return StabilizerData(g_theta_order, len(g_fixed), t_theta, fixed_in_t, m)


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
        # each non-free coordinate with the basis vectors' entries there
        self._bound = [
            (i, [v[i] for v in plus]) for i in range(n) if i not in free
        ]

    def matrix_of_ad(self, g):
        """Coordinates of Ad(g) restricted to the fixed space.

        Each image is read at the free coordinates and must equal the
        combination of the basis with those coefficients.  At a free
        coordinate the combination is its coefficient by construction, so
        only the other coordinates are compared.
        """
        group = self.theta.group
        F = group.tower.base
        add, mul = F.add, F.mul
        gi = group.inv(g)
        cols = []
        for v in self.vectors:
            image = _vec(group, group.mul(group.mul(g, _unvec(group, v)), gi))
            coords = [image[c] for c in self.free]
            for i, entries in self._bound:
                acc = F.zero
                for c, x in zip(coords, entries):
                    acc = add(acc, mul(c, x))
                if acc != image[i]:
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

    Works from the generator points over the quadratic extension, whose log
    vectors are the unit vectors, so row k of the matrix is the log vector
    of theta of generator point k, read off exactly; the result is
    validated against the aligned datum.
    """
    if not theta.stabilizes(torus):
        raise ConfigError("involution does not stabilize the torus")
    N = torus.group.tower.ext.order
    rows = []
    for k in range(torus.coord_count):
        row = []
        for e in torus.ext_logs(theta.apply_ext(_generator_point(torus, k))):
            if e > N // 2:
                e -= N
            if e not in (-1, 0, 1):
                raise ConsistencyError(
                    f"involution shadow has a non-unimodular exponent {e}"
                )
            row.append(e)
        rows.append(tuple(row))
    return InvolutionOnDatum(torus.datum, tuple(rows), name="derived")


def _generator_point(torus: TorusEmbedding, k: int):
    """The point over F_{q^2} with log vector the k-th unit vector.

    These coord_count points generate the torus over F_{q^2}.
    """
    return torus.ext_point(tuple(int(i == k) for i in range(torus.coord_count)))


def phi_theta_certified(theta: Involution, torus: TorusEmbedding):
    """Roots killed by the torus part of theta, certified three ways.

    t -> t theta(t) is a homomorphism of the abelian torus, so the images
    s_k of the generator points generate T+ = {t theta(t)} over
    F_{q^2}.  The set of roots equal to 1 at every s_k (those vanishing
    on T+, <a, l(s_k)> = 0 mod q^2 - 1) must equal the shadow's phi_theta,
    the roots negated by the lattice shadow, whose exponents must be
    unimodular and whose negated roots must be closed under -1, and the
    common centralizer of the s_k in the Lie algebra must have dimension
    rank + |the set|.  Returns the sorted root tuple.
    """
    group = torus.group
    datum = torus.datum
    negated = set(derived_theta_star(theta, torus).phi_theta)
    E = group.tower.ext
    plus = []
    for k in range(torus.coord_count):
        e = _generator_point(torus, k)
        image = theta.apply_ext(e)
        plus.append(group.join(tuple(map(E.mat_mul, group.split(e), group.split(image)))))
    plus_logs = [torus.ext_logs(s) for s in plus]
    vanishing = set(
        a
        for a in datum.roots
        if all(sum(map(mul, a, logs)) % E.order == 0 for logs in plus_logs)
    )
    if vanishing != negated:
        raise ConsistencyError(
            "vanishing-on-T+ and negated-by-theta root sets differ",
            detail={"vanishing": sorted(vanishing), "negated": sorted(negated)},
        )
    # centralizer dimension certificate
    dim = _centralizer_dimension(group, plus, E)
    if dim != torus.coord_count + len(vanishing):
        raise ConsistencyError(
            "Lie centralizer of T+ has the wrong dimension",
            detail={"dim": dim, "expected": torus.coord_count + len(vanishing)},
        )
    return tuple(sorted(vanishing))


def _centralizer_dimension(group: MatrixGroup, mats, E) -> int:
    """dim over the field E of {X in the Lie algebra : Xs = sX for all s}:
    the null space of the maps X -> Xs - sX, one block of rows per s."""
    n = 4 * group.n_factors
    units = [_unvec(group, [int(i == j) for j in range(n)]) for i in range(n)]
    rows = []
    for s in mats:
        cols = []
        for x in units:
            comm = tuple(
                _m_sub(E, E.mat_mul(xm, sm), E.mat_mul(sm, xm))
                for xm, sm in zip(group.split(x), group.split(s))
            )
            cols.append(_vec(group, group.join(comm)))
        # column j of the block is the commutator of the j-th unit with s
        rows.extend(map(list, zip(*cols)))
    return len(fq_nullspace(rows, E))
