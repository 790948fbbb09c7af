"""Twisted root data and their sign invariants.

A datum is a lattice Z^n, a finite set of roots and coroots in duality, a
positive system, and a unimodular finite-order twist tau encoding how
Frobenius permutes the roots (Frobenius itself is q*tau; the positive
scalar never matters for signs).  The shipped library lives in JSON files
under ``data/``; nothing about a datum is code.

Four independent routes compute the same product of torus and group signs:

1. parity of the positive roots sent negative by the twist,
2. the product over Galois orbits of (-1)^(sign changes around the orbit),
3. parity of the number of Galois orbits,
4. parity of the number of symmetric Galois orbits (orbit = -orbit).

``sigma_product`` runs all four and refuses to answer unless they agree.

An involution on a datum is an integral lattice involution mapping roots to
roots and commuting with the twist.  The roots it negates form the set
``phi_theta``; the epsilon product over that set, one root per +-pair of
roots, is the lattice-level half of the epsilon character machinery (the
matrix-level half lives in ``groups``).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from functools import cache, cached_property
from typing import NamedTuple

from .errors import ConfigError, ConsistencyError, ResourceBoundError
from .linalg import (
    int_det,
    int_mat_mul,
    int_mat_vec,
    int_matrix_order,
    int_transpose,
    rational_rank,
)

__all__ = [
    "TwistedRootDatum",
    "GaloisOrbit",
    "InvolutionOnDatum",
    "load_datum",
    "datum_names",
    "with_twist",
    "fq_rank_sigma",
    "sigma_group",
    "galois_orbits",
    "sign_changes",
    "sigma_product",
    "phi_theta",
    "orbit_product",
    "epsilon_product",
    "sub_datum_on",
    "verify_centralizer_sigma",
    "datum_involutions",
    "random_twists",
]

Vec = tuple[int, ...]

# the most retwists one random_twists call draws: each draw keeps a datum
# reference, so time and memory grow with the count
TWIST_CAP = 100_000

# the shipped library; a plain path, since importlib.resources loads inspect
# on Python 3.12 and later
_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _vneg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


class TwistedRootDatum:
    """Validated twisted root datum; construction checks every invariant.

    The checks come in two parts.  The root-system checks (rank, roots,
    coroots, positive system) run once per datum built here; ``with_twist``
    shares the checked root system of its datum and runs only the twist
    checks: tau is rank x rank, unimodular, of finite order (the stated
    order is its true order), permutes the roots and is compatible with the
    coroots.

    Data compare, hash and print by value: by all seven fields, name too.
    """

    def __init__(
        self,
        rank: int,
        roots: tuple[Vec, ...],
        coroots: tuple[Vec, ...],
        positive: tuple[int, ...],
        tau: tuple[Vec, ...],
        order: int,
        name: str = "anonymous",
    ):
        self.rank = rank
        self.roots = roots
        self.coroots = coroots
        self.positive = positive
        n = self.rank
        if n < 1:
            raise ConfigError("rank must be positive")
        if len(self.roots) != len(self.coroots):
            raise ConfigError("roots and coroots must be matched by index")
        for v in self.roots + self.coroots:
            if len(v) != n:
                raise ConfigError("root/coroot length does not match the rank")
        if len(set(self.roots)) != len(self.roots):
            raise ConfigError("duplicate roots")
        root_set = set(self.roots)
        # root -> index, shared by every retwist of this root system
        self._index = {a: i for i, a in enumerate(self.roots)}
        if any(all(x == 0 for x in a) for a in self.roots):
            raise ConfigError("zero is not a root")
        for a in self.roots:
            if _vneg(a) not in root_set:
                raise ConfigError(f"root set is not closed under negation at {a}")
        for a, av in zip(self.roots, self.coroots):
            if _dot(a, av) != 2:
                raise ConfigError(f"<a, a^vee> != 2 at root {a}")
        # reflection closure
        for a, av in zip(self.roots, self.coroots):
            for b in self.roots:
                refl = tuple(x - _dot(b, av) * y for x, y in zip(b, a))
                if refl not in root_set:
                    raise ConfigError(f"reflection of {b} along {a} leaves the root set")
        # positive system
        pos = set(self.positive)
        if len(pos) != len(self.positive):
            raise ConfigError("duplicate positive indices")
        if any(not 0 <= i < len(self.roots) for i in pos):
            raise ConfigError("positive index out of range")
        pos_roots = {self.roots[i] for i in pos}
        if len(pos_roots) * 2 != len(self.roots) or pos_roots | {
            _vneg(a) for a in pos_roots
        } != root_set:
            raise ConfigError("positive system must pick one of each +-pair")
        self._set_twist(tau, order, name)

    def _set_twist(self, tau: tuple[Vec, ...], order: int | None, name: str) -> None:
        """Check ``tau`` against the checked root system and make it the twist.

        ``order`` is the stated order, which must be the true one; None takes
        the true order as computed here."""
        n = self.rank
        if len(tau) != n or any(len(r) != n for r in tau):
            raise ConfigError("tau must be rank x rank")
        d = int_det(tau)
        if d not in (1, -1):
            raise ConfigError(f"tau must be unimodular, det {d}")
        try:
            true_order = int_matrix_order(tau)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if order is None:
            order = true_order
        elif true_order != order:
            raise ConfigError(f"stated order {order}, actual {true_order}")
        index = self._index
        images = [int_mat_vec(tau, a) for a in self.roots]
        for a, image in zip(self.roots, images):
            if image not in index:
                raise ConfigError(f"tau does not permute the roots (fails at {a})")
        # the induced cocharacter map (tau^-1)^T must send a^vee to (tau a)^vee;
        # multiplied through by tau^T that is tau^T (tau a)^vee = a^vee, with
        # no inverse to form
        tau_t = int_transpose(tau)
        for av, image in zip(self.coroots, images):
            if int_mat_vec(tau_t, self.coroots[index[image]]) != av:
                raise ConfigError("tau and its dual disagree on the coroot pairing")
        self.tau = tau
        self.order = order
        self.name = name
        self._key = (self.rank, self.roots, self.coroots, self.positive, tau, order, name)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, TwistedRootDatum) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"TwistedRootDatum(rank={self.rank!r}, roots={self.roots!r}, "
            f"coroots={self.coroots!r}, positive={self.positive!r}, tau={self.tau!r}, "
            f"order={self.order!r}, name={self.name!r})"
        )

    # -- basic geometry ------------------------------------------------------

    def tau_apply(self, v: Vec) -> Vec:
        return int_mat_vec(self.tau, v)

    def positive_roots(self) -> tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self.positive)

    def coroot_of(self, a: Vec) -> Vec:
        return self.coroots[self._index[a]]


class GaloisOrbit(NamedTuple):
    """One twist orbit, listed cyclically from its lex-smallest root."""

    elements: tuple[Vec, ...]
    symmetric: bool

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def representative(self) -> Vec:
        return self.elements[0]


def _int(x) -> int:
    """A JSON integer; a float, string or boolean is a mistyped field."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _datum_from_dict(obj, name: str) -> TwistedRootDatum:
    try:
        fields = dict(
            rank=_int(obj["rank"]),
            roots=tuple(tuple(map(_int, v)) for v in obj["roots"]),
            coroots=tuple(tuple(map(_int, v)) for v in obj["coroots"]),
            positive=tuple(map(_int, obj["positive"])),
            tau=tuple(tuple(map(_int, r)) for r in obj["tau"]),
            order=_int(obj["order"]),
        )
    except KeyError as e:
        raise ConfigError(f"datum {name!r} has no field {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"datum {name!r} has a mistyped field: {e}") from None
    return TwistedRootDatum(**fields, name=name)


def datum_names() -> list[str]:
    return sorted(f[: -len(".json")] for f in os.listdir(_DATA_DIR) if f.endswith(".json"))


def load_datum(name: str) -> TwistedRootDatum:
    """Load a shipped datum by name, or any datum from a JSON path."""
    if "/" in name or name.endswith(".json"):
        try:
            with open(name) as f:
                obj = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read datum file {name!r}: {e.strerror}") from None
        except ValueError as e:  # malformed JSON or text that is not UTF-8
            raise ConfigError(f"datum file {name!r} is not valid JSON: {e}") from None
        return _datum_from_dict(obj, name)
    path = os.path.join(_DATA_DIR, f"{name}.json")
    if not os.path.isfile(path):
        raise ConfigError(f"unknown datum {name!r}; shipped: {', '.join(datum_names())}")
    with open(path) as f:
        return _datum_from_dict(json.load(f), name)


def with_twist(datum: TwistedRootDatum, tau) -> TwistedRootDatum:
    """The same root system under a different twist.

    Every entry of ``tau`` must be an int: a float, string or boolean is
    refused as the loader refuses it, not coerced.  The root system was
    checked when ``datum`` was built and is shared as it is; only the twist
    checks run, and the order is the twist's true order."""
    try:
        tau = tuple(tuple(map(_int, r)) for r in tau)
    except TypeError as e:
        raise ConfigError(f"twist for {datum.name!r} has a mistyped entry: {e}") from None
    twisted = TwistedRootDatum.__new__(TwistedRootDatum)
    twisted.rank = datum.rank
    twisted.roots = datum.roots
    twisted.coroots = datum.coroots
    twisted.positive = datum.positive
    twisted._index = datum._index
    twisted._set_twist(tau, None, f"{datum.name}:retwisted")
    return twisted


# ---------------------------------------------------------------------------
# sign invariants


def fq_rank_sigma(datum: TwistedRootDatum):
    """(rank, sigma) of the torus: rank of the twist-fixed subspace, sign (-1)^rank."""
    m = datum.tau
    n = datum.rank
    delta = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    rank = n - rational_rank(delta)
    return rank, (-1) ** rank


def sigma_group(datum: TwistedRootDatum) -> int:
    """Sign of the ambient group: torus sign corrected by positives sent negative."""
    _, sigma_t = fq_rank_sigma(datum)
    neg = {_vneg(a) for a in datum.positive_roots()}
    flipped = sum(1 for a in datum.positive_roots() if datum.tau_apply(a) in neg)
    return sigma_t * (-1) ** flipped


def galois_orbits(datum: TwistedRootDatum) -> tuple[GaloisOrbit, ...]:
    seen = set()
    orbits = []
    for a in datum.roots:
        if a in seen:
            continue
        cycle = [a]
        b = datum.tau_apply(a)
        while b != a:
            cycle.append(b)
            b = datum.tau_apply(b)
        seen.update(cycle)
        rep = min(cycle)
        i = cycle.index(rep)
        cycle = cycle[i:] + cycle[:i]
        symmetric = {_vneg(c) for c in cycle} == set(cycle)
        if symmetric:
            d = len(cycle)
            if d % 2:
                raise ConsistencyError("symmetric orbit of odd size", detail=cycle)
            if any(cycle[j + d // 2] != _vneg(cycle[j]) for j in range(d // 2)):
                raise ConsistencyError(
                    "symmetric orbit is not negated by the half twist", detail=cycle
                )
        orbits.append(GaloisOrbit(tuple(cycle), symmetric))
    orbits.sort(key=lambda o: o.representative)
    return tuple(orbits)


def sign_changes(orbit: GaloisOrbit, datum: TwistedRootDatum) -> int:
    """Number of minus-to-plus transitions reading once around the orbit."""
    pos = set(datum.positive_roots())
    labels = [a in pos for a in orbit.elements]
    d = len(labels)
    return sum(1 for i in range(d) if not labels[i] and labels[(i + 1) % d])


def sigma_product(datum: TwistedRootDatum) -> int:
    """sigma(G)*sigma(T) by four routes that must agree exactly."""
    neg = {_vneg(a) for a in datum.positive_roots()}
    flipped = sum(1 for a in datum.positive_roots() if datum.tau_apply(a) in neg)
    orbits = galois_orbits(datum)
    total_changes = sum(sign_changes(o, datum) for o in orbits)
    n_sym = sum(1 for o in orbits if o.symmetric)
    values = {
        "positives_flipped": (-1) ** flipped,
        "sign_changes": (-1) ** total_changes,
        "orbit_count": (-1) ** len(orbits),
        "symmetric_orbit_count": (-1) ** n_sym,
    }
    if len(set(values.values())) != 1:
        raise ConsistencyError(
            f"sigma routes disagree on {datum.name}", detail=values
        )
    # the first two routes agree as exact counts, not just parities
    if flipped != total_changes:
        raise ConsistencyError(
            f"sigma route counts differ on {datum.name}", detail=(flipped, total_changes)
        )
    return values["positives_flipped"]


# ---------------------------------------------------------------------------
# involutions on a datum


class InvolutionOnDatum:
    """An integral lattice involution permuting roots, commuting with the twist.

    Involutions compare, hash and print by value: datum, matrix and name.
    """

    def __init__(
        self, datum: TwistedRootDatum, matrix: tuple[Vec, ...], name: str = "anonymous"
    ):
        self.datum = datum
        self.matrix = matrix
        self.name = name
        self._key = (datum, matrix, name)
        n = self.datum.rank
        m = [list(r) for r in self.matrix]
        if len(m) != n or any(len(r) != n for r in m):
            raise ConfigError("involution matrix must be rank x rank")
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if int_mat_mul(m, m) != ident:
            raise ConfigError("matrix does not square to the identity")
        root_set = set(self.datum.roots)
        for a in self.datum.roots:
            if self.apply(a) not in root_set:
                raise ConfigError(f"involution does not permute the roots (fails at {a})")
        tau = [list(r) for r in self.datum.tau]
        if int_mat_mul(m, tau) != int_mat_mul(tau, m):
            raise ConfigError("involution does not commute with the twist")

    def __eq__(self, other):
        return isinstance(other, InvolutionOnDatum) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"InvolutionOnDatum(datum={self.datum!r}, matrix={self.matrix!r}, "
            f"name={self.name!r})"
        )

    def apply(self, v: Vec) -> Vec:
        return tuple(int_mat_vec([list(r) for r in self.matrix], v))

    @cached_property
    def phi_theta(self) -> tuple[Vec, ...]:
        """The roots negated by the involution, sorted; checked closed under -1."""
        out = tuple(sorted(a for a in self.datum.roots if self.apply(a) == _vneg(a)))
        if any(_vneg(a) not in out for a in out):
            raise ConsistencyError("negated roots are not closed under -1", detail=out)
        return out


def phi_theta(datum: TwistedRootDatum, theta: InvolutionOnDatum) -> tuple[Vec, ...]:
    """The roots negated by the involution, sorted and checked closed under
    -1, once per involution object (InvolutionOnDatum.phi_theta)."""
    if theta.datum != datum:
        raise ConfigError(f"involution {theta.name} is not on the datum {datum.name}")
    return theta.phi_theta


def _orbits_within(datum: TwistedRootDatum, subset) -> list[GaloisOrbit]:
    subset = set(subset)
    picked = []
    for orbit in galois_orbits(datum):
        members = set(orbit.elements)
        if members <= subset:
            picked.append(orbit)
        elif members & subset:
            raise ConsistencyError(
                f"root subset is not stable under the twist of {datum.name}",
                detail=sorted(members & subset),
            )
    return picked


@cache
def _pair_roots(datum: TwistedRootDatum, subset: tuple) -> tuple[Vec, ...]:
    """One root per +-pair {a, -a} of a twist-stable subset closed under -1:
    its positive roots, sorted.  Both conditions are checked, once per
    (datum, subset) in a process, so the torus points of one phi_theta do
    not rebuild the Galois orbits."""
    _orbits_within(datum, subset)  # twist stability
    subset = set(subset)
    if any(_vneg(a) not in subset for a in subset):
        raise ConsistencyError("root subset is not closed under negation")
    return tuple(sorted(subset & set(datum.positive_roots())))


def orbit_product(datum: TwistedRootDatum, subset, logs, n: int) -> int:
    """Product of a(t) over one root per +-pair {a, -a} inside ``subset``.

    ``subset`` must be twist-stable and closed under -1, as every phi_theta
    is.  Over the algebraic closure each +-pair of negated roots spans one
    line X_a + theta(X_a) of the fixed Lie algebra, on which t acts by a(t);
    a determinant does not depend on the field, so the twist orbits decide
    nothing here beyond stability.
    ``logs`` is the log vector l(t) of a torus point against a generator of
    a cyclic group of even order ``n``, so a(t) has the log <a, l(t)> mod n.
    a(t) and (-a)(t) must be equal, 2 <a, l(t)> = 0 mod n (they are,
    whenever the subset is a phi_theta of a fixed point): each a(t) is then
    a sign, and the choice between a and -a is irrelevant.  This is
    checked, not trusted.  A product with log 0 is 1, one with log n/2 is -1.
    """
    total = 0
    for a in _pair_roots(datum, tuple(subset)):
        e = _dot(a, logs)
        if 2 * e % n:
            raise ConsistencyError(
                "orbit product depends on the representative", detail=a
            )
        total += e
    return 1 if total % n == 0 else -1


def epsilon_product(datum: TwistedRootDatum, theta: InvolutionOnDatum, logs, n: int) -> int:
    """Lattice-level epsilon value: the orbit product over the negated roots,
    one root per +-pair of roots."""
    return orbit_product(datum, phi_theta(datum, theta), logs, n)


def sub_datum_on(datum: TwistedRootDatum, subset) -> TwistedRootDatum:
    """The datum on a twist-stable, reflection-closed subset of the roots."""
    subset = sorted(set(subset))
    roots = tuple(subset)
    coroots = tuple(datum.coroot_of(a) for a in roots)
    pos = set(datum.positive_roots())
    positive = tuple(i for i, a in enumerate(roots) if a in pos)
    return TwistedRootDatum(
        rank=datum.rank,
        roots=roots,
        coroots=coroots,
        positive=positive,
        tau=datum.tau,
        order=datum.order,
        name=f"{datum.name}:sub",
    )


def verify_centralizer_sigma(datum: TwistedRootDatum, theta: InvolutionOnDatum) -> int:
    """When the involution fixes no root, the sub-datum on the negated roots
    has the same group sign as the full datum.  Returns the common sign."""
    for a in datum.roots:
        if theta.apply(a) == a:
            raise ConfigError(
                f"involution {theta.name} fixes the root {a}; the sign identity "
                "is only claimed without fixed roots"
            )
    negated = phi_theta(datum, theta)
    _orbits_within(datum, negated)  # twist stability
    full = sigma_group(datum)
    if not negated:
        _, sub = fq_rank_sigma(datum)
    else:
        sub = sigma_group(sub_datum_on(datum, negated))
    if sub != full:
        raise ConsistencyError(
            f"centralizer sign {sub} differs from group sign {full} on {datum.name}",
            detail={"involution": theta.name, "negated_roots": negated},
        )
    return full


# ---------------------------------------------------------------------------
# involution and twist libraries


def _rank2_pool():
    return {
        "id": ((1, 0), (0, 1)),
        "minus_id": ((-1, 0), (0, -1)),
        "swap": ((0, 1), (1, 0)),
        "minus_swap": ((0, -1), (-1, 0)),
    }


def _rank1_pool():
    return {"id": ((1,),), "minus_id": ((-1,),)}


def _rank4_pool():
    blocks = {
        "1": ((1, 0), (0, 1)),
        "-1": ((-1, 0), (0, -1)),
        "w": ((0, 1), (1, 0)),
        "-w": ((0, -1), (-1, 0)),
    }
    pool = {}
    for swap_factors in (False, True):
        for n1, b1 in blocks.items():
            for n2, b2 in blocks.items():
                rows = []
                for i in range(4):
                    row = [0, 0, 0, 0]
                    block, r = (b1, i) if i < 2 else (b2, i - 2)
                    for j in range(2):
                        row[(0 if i < 2 else 2) + j] = block[r % 2][j]
                    rows.append(row)
                if swap_factors:
                    rows = rows[2:] + rows[:2]
                    name = f"exchange({n1},{n2})"
                else:
                    name = f"keep({n1},{n2})"
                pool[name] = tuple(tuple(r) for r in rows)
    return pool


def _matrix_pool(rank: int):
    if rank == 1:
        return _rank1_pool()
    if rank == 2:
        return _rank2_pool()
    if rank == 4:
        return _rank4_pool()
    raise ConfigError(f"no matrix pool for rank {rank}")


def datum_involutions(datum: TwistedRootDatum) -> dict[str, InvolutionOnDatum]:
    """All named lattice involutions valid for this datum."""
    out = {}
    for name, m in sorted(_matrix_pool(datum.rank).items()):
        try:
            out[name] = InvolutionOnDatum(datum, m, name=name)
        except ConfigError:
            continue
    return out


@cache
def _pool_product(a, b) -> tuple[Vec, ...]:
    """The product of two pool matrices, kept for the process: the data of
    one rank share a pool, so a pair drawn for one is not multiplied again
    for another."""
    return tuple(map(tuple, int_mat_mul(a, b)))


def _pool_indices(seed: int, n: int):
    """Endless seeded indices below ``n``, each drawn as ``Random.choice``
    draws one from a sequence of length ``n`` on CPython 3.10-3.13
    (``Random._randbelow_with_getrandbits``): k = n.bit_length() random
    bits, drawn again while >= n."""
    getrandbits = random.Random(seed).getrandbits
    k = n.bit_length()
    while True:
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        yield i


def random_twists(datum: TwistedRootDatum, count: int, seed: int = 0):
    """Randomized valid retwists of a shipped datum (products of pool matrices).

    A draw is a pair (i, j) of indices into the datum's pool, taken in turn
    from ``_pool_indices``, and its twist is pool[i] * pool[j]: at every
    index, the twist of two ``rng.choice(pool)`` calls on a seeded
    ``random.Random``.  Each index pair is multiplied once, and each
    distinct product is built and validated once (``with_twist``: only its
    twist checks run); draws with the same product share that datum.  A
    count above TWIST_CAP is refused before any draw."""
    if count > TWIST_CAP:
        raise ResourceBoundError(
            f"{count} twists exceed the cap {TWIST_CAP}", required=count
        )
    pool = list(_matrix_pool(datum.rank).values())
    n = len(pool)
    indices = _pool_indices(seed, n)
    by_pair = [None] * (n * n)
    by_product = {}
    out = []
    # zip takes i, then j, from the one index stream
    for i, j in itertools.islice(zip(indices, indices), count):
        twisted = by_pair[i * n + j]
        if twisted is None:
            m = _pool_product(pool[i], pool[j])
            twisted = by_product.get(m)
            if twisted is None:
                twisted = by_product[m] = with_twist(datum, m)
            by_pair[i * n + j] = twisted
        out.append(twisted)
    return out
