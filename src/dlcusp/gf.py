"""Exact arithmetic in towers of small odd finite fields.

A tower fixes a base field F_q (q = p^f odd) and one extension F_{q^d} per
requested degree d.  Each extension is presented as F_q[y] modulo the
lexicographically smallest monic irreducible polynomial of that degree,
elements as coefficient tuples over the base, and each multiplicative group
by a brute-force discrete-log table for a fixed generator.  Everything stays
small enough (q^d in the thousands) that exhaustive tables beat anything
clever, and exhaustive tables cannot be silently wrong.

Base-field scalars are carried as integer codes 0..q-1 with table-driven
arithmetic.  For prime q the code is the residue itself.  For q = p^f with
f > 1, F_q is built as the degree-f level over F_p, the same construction
as every extension, and a code is the base-p value of its coefficient
tuple, low degree first.  The matrix layer works directly on these codes.

Every level keeps a discrete-log table (``powers`` and its inverse ``log``)
for a fixed generator of its multiplicative group.  Products, powers,
inverses and square roots at a level read that table: one addition,
multiplication or halving of logs mod q^d - 1, with zero tested first.

The base field (``tower.base``) and ``tower.element_ops(d)`` offer the same
operations (add, sub, mul, neg, inv, zero, one), on codes and on
``FieldElement`` entries of level d, so the linear-algebra kernels take
either.  Both also own the 2x2 matrix kernel (``mat_mul``, ``mat_det``,
``mat_inv`` and ``mat_monic``, the scaling that makes the first nonzero
row-major entry 1); the base field reads each entry straight off its
tables, and adds ``row_times``, one row of a product.
"""

from __future__ import annotations

import itertools
import operator

from .errors import ConsistencyError

__all__ = [
    "FieldTower",
    "FieldElement",
    "build_field",
    "odd_prime_power",
]


def _distinct_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def odd_prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p**f for an odd prime p; ValueError for any other q.

    Trial division up to sqrt(q) only, so a large q is judged before any
    table is built.
    """
    facs = _distinct_prime_factors(q)
    if len(facs) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p = facs[0]
    if p == 2:
        raise ValueError(f"q = {q} is even; only odd fields are supported")
    f, m = 0, q
    while m > 1:
        m //= p
        f += 1
    return p, f


# ---------------------------------------------------------------------------
# base field F_q on integer codes


class _BaseField:
    """F_q arithmetic on codes 0..q-1, q = p^f, read off addition and
    multiplication tables.

    F_p is arithmetic mod p.  For f > 1, F_q is the degree-f level over F_p
    and a code is the base-p value of its coefficient tuple, low degree
    first; the tables are filled from that level's operations.
    """

    zero = 0
    one = 1

    def __init__(self, p: int, f: int):
        self.p = p
        self.f = f
        self.q = q = p**f
        if f == 1:
            self.modulus = (0, 1)
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            level = _Level(_BaseField(p, 1), f)
            self.modulus = level.modulus
            digits = [tuple(c // p**i % p for i in range(f)) for c in range(q)]
            code = {d: c for c, d in enumerate(digits)}
            self._add = [[code[level.add(x, y)] for y in digits] for x in digits]
            self._mul = [[code[level.mul(x, y)] for y in digits] for x in digits]
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in the base field")
        return self._inv[a]

    def embed_int(self, n: int) -> int:
        """The scalar n*1, i.e. the image of an ordinary integer."""
        return n % self.p

    # -- 2x2 matrices ((a, b), (c, d)) of codes, read off the tables ----------

    def mat_mul(self, x, y):
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        mul, add = self._mul, self._add
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        return (
            (add[ma[e]][mb[g]], add[ma[f]][mb[h]]),
            (add[mc[e]][md[g]], add[mc[f]][md[h]]),
        )

    def row_times(self, r, y):
        """The row vector r times the 2x2 matrix y, a row of mat_mul."""
        u, v = r
        (e, f), (g, h) = y
        mu, mv, add = self._mul[u], self._mul[v], self._add
        return add[mu[e]][mv[g]], add[mu[f]][mv[h]]

    def mat_det(self, x):
        (a, b), (c, d) = x
        mul = self._mul
        return self._add[mul[a][d]][self._neg[mul[b][c]]]

    def mat_inv(self, x):
        (a, b), (c, d) = x
        det = self.mat_det(x)
        if det == 0:
            raise ZeroDivisionError("inverse of a singular matrix")
        scale, neg = self._mul[self._inv[det]], self._neg
        return ((scale[d], scale[neg[b]]), (scale[neg[c]], scale[a]))

    def mat_monic(self, x):
        """x scaled so its first nonzero row-major entry is 1."""
        (a, b), (c, d) = x
        lead = a or b or c or d
        if not lead:
            raise ZeroDivisionError("the zero matrix has no monic form")
        scale = self._mul[self._inv[lead]]
        return ((scale[a], scale[b]), (scale[c], scale[d]))


# ---------------------------------------------------------------------------
# extension levels


class _Level:
    """F_{q^d} over the base: coefficient tuples modulo a fixed monic modulus.

    ``powers[i]`` is g^i for the fixed generator g and ``log`` inverts it, so
    products, powers and inverses of units are one addition or multiplication
    of logs mod q^d - 1.  The convolution product and square-and-multiply
    (``_poly_mul``, ``_poly_pow``) only build those tables.
    """

    def __init__(self, base: _BaseField, degree: int):
        self.base = base
        self.degree = degree
        self.order = base.q**degree - 1
        self.zero = (0,) * degree
        self.one = (1,) + (0,) * (degree - 1)
        self.modulus = self._canonical_modulus()
        self.generator_coeffs = self._find_generator()
        self.log = {}
        self.powers = []
        x = self.one
        for i in range(self.order):
            self.powers.append(x)
            self.log[x] = i
            x = self._poly_mul(x, self.generator_coeffs)
        if x != self.one:
            raise ConsistencyError("generator order is wrong", detail=self.generator_coeffs)

    # -- coefficientwise operations (fixed length d) -------------------------

    def add(self, xs, ys):
        b = self.base
        return tuple(b.add(x, y) for x, y in zip(xs, ys))

    def sub(self, xs, ys):
        b = self.base
        return tuple(b.sub(x, y) for x, y in zip(xs, ys))

    def neg(self, xs):
        b = self.base
        return tuple(b.neg(x) for x in xs)

    # -- multiplicative operations, read off the log table -------------------

    def log_of(self, xs) -> int:
        """The discrete log of a unit; zero and non-elements raise."""
        try:
            return self.log[xs]
        except KeyError:
            what = "zero" if xs == self.zero else f"{xs!r}, which is not an element"
            raise ValueError(f"discrete log of {what} at degree {self.degree}") from None

    def mul(self, xs, ys):
        zero = self.zero
        if xs == zero or ys == zero:
            return zero
        log = self.log
        try:
            return self.powers[(log[xs] + log[ys]) % self.order]
        except KeyError:
            raise ValueError(f"{xs!r} or {ys!r} is not an element of degree {self.degree}") from None

    def pow(self, xs, n: int):
        if xs == self.zero:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.one if n == 0 else self.zero
        return self.powers[self.log_of(xs) * n % self.order]

    def inv(self, xs):
        if xs == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.powers[-self.log_of(xs) % self.order]

    # -- table construction --------------------------------------------------

    def _poly_mul(self, xs, ys):
        b = self.base
        d = self.degree
        conv = [0] * (2 * d - 1) if d > 1 else [0]
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    if y:
                        conv[i + j] = b.add(conv[i + j], b.mul(x, y))
        # reduce modulo the monic modulus
        for k in range(len(conv) - 1, d - 1, -1):
            lead = conv[k]
            if lead:
                conv[k] = 0
                for i in range(d):
                    conv[k - d + i] = b.sub(conv[k - d + i], b.mul(lead, self.modulus[i]))
        return tuple(conv[:d])

    def _poly_pow(self, xs, n: int):
        out = self.one
        acc = xs
        while n:
            if n & 1:
                out = self._poly_mul(out, acc)
            acc = self._poly_mul(acc, acc)
            n >>= 1
        return out

    def _poly_divisible(self, num, den):
        """num, den monic-or-not coefficient tuples over the base, low first."""
        b = self.base
        num = list(num)
        dd = len(den) - 1
        dlead_inv = b.inv(den[-1])
        while len(num) - 1 >= dd:
            lead = b.mul(num[-1], dlead_inv)
            if lead:
                for i in range(dd + 1):
                    j = len(num) - 1 - dd + i
                    num[j] = b.sub(num[j], b.mul(lead, den[i]))
            num.pop()
        return all(c == 0 for c in num)

    def _irreducible(self, m):
        deg = len(m) - 1
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(self.base.q), repeat=d):
                if self._poly_divisible(m, tail + (1,)):
                    return False
        return True

    def _canonical_modulus(self):
        d = self.degree
        for tail in itertools.product(range(self.base.q), repeat=d):
            m = tail + (1,)
            if self._irreducible(m):
                return m
        raise AssertionError("no irreducible modulus found")

    def _find_generator(self):
        n = self.order
        prime_cofactors = [n // r for r in _distinct_prime_factors(n)]
        for tail in itertools.product(range(self.base.q), repeat=self.degree):
            if all(c == 0 for c in tail):
                continue
            if all(self._poly_pow(tail, m) != self.one for m in prime_cofactors):
                return tail
        raise AssertionError("no generator found")  # unreachable: F_q^d* is cyclic


# ---------------------------------------------------------------------------
# public surface


class FieldElement:
    """An element of one level of a tower; immutable and hashable.

    It combines and compares only with elements of its own tower and level;
    a base code enters through ``FieldTower.embed``, never as a bare int.
    """

    __slots__ = ("tower", "level", "coeffs")

    def __init__(self, tower: "FieldTower", level: int, coeffs: tuple[int, ...]):
        self.tower = tower
        self.level = level
        self.coeffs = coeffs

    def _peer(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine a field element with {type(other).__name__}")
        if other.tower is not self.tower:
            raise ValueError("elements belong to different towers")
        if other.level != self.level:
            raise ValueError(
                f"elements live at different levels ({self.level} vs {other.level}); "
                "embed through the tower first"
            )
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FieldElement(self.tower, self.level, self.tower._lv(self.level).add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._peer(other)
        return FieldElement(self.tower, self.level, self.tower._lv(self.level).sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.tower, self.level, self.tower._lv(self.level).neg(self.coeffs))

    def __mul__(self, other):
        other = self._peer(other)
        return FieldElement(self.tower, self.level, self.tower._lv(self.level).mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        other = self._peer(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        return FieldElement(self.tower, self.level, self.tower._lv(self.level).pow(self.coeffs, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, self.level, self.tower._lv(self.level).inv(self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.tower is other.tower
            and self.level == other.level
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.tower), self.level, self.coeffs))

    def __repr__(self):
        q = self.tower.q
        return f"<F_{q}^{self.level} {list(self.coeffs)}>"


class _ElementOps:
    """The base field's code operations and 2x2 matrix kernel, over the
    FieldElement entries of one level."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    inv = staticmethod(FieldElement.inverse)

    @staticmethod
    def mat_mul(x, y):
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

    @staticmethod
    def mat_det(x):
        (a, b), (c, d) = x
        return a * d - b * c

    def mat_inv(self, x):
        (a, b), (c, d) = x
        di = self.mat_det(x).inverse()
        return ((di * d, di * -b), (di * -c, di * a))

    @staticmethod
    def mat_monic(x):
        (a, b), (c, d) = x
        lead = a or b or c or d
        if not lead:
            raise ZeroDivisionError("the zero matrix has no monic form")
        li = lead.inverse()
        return ((li * a, li * b), (li * c, li * d))

    def __init__(self, tower: "FieldTower", level: int):
        self.zero = tower.zero(level)
        self.one = tower.one(level)


class FieldTower:
    """F_q together with one extension F_{q^d} per requested degree."""

    def __init__(self, q: int, degrees):
        self.p, self.f = odd_prime_power(q)
        self.q = q
        degs = sorted(set(int(d) for d in degrees) | {1})
        if any(d < 1 for d in degs):
            raise ValueError("extension degrees must be positive")
        self.base = _BaseField(self.p, self.f)
        self.degrees = degs
        self._levels = {d: _Level(self.base, d) for d in degs}
        self._ops = {d: _ElementOps(self, d) for d in degs}

    def _lv(self, level: int) -> _Level:
        try:
            return self._levels[level]
        except KeyError:
            raise ValueError(f"level {level} is not part of this tower") from None

    # -- element constructors ------------------------------------------------

    def zero(self, level: int = 1) -> FieldElement:
        return FieldElement(self, level, self._lv(level).zero)

    def one(self, level: int = 1) -> FieldElement:
        return FieldElement(self, level, self._lv(level).one)

    def scalar(self, level: int, n: int) -> FieldElement:
        """The integer scalar n*1 at the given level."""
        return self.embed(self.base.embed_int(n), level)

    def embed(self, code: int, level: int) -> FieldElement:
        """The canonical embedding F_q -> F_{q^d} of the base element with this code."""
        if not 0 <= code < self.q:
            raise ValueError("base code out of range")
        self._lv(level)  # refuses a level outside the tower
        return FieldElement(self, level, (code,) + (0,) * (level - 1))

    def element_ops(self, level: int) -> _ElementOps:
        """Field operations on FieldElement entries of a level, shaped like ``base``."""
        self._lv(level)  # refuses a level outside the tower
        return self._ops[level]

    def generator(self, level: int) -> FieldElement:
        return FieldElement(self, level, self._lv(level).generator_coeffs)

    def order(self, level: int) -> int:
        """Size of the multiplicative group at this level."""
        return self._lv(level).order

    # -- arithmetic helpers ----------------------------------------------------

    def discrete_log(self, x: FieldElement) -> int:
        if x.tower is not self:
            raise ValueError("element belongs to a different tower")
        return self._lv(x.level).log_of(x.coeffs)

    def sqrt(self, x: FieldElement) -> FieldElement:
        """The canonical square root: the one with the lex-smaller coefficients.

        For x = g^e the roots are g^(e/2) and g^(e/2 + (q^d - 1)/2) = -g^(e/2);
        an odd e means x is not a square.
        """
        if x.is_zero():
            return x
        lv = self._lv(x.level)
        e = lv.log_of(x.coeffs)
        if e % 2:
            raise ValueError(f"{x!r} is not a square at its level")
        root = lv.powers[e // 2]
        return FieldElement(self, x.level, min(root, lv.powers[e // 2 + lv.order // 2]))

    def smallest_nonsquare(self) -> int:
        """Code of the first base unit that is not a square in F_q."""
        squares = {self.base.mul(a, a) for a in range(1, self.q)}
        for a in range(1, self.q):
            if a not in squares:
                return a
        raise AssertionError("odd field without a nonsquare")  # unreachable

    def __repr__(self):
        return f"FieldTower(q={self.q}, degrees={self.degrees})"


def build_field(q: int, degrees) -> FieldTower:
    """Build the tower F_q together with F_{q^d} for each degree d."""
    return FieldTower(q, degrees)
