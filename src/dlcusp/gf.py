"""Exact arithmetic in a small odd finite field F_q and its quadratic extension.

Both fields carry their elements as int codes.  F_q's codes are 0..q-1, with
table-driven arithmetic.  For prime q the code is the residue itself.  For
q = p^f with f > 1, F_q is F_p[y] modulo the lexicographically smallest monic
irreducible of degree f, and a code is the base-p value of its coefficient
tuple, low degree first.

F_{q^2} is F_q[y] modulo the lexicographically smallest monic irreducible
quadratic, and c0 + c1 y has the code c0 + c1 q.  So F_q's codes are
F_{q^2}'s codes below q, and the embedding F_q -> F_{q^2} is the identity: a
base code is an element of either field, and the scalar n*1 is
``embed_int(n)`` in both.  F_{q^2} adds digit by digit through F_q's tables.
Its products, powers, inverses, logs and square roots read a discrete-log
table for a fixed generator: one addition, multiplication or halving of logs
mod q^2 - 1, with zero tested first.  Everything stays small enough (q^2 in
the hundreds) that exhaustive tables beat anything clever, and exhaustive
tables cannot be silently wrong.

The base field (``tower.base``) and the extension (``tower.ext``) offer the
same operations (add, sub, mul, neg, inv, zero, one, embed_int), so the
linear-algebra kernels take either.  Both also own the 2x2 matrix kernel
(``mat_mul``, ``mat_det`` and ``mat_inv``); the base field reads each entry
straight off its tables, and adds ``row_times``, one row of a product, and
``mat_monic``, the scaling that makes the first nonzero row-major entry 1.
"""

from __future__ import annotations

import itertools

from .errors import ConsistencyError

__all__ = [
    "FieldTower",
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

    F_p is arithmetic mod p.  For f > 1, F_q is the degree-f extension of F_p
    and a code is the base-p value of its coefficient tuple, low degree
    first; the tables are filled from its polynomial arithmetic.
    ``generator`` is the least code of multiplicative order q - 1.
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
            ext = _Extension(_BaseField(p, 1), f)
            self.modulus = ext.modulus
            digits = [tuple(c // p**i % p for i in range(f)) for c in range(q)]
            code = {d: c for c, d in enumerate(digits)}
            self._add = [
                [code[tuple((a + b) % p for a, b in zip(x, y))] for y in digits]
                for x in digits
            ]
            self._mul = [[code[ext.mul(x, y)] for y in digits] for x in digits]
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        self.generator = next(c for c in range(1, q) if self._order_of(c) == q - 1)

    def _order_of(self, c: int) -> int:
        row, x, k = self._mul[c], c, 1
        while x != 1:
            x, k = row[x], k + 1
        return k

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
# the quadratic extension F_{q^2} on integer codes


class _ExtField:
    """F_{q^2} arithmetic on codes c0 + c1 q, for c0 + c1 y with F_q codes
    c0, c1; the codes below q are F_q's own.

    ``powers[i]`` is the code of g^i for the fixed generator g and ``log``
    inverts it (``log[0]`` is None), so products, powers and inverses of
    units are one addition or multiplication of logs mod q^2 - 1.
    """

    zero = 0
    one = 1

    def __init__(self, base: _BaseField):
        self.base = base
        self.q = q = base.q
        ext = _Extension(base, 2)
        self.modulus = ext.modulus
        self.order = ext.order
        self.powers = [c0 + c1 * q for c0, c1 in ext.powers]
        self.generator = self.powers[1]
        self.log = [None] * (q * q)
        for i, c in enumerate(self.powers):
            self.log[c] = i
        # n*1 has the same code in both fields
        self.embed_int = base.embed_int

    def add(self, a, b):
        q, add = self.q, self.base._add
        a1, a0 = divmod(a, q)
        b1, b0 = divmod(b, q)
        return add[a0][b0] + q * add[a1][b1]

    def neg(self, a):
        neg = self.base._neg
        a1, a0 = divmod(a, self.q)
        return neg[a0] + self.q * neg[a1]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self.log
        return self.powers[(log[a] + log[b]) % self.order]

    def pow(self, a, n: int):
        if not a:
            if n < 0:
                raise ZeroDivisionError("inverse of zero in F_{q^2}")
            return 1 if n == 0 else 0
        return self.powers[self.log[a] * n % self.order]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in F_{q^2}")
        return self.powers[-self.log[a] % self.order]

    # -- 2x2 matrices ((a, b), (c, d)) of codes ------------------------------

    def mat_mul(self, x, y):
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        add, mul = self.add, self.mul
        return (
            (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h))),
            (add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h))),
        )

    def mat_det(self, x):
        (a, b), (c, d) = x
        return self.sub(self.mul(a, d), self.mul(b, c))

    def mat_inv(self, x):
        (a, b), (c, d) = x
        det = self.mat_det(x)
        if not det:
            raise ZeroDivisionError("inverse of a singular matrix")
        di, mul, neg = self.inv(det), self.mul, self.neg
        return ((mul(di, d), mul(di, neg(b))), (mul(di, neg(c)), mul(di, a)))


# ---------------------------------------------------------------------------
# building an extension by polynomial arithmetic


class _Extension:
    """F_{r^d} over a field F_r on codes: coefficient tuples (low degree
    first) modulo the lexicographically least monic irreducible, with the
    powers of the least generator in coefficient order.

    ``mul`` is the convolution product and ``pow`` square-and-multiply on
    top of it; they only build the tables of the fields above.
    """

    def __init__(self, base, degree: int):
        self.base = base
        self.degree = degree
        self.order = base.q**degree - 1
        self.one = (1,) + (0,) * (degree - 1)
        self.modulus = self._canonical_modulus()
        generator = self._find_generator()
        self.powers = []
        x = self.one
        for _ in range(self.order):
            self.powers.append(x)
            x = self.mul(x, generator)
        if x != self.one:
            raise ConsistencyError("generator order is wrong", detail=generator)

    def mul(self, xs, ys):
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

    def pow(self, xs, n: int):
        out = self.one
        acc = xs
        while n:
            if n & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
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
            if all(self.pow(tail, m) != self.one for m in prime_cofactors):
                return tail
        raise AssertionError("no generator found")  # unreachable: F_q^d* is cyclic


# ---------------------------------------------------------------------------
# public surface


class FieldTower:
    """F_q (``base``) and F_{q^2} (``ext``), both on int codes; F_q's codes
    are F_{q^2}'s codes below q."""

    def __init__(self, q: int):
        self.p, self.f = odd_prime_power(q)
        self.q = q
        self.base = _BaseField(self.p, self.f)
        self.ext = _ExtField(self.base)

    def discrete_log(self, x: int) -> int:
        """The log of a unit of F_{q^2} against ``ext.generator``; zero and
        non-codes raise."""
        log = self.ext.log
        e = log[x] if 0 <= x < len(log) else None
        if e is None:
            what = "zero" if x == 0 else f"{x!r}, which is not a code"
            raise ValueError(f"discrete log of {what} in F_{self.q}^2")
        return e

    def sqrt(self, x: int) -> int:
        """The canonical square root in F_{q^2}: the one whose coefficient
        pair (c0, c1) is lexicographically smaller, c0 compared first.

        For x = g^e the roots are g^(e/2) and g^(e/2 + (q^2 - 1)/2) =
        -g^(e/2); an odd e means x is not a square.  The smaller code is not
        always the smaller pair, since a code compares c1 first.
        """
        if x == 0:
            return 0
        E = self.ext
        e = self.discrete_log(x)
        if e % 2:
            raise ValueError(f"code {x} is not a square in F_{self.q}^2")
        q = self.q
        return min(
            E.powers[e // 2], E.powers[e // 2 + E.order // 2], key=lambda c: (c % q, c // q)
        )

    def smallest_nonsquare(self) -> int:
        """Code of the first base unit that is not a square in F_q."""
        squares = {self.base.mul(a, a) for a in range(1, self.q)}
        for a in range(1, self.q):
            if a not in squares:
                return a
        raise AssertionError("odd field without a nonsquare")  # unreachable

    def __repr__(self):
        return f"FieldTower(q={self.q})"


def build_field(q: int) -> FieldTower:
    """Build F_q together with F_{q^2}."""
    return FieldTower(q)
