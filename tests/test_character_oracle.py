"""The cuspidal characters of GL2(F_q) against an oracle built from induced
characters only, with no Deligne-Lusztig theory.

With omega = lambda on F_q^x and psi a nontrivial additive character,
pi_lambda + Ind_{E^x}^G lambda = Ind_{ZN}^G(omega psi) (Piatetski-Shapiro,
"Complex representations of GL(2, K) for finite fields K", 1983).  The
q - 1 nontrivial psi are conjugate under the diagonal torus, which
normalizes ZN and fixes omega, so Ind_{ZN}^G(omega psi) is
(Ind_Z^G omega - Ind_{ZN}^G omega) / (q - 1), and psi drops out:

    chi_lambda = (Ind_Z^G omega - Ind_{ZN}^G omega) / (q - 1) - Ind_{E^x}^G lambda.

Each term comes from the induced-character formula
Ind_H^G f(g) = |C_G(g)| / |H| * sum of f over H meet the class of g, over
this module's own list of GL2(F_q) and its own conjugacy classes, each the
closure of one element under conjugation by generators.  E^x is
{a + b J : (a, b) != 0} with J = [[0, eps], [1, 0]], J^2 = eps a nonsquare,
and lambda(a + b J) = zeta^(k log(a + b delta)) with delta^2 = eps in
F_{q^2}.  Only gf's field arithmetic and the Z[zeta_n] reduction
(``ConjugacyTable.reduce``) are shared with the character code.
"""

from fractions import Fraction

import pytest

from dlcusp.dlchar import conjugacy_classes, cuspidal_character
from dlcusp.gf import build_field
from dlcusp.groups import MatrixGroup


def _mul(F, x, y):
    return tuple(
        tuple(F.add(F.mul(x[i][0], y[0][j]), F.mul(x[i][1], y[1][j])) for j in range(2))
        for i in range(2)
    )


def _inv(F, x):
    (a, b), (c, d) = x
    r = F.inv(F.sub(F.mul(a, d), F.mul(b, c)))
    return ((F.mul(d, r), F.mul(F.neg(b), r)), (F.mul(F.neg(c), r), F.mul(a, r)))


class _Oracle:
    """The classes of GL2(F_q) and, per class, the discrete logs that omega
    or lambda is raised to over each of Z, ZN and E^x meeting it."""

    def __init__(self, q: int):
        tower = build_field(q)
        F, E = tower.base, tower.ext
        self.q, self.n = q, q * q - 1
        units = range(1, q)
        elements = [
            ((a, b), (c, d))
            for a in range(q)
            for b in range(q)
            for c in range(q)
            for d in range(q)
            if F.sub(F.mul(a, d), F.mul(b, c))
        ]
        self.order = len(elements)
        gamma = F.generator
        # diagonal, unitriangular and Weyl elements generate GL2(F_q)
        gens = [((gamma, 0), (0, 1)), ((1, 0), (0, gamma)), ((1, 1), (0, 1)), ((0, 1), (1, 0))]
        steps = [(s, _inv(F, s)) for s in gens]
        self.class_of, self.classes = {}, []
        for x in elements:
            if x in self.class_of:
                continue
            members, frontier = [x], [x]
            self.class_of[x] = len(self.classes)
            while frontier:
                y = frontier.pop()
                for s, si in steps:
                    z = _mul(F, _mul(F, s, y), si)
                    if z not in self.class_of:
                        self.class_of[z] = len(self.classes)
                        members.append(z)
                        frontier.append(z)
            self.classes.append(members)
        log = tower.discrete_log
        squares = {F.mul(x, x) for x in units}
        eps = min(x for x in units if x not in squares)
        delta = tower.sqrt(eps)
        # per class: the logs of omega over Z and over ZN, of lambda over E^x
        self.z_logs = [[] for _ in self.classes]
        self.zn_logs = [[] for _ in self.classes]
        self.e_logs = [[] for _ in self.classes]
        for z in units:
            self.z_logs[self.class_of[((z, 0), (0, z))]].append(log(z))
            for b in range(q):
                self.zn_logs[self.class_of[((z, F.mul(z, b)), (0, z))]].append(log(z))
        for a in range(q):
            for b in range(q):
                if a or b:
                    t = ((a, F.mul(b, eps)), (b, a))
                    self.e_logs[self.class_of[t]].append(log(E.add(a, E.mul(b, delta))))

    def character(self, k: int):
        """chi_lambda, lambda of exponent k, as one {e: Fraction} map per class."""
        q, n = self.q, self.n
        values = []
        for c, members in enumerate(self.classes):
            centralizer = Fraction(self.order, len(members))
            value = {}
            for logs, weight in (
                (self.z_logs[c], centralizer / ((q - 1) * (q - 1))),
                (self.zn_logs[c], -centralizer / ((q - 1) * q * (q - 1))),
                (self.e_logs[c], -centralizer / (q * q - 1)),
            ):
                for e in logs:
                    value[k * e % n] = value.get(k * e % n, 0) + weight
            values.append(value)
        return values


def _difference(table, value, other) -> tuple:
    """value - other, two {e: c} maps, reduced in Z[zeta_n]."""
    terms = dict(value)
    for e, c in other.items():
        terms[e] = terms.get(e, 0) - c
    return table.reduce(terms)


def _general_position(q):
    n = q * q - 1
    return [k for k in range(1, n) if k < k * q % n]


@pytest.fixture(scope="module", params=(3, 5, 7))
def oracle(request):
    return _Oracle(request.param)


def test_oracle_classes_are_the_classes_of_gl2(oracle):
    q = oracle.q
    assert oracle.order == (q * q - 1) * (q * q - q)
    assert len(oracle.classes) == q * q - 1
    # the character code's classifier is constant on each oracle class and
    # tells the classes apart
    table = conjugacy_classes(MatrixGroup("gl2", q))
    keys = [{table.class_of(g) for g in members} for members in oracle.classes]
    assert all(len(k) == 1 for k in keys)
    assert len(set().union(*keys)) == len(keys)


def test_cuspidal_characters_agree_with_the_induced_oracle(oracle):
    group = MatrixGroup("gl2", oracle.q)
    for k in _general_position(oracle.q):
        chi = cuspidal_character(group, k)
        for members, value in zip(oracle.classes, oracle.character(k)):
            assert not any(_difference(chi.table, value, chi.value(members[0]))), (
                k,
                members[0],
            )


def test_the_oracle_tells_lambda_from_its_inverse():
    # at q = 5 and k = 1, lambda^-1 is neither lambda nor lambda^q, so
    # chi_-1 is another character, and the oracle differs on some class
    oracle = _Oracle(5)
    table = conjugacy_classes(MatrixGroup("gl2", 5))
    pairs = zip(oracle.character(1), oracle.character(-1))
    assert any(any(_difference(table, a, b)) for a, b in pairs)
