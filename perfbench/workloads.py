"""The benchmark's workloads: which dlcusp commands a run sends, and why.

A workload is an endless sequence of passes; a pass is a list of command
invocations, each run in a fresh interpreter.  Inputs come only from the
workload seed.  ``mini=True`` gives the q = 3 miniature used by the tests.

- gl2-grid: one ``verify theorem --group gl2 --q 5 7`` grid (93 cells).
  Each cell shares its (q, involution class) with 9 or 20 other cells, so
  this is where reuse across cells pays.
- cell-replay: seeded single-cell ``verify theorem`` invocations, one GL2
  q = 11 cell and one GL2 x GL2 q = 5 swap cell per pass.  Nothing carries
  over between cells, so a cross-cell cache is bypassed and every cell pays
  cold set-up.
- lie-certify: the Lie-side certificates (phi-theta, epsilon, sigma,
  centralizer-sigma).  They use extension-field arithmetic, nullspaces and
  determinants, and never call the character side.
- known-defects: ``verify epsilon --torus split --involution
  transpose-inverse`` at q = 3, 5, 7 (three of its four cells fail at the
  baseline) and ``verify epsilon --q 9``, which exits 2.  A timed workload must
  be one on which no operation fails, so these commands are kept out of
  lie-certify and out of ``BENCHMARK.json``; this workload keeps the
  defects visible until they are fixed.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from dataclasses import dataclass

import check

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GL2_SEEDS = ("diag", "antidiag", "transpose-inverse")
SIGMA_TWISTS = {False: 3000, True: 5}

# Lie-side commands by label; the label is the reference key of their rows.
LIE_CERTIFY = {
    False: (
        "verify phi-theta --group gl2 --q 3 5 7 --torus both",
        "verify phi-theta --group gl2_x_gl2 --q 3",
        "verify epsilon --group gl2 --q 3 5 7 --torus elliptic",
        "verify epsilon --group gl2 --q 3 5 7 --torus split --involution diag --involution antidiag",
        "verify epsilon --group gl2_x_gl2 --q 3 5",
        "verify sigma",
        "verify centralizer-sigma",
    ),
    True: (
        "verify phi-theta --group gl2 --q 3 --torus both",
        "verify phi-theta --group gl2_x_gl2 --q 3",
        "verify epsilon --group gl2 --q 3 --torus elliptic",
        "verify epsilon --group gl2 --q 3 --torus split --involution diag --involution antidiag",
        "verify epsilon --group gl2_x_gl2 --q 3",
        "verify sigma",
        "verify centralizer-sigma",
    ),
}
KNOWN_DEFECTS = {
    False: (
        "verify epsilon --group gl2 --q 3 5 7 --torus split --involution transpose-inverse",
        "verify epsilon --group gl2 --q 9 --torus both",
    ),
    True: (
        "verify epsilon --group gl2 --q 3 --torus split --involution transpose-inverse",
        "verify epsilon --group gl2 --q 9 --torus both",
    ),
}


@dataclass(frozen=True)
class Invocation:
    """One dlcusp command and what its report must contain."""

    argv: tuple
    kind: str
    expected: dict
    extra_ops: int = 0
    # the command shape: the same command up to exponents, involution and
    # RNG seed; cells of one stratum cost about the same (see run.end_to_end)
    stratum: str = ""


def _dlcusp():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from dlcusp.dlchar import general_position_exponents
    from dlcusp.groups import MatrixGroup

    return MatrixGroup, general_position_exponents


def theorem_cells(group: str, q: int):
    """(seed, exponents) of every cell of one grid, formed as the CLI forms them.

    Product cells pair (ki, (-kj) mod (q^2 - 1)) over Frobenius pair
    representatives, so every sampled cell is one the grid really contains.
    """
    matrix_group, general_position_exponents = _dlcusp()
    reps = [k for k, _ in general_position_exponents(matrix_group("gl2", q))]
    if group == "gl2":
        return [(seed, (k,)) for seed in GL2_SEEDS for k in reps]
    n = q * q - 1
    return [("swap", (ki, (-kj) % n)) for ki in reps for kj in reps]


def _theorem(argv: str, group: str, cells, reference: dict) -> Invocation:
    keys = [check.theorem_key(group, q, seed, exps) for q, seed, exps in cells]
    expected = {k: reference.get(k) for k in keys}
    return Invocation(tuple(argv.split()), "theorem", expected, stratum=group)


def _lie(label: str, reference: dict, extra: str = "", extra_ops: int = 0) -> Invocation:
    kind = label.split()[1]
    rows = reference[label]
    expected = {check.row_key(kind, row): row for row in rows}
    return Invocation(tuple((label + extra).split()), kind, expected, extra_ops, stratum=label)


def gl2_grid(seed: int, mini: bool):
    reference = check.load_reference("theorem")
    qs = (3,) if mini else (5, 7)
    cells = [(q, s, e) for q in qs for s, e in theorem_cells("gl2", q)]
    argv = "verify theorem --group gl2 --q " + " ".join(map(str, qs))
    invocation = _theorem(argv, "gl2", cells, reference)
    while True:
        yield [invocation]


def cell_replay(seed: int, mini: bool):
    reference = check.load_reference("theorem")
    gl2_q, product_q = (3, 3) if mini else (11, 5)
    gl2_cells = theorem_cells("gl2", gl2_q)
    product_cells = theorem_cells("gl2_x_gl2", product_q)
    rng = random.Random(seed)
    while True:
        s, (k,) = rng.choice(gl2_cells)
        _, (k1, k2) = rng.choice(product_cells)
        yield [
            _theorem(
                f"verify theorem --group gl2 --q {gl2_q} --exponent {k} --involution {s}",
                "gl2",
                [(gl2_q, s, (k,))],
                reference,
            ),
            _theorem(
                f"verify theorem --group gl2_x_gl2 --q {product_q} --exponent {k1},{k2}",
                "gl2_x_gl2",
                [(product_q, "swap", (k1, k2))],
                reference,
            ),
        ]


def lie_certify(seed: int, mini: bool):
    reference = check.load_reference("lie")
    twists = SIGMA_TWISTS[mini]
    # each twist of each shipped datum is one operation that yields no row
    twist_ops = twists * len(reference["verify sigma"])
    for n in itertools.count():
        yield [
            _lie(label, reference, f" --twists {twists} --rng-seed {seed + n}", twist_ops)
            if label == "verify sigma"
            else _lie(label, reference)
            for label in LIE_CERTIFY[mini]
        ]


def known_defects(seed: int, mini: bool):
    reference = check.load_reference("lie")
    yield [_lie(label, reference) for label in KNOWN_DEFECTS[mini]]


WORKLOADS = {
    "gl2-grid": gl2_grid,
    "cell-replay": cell_replay,
    "lie-certify": lie_certify,
    "known-defects": known_defects,
}
