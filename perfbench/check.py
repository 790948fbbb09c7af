"""Correctness of dlcusp reports and the operation count of each invocation.

Every row a command returns is compared with the reference row recorded at
the baseline commit, the one that added this benchmark
(``reference/*.json``, all fields except ``wall_ms``).  A
row the baseline could not produce (the split transpose-inverse epsilon cells,
q = 9) has no reference; it is checked by its in-row invariants only.  A
wrong row makes the run incorrect; it never counts as merely slow.

An operation is one cell: a theorem row, an epsilon or phi-theta cell, a
sigma datum or twist, a centralizer cell.  Failed operations are the cells
listed under ``failures``, every expected row that is missing from the
report (so a silently empty report fails), and an invocation that exits 2
or 3, which counts as at least one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
TIMING_FIELDS = ("wall_ms",)


def strip_timing(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


def row_digest(row: dict) -> str:
    """SHA-256 of a row without its timing fields, in canonical JSON."""
    text = json.dumps(strip_timing(row), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def matches_reference(row: dict, ref: dict) -> bool:
    """A reference is the row itself or, for bulky theorem rows, a digest
    of the row plus a few of its fields kept readable."""
    if "sha256" not in ref:
        return strip_timing(row) == ref
    readable = all(row.get(k) == v for k, v in ref.items() if k != "sha256")
    return readable and row_digest(row) == ref["sha256"]


def row_key(kind: str, row: dict) -> str:
    """Identity of a report row within its kind of command."""
    if kind == "theorem":
        parts = (row["group"], row["q"], row["involution_seed"], row["lambda_exponent"])
    elif kind in ("epsilon", "phi-theta"):
        parts = (row["group"], row["q"], row["torus"], row["seed"], json.dumps(row["witness"]))
    elif kind == "sigma":
        parts = (row["datum"],)
    elif kind == "centralizer-sigma":
        parts = (row["datum"], row["involution"])
    else:
        raise ValueError(f"unknown row kind {kind!r}")
    return "|".join(str(p) for p in parts)


def theorem_key(group: str, q: int, seed: str, exponents) -> str:
    return "|".join((group, str(q), seed, "|".join(str(k) for k in exponents)))


def invariant_errors(kind: str, row: dict) -> list[str]:
    """In-row consistency conditions that hold for every correct row."""
    errors = []
    if kind == "theorem":
        orbits = row["orbits"]
        matching = [o for o in orbits if o["matching"]]
        if not row["lhs"] == row["rhs"] == sum(o["contribution"] for o in orbits):
            errors.append("lhs, rhs and the summed contributions differ")
        if row["n_matching_orbits"] != len(matching):
            errors.append("n_matching_orbits is not the number of matching orbits")
        if row["m_values"] != "|".join(str(o["m"]) for o in matching):
            errors.append("m_values are not the m of the matching orbits")
    elif kind == "epsilon":
        if row["domain_size"] < 1 or not set(row["signs"]) <= {-1, 1}:
            errors.append("epsilon is not a sign character on a nonempty domain")
    elif kind == "sigma":
        if row["sigma_product"] != row["sigma_group"] * row["sigma_torus"]:
            errors.append("sigma_product is not sigma_group * sigma_torus")
    elif kind == "centralizer-sigma":
        if "skipped" not in row and row.get("sign") not in (-1, 1):
            errors.append("centralizer sign is not a sign")
    return errors


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one invocation returned, judged against its expectation."""

    attempted: int
    failed: int
    cells: int
    wrong: list = field(default_factory=list)


def judge(kind: str, expected: dict, extra_ops: int, code: int, stdout: str) -> Outcome:
    """Check one invocation's report.

    ``expected`` maps the row keys the invocation was asked for to their
    reference rows (``None`` when the baseline has no reference row);
    ``extra_ops`` counts operations that yield no row when they pass (sigma
    twists).  ``cells`` is the number of verified operations.
    """
    wanted = len(expected) + extra_ops
    if code in (2, 3):
        n = max(wanted, 1)
        return Outcome(attempted=n, failed=n, cells=0)
    try:
        report = json.loads(stdout)
        rows = report.get("results", [])
        failures = report["failures"]
    except (json.JSONDecodeError, KeyError, AttributeError) as exc:
        return Outcome(wanted or 1, wanted or 1, 0, [f"unreadable report (exit {code}): {exc}"])
    wrong = []
    if code != (1 if failures else 0):
        wrong.append(f"exit code {code} with {len(failures)} failures")
    seen = set()
    for row in rows:
        try:
            key = row_key(kind, row)
            errors = invariant_errors(kind, row)
        except (KeyError, TypeError) as exc:
            wrong.append(f"malformed row: {exc!r}")
            continue
        if key in seen:
            wrong.append(f"{key}: duplicate row")
        seen.add(key)
        ref = expected.get(key)
        if ref is not None and not matches_reference(row, ref):
            wrong.append(f"{key}: differs from the reference row")
        wrong.extend(f"{key}: {e}" for e in errors)
    failed_keys = set()
    for entry in failures:
        try:
            failed_keys.add(row_key(kind, entry))
        except KeyError:  # a failure that names no cell, e.g. a whole-run error
            pass
    missing = sum(1 for key in expected if key not in seen and key not in failed_keys)
    attempted = max(wanted, len(rows) + len(failures) + extra_ops)
    failed = min(attempted, len(failures) + missing)
    return Outcome(attempted, failed, attempted - failed, wrong)
