"""Record the reference rows the benchmark checks every run against.

Run once, at the commit whose results are the reference, from the root of
a checkout::

    python3 perfbench/make_reference.py WORK_DIR

It runs every theorem grid the workloads sample from and every Lie-side
command they send, keeps the raw reports in WORK_DIR (a report already
there is reused, so an interrupted run resumes), and writes
``reference/theorem.json`` (theorem rows by cell, as a digest plus the
readable lhs, rhs and m values) and
``reference/lie.json`` (rows by command label), all fields except
``wall_ms``.  Only rows the command verified are kept; failed cells have no
reference row.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import check
import workloads

THEOREM_GRIDS = (("gl2", 3), ("gl2", 5), ("gl2", 7), ("gl2", 11), ("gl2_x_gl2", 3), ("gl2_x_gl2", 5))


def _report(work_dir: str, name: str, argv) -> dict:
    path = os.path.join(work_dir, name + ".json")
    if not os.path.exists(path):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dlcusp.cli import main; sys.exit(main())", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=workloads.SRC),
        )
        if proc.returncode not in (0, 1, 2):
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
        report = json.loads(proc.stdout) if proc.returncode != 2 else {"results": [], "failures": []}
        with open(path, "w") as fh:
            json.dump(report, fh)
    with open(path) as fh:
        return json.load(fh)


def _checked(kind: str, rows) -> list:
    out = []
    for row in rows:
        errors = check.invariant_errors(kind, row)
        if errors:
            raise SystemExit(f"{check.row_key(kind, row)}: {errors}")
        out.append(check.strip_timing(row))
    return out


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    work_dir = argv[0]
    os.makedirs(work_dir, exist_ok=True)
    theorem = {}
    for group, q in THEOREM_GRIDS:
        report = _report(work_dir, f"theorem-{group}-q{q}", ["verify", "theorem", "--group", group, "--q", str(q)])
        for row in _checked("theorem", report["results"]):
            theorem[check.row_key("theorem", row)] = {
                "lhs": row["lhs"],
                "rhs": row["rhs"],
                "m_values": row["m_values"],
                "sha256": check.row_digest(row),
            }
    lie = {}
    labels = {
        label
        for table in (workloads.LIE_CERTIFY, workloads.KNOWN_DEFECTS)
        for labels in table.values()
        for label in labels
    }
    for label in sorted(labels):
        kind = label.split()[1]
        name = label.replace(" ", "_")
        lie[label] = _checked(kind, _report(work_dir, name, label.split())["results"])
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name, table in (("theorem", theorem), ("lie", lie)):
        with open(os.path.join(check.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
