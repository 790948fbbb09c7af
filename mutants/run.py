"""Replay the mutants listed in mutants.json: each must make its tests fail.

Run as ``python3 mutants/run.py``.  An entry is
``{id, file, old, new, tests}``: ``old`` must occur exactly once in
``file`` (a path under the repository root), and ``tests`` are pytest node
ids, a test function standing for all of its parameters.  The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
first runs every listed test there unchanged (each must pass), then, per
entry, writes ``new`` in place of ``old`` and runs only that entry's tests.
The entry is killed when each of its tests fails.  Exit 0 when every entry
is killed; 1 when one survives, a test fails unmutated, or the list is
malformed or stale.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST = os.path.join(ROOT, "mutants", "mutants.json")
FIELDS = ("id", "file", "old", "new", "tests")


def load(path: str = LIST) -> list:
    with open(path) as fh:
        return json.load(fh)


def problems(entries, root: str = ROOT) -> list:
    """Why the list is malformed or stale, one message per fault: every
    entry has exactly FIELDS, the ids are distinct, old occurs exactly once
    in its file and differs from new, and each test names a file under
    tests/ that defines the test function."""
    found = []
    if not isinstance(entries, list):
        return ["the list is not a JSON array"]
    ids = [e.get("id") for e in entries if isinstance(e, dict)]
    for entry in entries:
        if not isinstance(entry, dict) or sorted(entry) != sorted(FIELDS):
            found.append(f"entry {entry!r} does not have exactly the fields {FIELDS}")
            continue
        name = entry["id"]
        if ids.count(name) > 1:
            found.append(f"{name}: the id is not unique")
        if entry["old"] == entry["new"]:
            found.append(f"{name}: old and new are the same text")
        path = os.path.join(root, entry["file"])
        if not os.path.isfile(path):
            found.append(f"{name}: no file {entry['file']}")
        else:
            with open(path) as fh:
                count = fh.read().count(entry["old"])
            if count != 1:
                found.append(f"{name}: old text occurs {count} times in {entry['file']}")
        if not entry["tests"]:
            found.append(f"{name}: no tests")
        for test in entry["tests"]:
            file, _, function = test.partition("::")
            test_path = os.path.join(root, file)
            if not (file.startswith("tests/") and function and os.path.isfile(test_path)):
                found.append(f"{name}: {test} is not a test id under tests/")
                continue
            with open(test_path) as fh:
                if f"def {function.split('[')[0]}(" not in fh.read():
                    found.append(f"{name}: {file} defines no {function}")
    return found


def _copy(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _run_tests(copy: str, tests) -> dict:
    """{listed test id: (cases run, cases failed)} for one pytest run in copy."""
    report = os.path.join(copy, "junit.xml")
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    outcome = {test: (0, 0) for test in tests}
    if not os.path.exists(report):
        return outcome
    for case in ET.parse(report).iter("testcase"):
        module = case.get("classname", "").replace(".", "/")
        node = f"{module}.py::{case.get('name')}"
        failed = case.find("failure") is not None or case.find("error") is not None
        for test in tests:
            if node == test or node.startswith(test + "["):
                ran, bad = outcome[test]
                outcome[test] = (ran + 1, bad + failed)
    os.unlink(report)
    return outcome


def main() -> int:
    entries = load()
    faults = problems(entries)
    if faults:
        print("\n".join(faults))
        return 1
    ok = True
    with tempfile.TemporaryDirectory(prefix="dlcusp-mutants-") as copy:
        _copy(copy)
        every = list(dict.fromkeys(t for e in entries for t in e["tests"]))
        for test, (ran, bad) in _run_tests(copy, every).items():
            if not ran or bad:
                print(f"unmutated: {test} ran {ran} cases, {bad} failed")
                ok = False
        if not ok:
            return 1
        for entry in entries:
            path = os.path.join(copy, entry["file"])
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(original.replace(entry["old"], entry["new"]))
            t0 = time.perf_counter()
            outcome = _run_tests(copy, entry["tests"])
            with open(path, "w") as fh:
                fh.write(original)
            survivors = [t for t, (ran, bad) in outcome.items() if not bad]
            status = "SURVIVED" if survivors else "killed"
            print(f"{status:9}{entry['id']} ({time.perf_counter() - t0:.1f} s)")
            for test in survivors:
                print(f"         passes: {test}")
            ok = ok and not survivors
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
