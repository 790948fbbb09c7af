"""The mutant list that ``mutants/run.py`` replays is well formed and current:
every entry has its five fields, and its old text occurs exactly once in
its file, so no entry silently stops applying after a refactor."""

import importlib.util
from pathlib import Path

RUNNER = Path(__file__).resolve().parent.parent / "mutants" / "run.py"


def _runner():
    spec = importlib.util.spec_from_file_location("mutants_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_list_is_well_formed_and_each_old_text_occurs_once():
    runner = _runner()
    entries = runner.load()
    assert len(entries) >= 6
    assert runner.problems(entries) == []


def test_a_stale_or_malformed_entry_is_reported():
    runner = _runner()
    entry = runner.load()[0]
    assert runner.problems([entry, entry]) == [f"{entry['id']}: the id is not unique"] * 2
    stale = dict(entry, old=entry["old"] + "never written")
    assert runner.problems([stale]) == [
        f"{entry['id']}: old text occurs 0 times in {entry['file']}"
    ]
    assert "does not have exactly the fields" in runner.problems([{"id": "x"}])[0]
    missing = dict(entry, tests=["tests/test_multiplicity.py::test_no_such_test"])
    assert runner.problems([missing]) == [
        f"{entry['id']}: tests/test_multiplicity.py defines no test_no_such_test"
    ]
