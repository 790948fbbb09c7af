"""Tests of the benchmark itself, on the q = 3 miniature of each workload.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
TIMED = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_metric_lists_match_benchmark_json():
    assert units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert units(SPEC["per_layer"]) == dict(run.PER_LAYER)
    assert sorted(TIMED) == sorted(set(workloads.WORKLOADS) - {"known-defects"})


@pytest.mark.parametrize("workload", TIMED)
def test_end_to_end_metrics_present(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--mini")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = units(SPEC["end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():  # printed by name with the unit
        assert f" {unit}" in next(l for l in proc.stdout.splitlines() if l.split()[:1] == [name])
    assert "failed_frac" in proc.stdout


@pytest.mark.parametrize("workload", TIMED)
def test_per_layer_metrics_present(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--mini"))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["per_layer"])
    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "gl2-grid":
        # only seen when the names imported by multiplicity and cli are wrapped
        assert value["multiplicity.verify_theorem.calls"] == 9
        assert value["groups.stabilizer_data.calls"] > 0
        assert value["groups.stabilizer_data.distinct_ratio"] < 1
    if workload == "lie-certify":
        assert value["dlchar.cuspidal_character.calls"] == 0
        assert value["gf.FieldElement.mul.calls"] > 0
    assert value["src_lines.total"] == sum(
        value[f"src_lines.{m}"] for m in run.LAYER_MODULES + ("other",)
    )


def _grid_invocation():
    return next(workloads.gl2_grid(0, mini=True))[0]


def test_reference_rejects_tampered_row():
    invocation = _grid_invocation()
    record = run.run_invocation(invocation)
    assert record.outcome.wrong == [] and record.outcome.failed == 0
    report = json.loads(record.result.stdout)
    # n_members is covered by no in-row invariant, only by the reference
    tampered = copy.deepcopy(report)
    tampered["results"][0]["orbits"][0]["n_members"] += 1
    outcome = check.judge("theorem", invocation.expected, 0, 0, json.dumps(tampered))
    assert len(outcome.wrong) == 1 and "reference" in outcome.wrong[0]
    # a timing field is not compared
    retimed = copy.deepcopy(report)
    retimed["results"][0]["wall_ms"] += 1.0
    assert check.judge("theorem", invocation.expected, 0, 0, json.dumps(retimed)).wrong == []


def test_invariants_check_rows_without_reference():
    invocation = _grid_invocation()
    report = json.loads(run.run_invocation(invocation).result.stdout)
    unreferenced = dict.fromkeys(invocation.expected)
    assert check.judge("theorem", unreferenced, 0, 0, json.dumps(report)).wrong == []
    row = report["results"][0]
    row["rhs"] = row["lhs"] + 1
    wrong = check.judge("theorem", unreferenced, 0, 0, json.dumps(report)).wrong
    assert any("contributions" in w for w in wrong)


def test_empty_report_counts_failed():
    # (3, 19) is no cell of the q = 5 product grid: the command exits 0 with
    # no rows, and the guard must count the requested row as failed
    key = check.theorem_key("gl2_x_gl2", 5, "swap", (3, 19))
    invocation = workloads.Invocation(
        ("verify", "theorem", "--group", "gl2_x_gl2", "--q", "5", "--exponent", "3,19"),
        "theorem", {key: None},
    )
    record = run.run_invocation(invocation)
    assert record.result.code == 0
    assert json.loads(record.result.stdout)["results"] == []
    assert (record.outcome.attempted, record.outcome.failed, record.outcome.cells) == (1, 1, 0)


def test_sampled_cells_are_grid_cells():
    for seed in range(5):
        for invocation in next(workloads.cell_replay(seed, mini=False)):
            assert len(invocation.expected) == 1
            assert all(ref is not None for ref in invocation.expected.values())


def test_q9_epsilon_counts_one_failed_operation():
    q9 = next(workloads.known_defects(0, mini=True))[1]
    assert "9" in q9.argv
    record = run.run_invocation(q9)
    assert record.result.code == 2
    assert (record.outcome.attempted, record.outcome.failed) == (1, 1)


def test_known_defects_fail_at_the_baseline():
    result = result_of(bench("--workload", "known-defects", "--seed", "0", "--seconds", "1", "--trace", "0", "--mini"))
    # the split transpose-inverse cell at q = 3 and the q = 9 invocation
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 2)


def test_self_time_subtracts_direct_children():
    dump = {
        "layers": ["a", "b", "c"],
        "spans": [[0, -1, 0, 100], [1, 0, 10, 50], [2, 1, 20, 30], [1, 0, 60, 70]],
        "counts": [0, 0, 5],
        "distinct": [0, 1, 0],
        "sizes": [0, 0, 0],
    }
    s = tracer.summarize(dump)
    assert (s["a"]["calls"], s["a"]["total_ns"], s["a"]["self_ns"]) == (1, 100, 50)
    assert (s["b"]["calls"], s["b"]["total_ns"], s["b"]["self_ns"]) == (2, 50, 40)
    assert (s["c"]["calls"], s["c"]["self_ns"]) == (6, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", TIMED[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
