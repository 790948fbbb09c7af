"""Benchmark of the dlcusp command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every invocation is a fresh interpreter on
the checkout's ``src/`` tree with the default ``--jobs 1``, run one at a
time (a closed loop with one client).  A run repeats passes of the workload
(see ``workloads.py``) until it is expected to end nearest ``--seconds``; it
always runs at least one.  Every returned row is checked
against the baseline reference (``check.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one pass untraced and the same pass under ``tracer.py``
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, and the machine and code the run measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import check
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dlcusp")
TRACE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
# The same entry point as the installed ``dlcusp`` console script.
CLI = ("-c", "import sys; from dlcusp.cli import main; sys.exit(main())")
SETUP_SAMPLES = 8  # before and again after the measured passes
LAYER_MODULES = ("cli", "multiplicity", "dlchar", "groups", "rootdata", "gf", "linalg")

END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("cell_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# (layer, stat) pairs reported by the traced run; see tracer.LAYERS.
LAYER_STATS = (
    ("cli.main", ("self_s",)),
    ("multiplicity.verify_theorem", ("calls", "total_s", "self_s")),
    ("multiplicity.lhs_multiplicity", ("total_s",)),
    ("multiplicity.rhs_orbit_sum", ("total_s",)),
    ("multiplicity.census_for", ("calls", "distinct_ratio")),
    ("multiplicity.epsilon_character", ("calls", "total_s")),
    ("dlchar.conjugacy_classes", ("total_s", "distinct_ratio")),
    ("dlchar.cuspidal_character", ("calls", "total_s", "distinct_ratio")),
    ("groups.TorusEmbedding", ("calls", "distinct_ratio")),
    ("groups.involution_orbit", ("calls", "total_s", "members")),
    ("groups.stabilizer_data", ("calls", "total_s", "distinct_ratio")),
    ("groups.fixed_subgroup", ("calls", "total_s", "elements", "distinct_ratio")),
    ("groups.MatrixGroup.gl2_elements", ("total_s",)),
    ("groups.phi_theta_certified", ("calls", "total_s")),
    ("groups.lie_fixed_det", ("calls", "total_s")),
    ("rootdata.load_datum", ("calls", "total_s")),
    ("rootdata.epsilon_product", ("calls", "total_s")),
    ("rootdata.sigma_product", ("total_s",)),
    ("rootdata.verify_centralizer_sigma", ("total_s",)),
    ("gf.FieldTower.discrete_log", ("calls", "total_s")),
    ("gf.FieldTower.sqrt", ("calls", "total_s")),
    ("gf.FieldElement.mul", ("calls",)),
    ("linalg.fq_nullspace", ("calls", "total_s")),
    ("linalg.fq_solve", ("total_s",)),
    ("linalg.fq_det", ("calls", "total_s")),
)
STAT_UNITS = {
    "calls": "count",
    "total_s": "s",
    "self_s": "s",
    "distinct_ratio": "ratio",
    "members": "count",
    "elements": "count",
}
PER_LAYER = (
    tuple((f"{layer}.{stat}", STAT_UNITS[stat]) for layer, stats in LAYER_STATS for stat in stats)
    + (("trace_overhead_frac", "ratio"), ("failed_frac", "ratio"))
    + tuple((f"src_lines.{m}", "lines") for m in LAYER_MODULES + ("other", "total"))
)


# ---------------------------------------------------------------------------
# one invocation


@dataclass(frozen=True)
class Result:
    """Exit code, output, wall time and peak memory of one child process."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def execute(argv) -> Result:
    """Run one child to completion and reap it with its own resource usage.

    The child's interpreter settings do not come from the caller's
    environment: every ``PYTHON*`` variable is dropped (so, for one, the
    bytecode cache is written and used, as in an installed copy), and a
    fixed hash seed keeps set and dict iteration orders, and with them the
    work done, the same from run to run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Result(proc.returncode, out, err[0], wall, usage.ru_maxrss)


class Record:
    """One checked invocation."""

    def __init__(self, invocation, result: Result):
        self.invocation = invocation
        self.result = result
        self.outcome = check.judge(
            invocation.kind, invocation.expected, invocation.extra_ops, result.code, result.stdout
        )


def run_invocation(invocation, spans_path=None) -> Record:
    if spans_path is None:
        argv = [*CLI, *invocation.argv]
    else:
        argv = [TRACE_SCRIPT, spans_path, "--", *invocation.argv]
    return Record(invocation, execute(argv))


# ---------------------------------------------------------------------------
# measurements


def measure_setup(samples: int, untimed: int = 0) -> list:
    """Wall times of ``dlcusp --version`` in fresh interpreters.

    The ``untimed`` calls come first; they write the bytecode cache, as any
    installed copy would already have it.
    """
    times = []
    for i in range(untimed + samples):
        result = execute([*CLI, "--version"])
        if result.code != 0:
            raise SystemExit(f"dlcusp --version exited {result.code}: {result.stderr}")
        if i >= untimed:
            times.append(result.wall_s)
    return times


def timed_passes(passes, seconds: float) -> list:
    """Run whole passes until the run is expected to end nearest ``seconds``.

    The run stops once the next pass would overshoot ``seconds`` by more
    than stopping now falls short of it.
    """
    records, pass_times = [], []
    start = time.perf_counter()
    for invocations in passes:
        t0 = time.perf_counter()
        records.extend(run_invocation(inv) for inv in invocations)
        pass_times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(pass_times) / 2 >= seconds:
            return records
    return records


def end_to_end(records, setup_times) -> dict:
    """The end-to-end metrics of the checked invocations of a run.

    For ``cell_s.p50`` every cell costs the wall time per attempted cell of
    its stratum, the invocations of one command shape, and the metric is the
    median over cells.  All cells of one invocation share its time, so a
    median over invocations would rest on the one that holds the middle cell.
    """
    verified = sum(r.outcome.cells for r in records)
    wall = sum(r.result.wall_s for r in records)
    stratum_wall, stratum_cells = {}, {}
    for r in records:
        s = r.invocation.stratum
        stratum_wall[s] = stratum_wall.get(s, 0.0) + r.result.wall_s
        stratum_cells[s] = stratum_cells.get(s, 0) + r.outcome.attempted
    per_cell = [stratum_wall[s] / n for s, n in stratum_cells.items() for _ in range(n)]
    return {
        "cells_per_s": verified / wall,
        "cell_s.p50": statistics.median(per_cell),
        "peak_rss_mb": max(r.result.maxrss_kb for r in records) / 1024,
        "setup_s": statistics.median(setup_times),
    }


def traced_pass(invocations, work_dir: str):
    """Run a pass under the tracer; return its records and per-layer totals.

    Layers the tree no longer defines, or whose arguments no longer carry
    their key, are named on standard error.
    """
    records, totals, warnings = [], {}, set()
    for i, invocation in enumerate(invocations):
        path = os.path.join(work_dir, f"spans-{i}.json")
        records.append(run_invocation(invocation, path))
        with open(path) as fh:
            dump = json.load(fh)
        for what in ("missing", "unkeyed"):
            for layer in dump[what]:
                warnings.add(f"layer {layer} is {what} in this tree")
        summary = tracer.summarize(dump)
        for layer, stats in summary.items():
            acc = totals.setdefault(layer, dict.fromkeys(stats, 0))
            for stat, value in stats.items():
                acc[stat] += value
    for warning in sorted(warnings):
        sys.stderr.write(warning + "\n")
    return records, totals


def layer_metrics(totals: dict) -> dict:
    out = {}
    for layer, stats in LAYER_STATS:
        t = totals[layer]
        values = {
            "calls": t["calls"],
            "total_s": t["total_ns"] / 1e9,
            "self_s": t["self_ns"] / 1e9,
            # distinct inputs within one invocation, summed over invocations;
            # 1.0 when nothing was called, as nothing was recomputed
            "distinct_ratio": t["distinct"] / t["calls"] if t["calls"] else 1.0,
            "members": t["size"],
            "elements": t["size"],
        }
        for stat in stats:
            out[f"{layer}.{stat}"] = values[stat]
    return out


def src_lines() -> dict:
    """Non-blank, non-comment lines of each module under src/dlcusp/."""
    counts = dict.fromkeys(LAYER_MODULES + ("other",), 0)
    for dirpath, _, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name)) as fh:
                n = sum(1 for line in fh if line.strip() and not line.strip().startswith("#"))
            module = name[:-3] if dirpath == PACKAGE else ""
            counts[module if module in LAYER_MODULES else "other"] += n
    counts["total"] = sum(counts.values())
    return {f"src_lines.{m}": n for m, n in counts.items()}


def context(workload: str, seed: int) -> dict:
    """The machine and code a result was measured on."""
    digest = hashlib.sha256()
    for dirpath, dirs, files in sorted(os.walk(PACKAGE)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_lines(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next((l.split()[0] for l in fh if l.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


# ---------------------------------------------------------------------------
# the run


def run(workload: str, seed: int, seconds: float, traced: bool, mini: bool = False) -> dict:
    """Measure one workload and return the result object."""
    passes = workloads.WORKLOADS[workload](seed, mini)
    if not traced:
        # set-up is sampled on both sides of the passes, so that its median
        # spans the same stretch of machine time as the passes
        setup_times = measure_setup(SETUP_SAMPLES, untimed=2)
        records = timed_passes(passes, seconds)
        setup_times += measure_setup(SETUP_SAMPLES)
        metrics = end_to_end(records, setup_times)
        notes = {"cell_s.p50": f"{sum(r.outcome.attempted for r in records)} samples",
                 "setup_s": f"{len(setup_times)} samples"}
    else:
        measure_setup(0, untimed=2)
        invocations = next(passes)
        work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            records = [run_invocation(inv) for inv in invocations]
            traced_records, totals = traced_pass(invocations, work_dir)
        finally:
            shutil.rmtree(work_dir)
        metrics = layer_metrics(totals)
        untraced_s = sum(r.result.wall_s for r in records)
        metrics["trace_overhead_frac"] = sum(r.result.wall_s for r in traced_records) / untraced_s - 1
        records += traced_records
        notes = {}
    attempted = sum(r.outcome.attempted for r in records)
    failed = sum(r.outcome.failed for r in records)
    if traced:
        metrics["failed_frac"] = failed / attempted
        metrics.update(src_lines())
    wrong = [(r.invocation.argv, w) for r in records for w in r.outcome.wrong]
    for argv, message in wrong:
        sys.stderr.write(f"wrong result from dlcusp {' '.join(argv)}: {message}\n")
    units = dict(PER_LAYER if traced else END_TO_END)
    print(
        f"workload {workload}, seed {seed}, trace {int(traced)}: "
        f"{len(records)} invocations, {attempted} operations, {failed} failed"
    )
    if not traced:
        print(f"  {'failed_frac':<44} {failed / attempted:.6g} ratio")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:.6g} {units[name]}{note}")
    for r in records:
        print(f"  {r.result.wall_s:9.3f} s  exit {r.result.code}  dlcusp {' '.join(r.invocation.argv)}")
    print("context " + json.dumps(context(workload, seed), sort_keys=True))
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mini", action="store_true", help="the q = 3 miniature, for tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.stderr.write(f"no dlcusp source tree at {PACKAGE}\n")
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.mini)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
