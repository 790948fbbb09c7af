"""Per-layer spans for one dlcusp command.

Run as ``python3 perfbench/tracer.py SPANS_OUT -- ARGS...``.  It imports the
``dlcusp`` package from the ``src/`` tree beside this directory, wraps the
layer functions listed in LAYERS, runs ``dlcusp.cli.main(ARGS)`` in this
process and, at exit, writes the recorded spans and counters to SPANS_OUT as
JSON.  The command's own report goes to standard output as usual, and its
exit code is this script's exit code.

A wrapper replaces the original object under every name that holds it: in
each ``dlcusp`` module (``multiplicity`` imports ``stabilizer_data`` from
``groups`` by name, ``cli`` imports ``verify_theorem`` from
``multiplicity``) and in each class dictionary (``FieldElement.__rmul__`` is
``__mul__``).  Patching only the defining module would miss those calls.

Spans are kept in memory as ``[layer, parent span, start_ns, end_ns]`` and
written out whole; ``summarize`` turns them into per-layer calls, total time
and self time.  The program runs with ``--jobs 1``, so spans nest on one
thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _group_key(group):
    return (group.kind, group.q)


def _theta_key(theta):
    return (theta.group.kind, theta.group.q, theta.kind, theta.witness)


@dataclass(frozen=True)
class Layer:
    """One traced boundary.

    ``name`` is the metric prefix ``<module>.<function>``; ``attr`` is the
    dotted path of the wrapped object inside ``dlcusp.<module>``.  ``key``
    maps the bound call arguments to the input identity used for
    ``distinct_ratio``; ``size`` maps the result to the number of elements
    it enumerated.  A ``count_only`` layer records a call count and no spans.
    """

    name: str
    attr: str
    key: Callable | None = None
    size: Callable | None = None
    count_only: bool = False

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


LAYERS = (
    Layer("cli.main", "main"),
    Layer("multiplicity.verify_theorem", "verify_theorem"),
    Layer("multiplicity.lhs_multiplicity", "lhs_multiplicity"),
    Layer("multiplicity.rhs_orbit_sum", "rhs_orbit_sum"),
    Layer(
        "multiplicity.census_for",
        "census_for",
        key=lambda a: (_group_key(a["group"]), a["torus"].kind, a["seed"]),
    ),
    Layer("multiplicity.epsilon_character", "epsilon_character"),
    Layer("dlchar.conjugacy_classes", "conjugacy_classes", key=lambda a: _group_key(a["group"])),
    Layer(
        "dlchar.cuspidal_character",
        "cuspidal_character",
        key=lambda a: (_group_key(a["group"]), a["k"]),
    ),
    Layer(
        "groups.TorusEmbedding",
        "TorusEmbedding.__init__",
        key=lambda a: (_group_key(a["group"]), a["kind"]),
    ),
    Layer(
        "groups.involution_orbit",
        "involution_orbit",
        size=lambda census: len(census.all_members),
    ),
    Layer(
        "groups.stabilizer_data",
        "stabilizer_data",
        key=lambda a: (_theta_key(a["theta"]), a["torus"].kind),
    ),
    Layer(
        "groups.fixed_subgroup",
        "fixed_subgroup",
        key=lambda a: _theta_key(a["theta"]),
        size=len,
    ),
    Layer("groups.MatrixGroup.gl2_elements", "MatrixGroup.gl2_elements"),
    Layer("groups.phi_theta_certified", "phi_theta_certified"),
    Layer("groups.lie_fixed_det", "lie_fixed_det"),
    Layer("rootdata.load_datum", "load_datum"),
    Layer("rootdata.epsilon_product", "epsilon_product"),
    Layer("rootdata.sigma_product", "sigma_product"),
    Layer("rootdata.verify_centralizer_sigma", "verify_centralizer_sigma"),
    Layer("gf.FieldTower.discrete_log", "FieldTower.discrete_log"),
    Layer("gf.FieldTower.sqrt", "FieldTower.sqrt"),
    Layer("gf.FieldElement.mul", "FieldElement.__mul__", count_only=True),
    Layer("linalg.fq_nullspace", "fq_nullspace"),
    Layer("linalg.fq_solve", "fq_solve"),
    Layer("linalg.fq_det", "fq_det"),
)


class Tracer:
    """Span store and wrapper factory for one process."""

    def __init__(self):
        self.layers = LAYERS
        self.spans = []
        self.stack = []
        self.counts = [0] * len(LAYERS)
        self.keys = [set() for _ in LAYERS]
        self.sizes = [0] * len(LAYERS)
        self.unkeyed = [0] * len(LAYERS)
        self.missing = []

    def _wrap(self, index: int, layer: Layer, fn):
        if layer.count_only:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[index] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, keys, sizes, unkeyed = (
            self.spans, self.stack, self.keys[index], self.sizes, self.unkeyed
        )
        signature = inspect.signature(fn) if layer.key else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                try:
                    keys.add(layer.key(signature.bind(*args, **kwargs).arguments))
                except (KeyError, AttributeError, TypeError):
                    # the arguments no longer carry the key: count the call
                    # as a distinct input, and report the layer as unkeyed
                    unkeyed[index] += 1
            span = [index, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if layer.size is not None:
                try:
                    sizes[index] += layer.size(result)
                except (AttributeError, TypeError):
                    unkeyed[index] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer under every name that holds its original object.

        A layer whose object the package no longer defines is left unwrapped
        and reports zero calls; its name is kept in ``missing``.
        """
        importlib.import_module("dlcusp.cli")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dlcusp"]
        for index, layer in enumerate(self.layers):
            try:
                owner = importlib.import_module(f"dlcusp.{layer.module}")
            except ModuleNotFoundError:
                owner = None
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None) if owner is not None else None
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(layer.name)
                continue
            wrapper = self._wrap(index, layer, original)
            holders = [owner] if path else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

    def dump(self) -> dict:
        return {
            "layers": [layer.name for layer in self.layers],
            "spans": self.spans,
            "counts": self.counts,
            "distinct": [len(k) + u for k, u in zip(self.keys, self.unkeyed)],
            "sizes": self.sizes,
            "missing": self.missing,
            "unkeyed": [layer.name for layer, u in zip(self.layers, self.unkeyed) if u],
        }


def summarize(dump: dict) -> dict:
    """Per-layer totals of one dump: calls, total_ns, self_ns, distinct, size.

    A span's self time is its duration minus the durations of its direct
    child spans.  For count-only layers ``calls`` is the recorded count.
    """
    n = len(dump["layers"])
    calls = list(dump["counts"])
    total = [0] * n
    child = [0] * len(dump["spans"])
    for layer, parent, start, end in dump["spans"]:
        if parent >= 0:
            child[parent] += end - start
    self_ns = [0] * n
    for i, (layer, _, start, end) in enumerate(dump["spans"]):
        calls[layer] += 1
        total[layer] += end - start
        self_ns[layer] += end - start - child[i]
    return {
        name: {
            "calls": calls[i],
            "total_ns": total[i],
            "self_ns": self_ns[i],
            "distinct": dump["distinct"][i],
            "size": dump["sizes"][i],
        }
        for i, name in enumerate(dump["layers"])
    }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS_OUT -- ARGS...\n")
        return 2
    out_path, args = argv[0], argv[2:]
    sys.path.insert(0, SRC)
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["dlcusp.cli"]
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse exits for --version and bad usage
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
