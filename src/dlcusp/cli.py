"""Command-line verification harness.

Subcommands
    verify sigma              four-route sign identity over the datum library
    verify epsilon            det-vs-product agreement for torus sign characters
    verify phi-theta          three-way certification of the killed-root set
    verify centralizer-sigma  sign transfer to the centralizer datum
    verify theorem            the multiplicity identity over a (q, seed, lambda) grid
    table                     multiplicity table emission (csv or json)

Exit codes: 0 all checks pass, 1 a verification failed (counterexample JSON
on stdout), 2 invalid configuration, 3 resource bound exceeded.  Reports are
written atomically (write-then-rename) and are byte-stable for a fixed
configuration and package version.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from typing import NamedTuple

from . import __version__
from .dlchar import general_position_exponents
from .errors import ConfigError, ConsistencyError, ResourceBoundError, TheoremViolation
from .groups import TORUS_DATA, MatrixGroup, TorusEmbedding, phi_theta_certified
from .multiplicity import census_for, epsilon_character, verify_theorem
from .rootdata import (
    datum_involutions,
    datum_names,
    fq_rank_sigma,
    load_datum,
    random_twists,
    sigma_group,
    sigma_product,
    verify_centralizer_sigma,
)

CSV_COLUMNS = (
    "group",
    "q",
    "involution_seed",
    "lambda_exponent",
    "lhs",
    "rhs",
    "n_matching_orbits",
    "m_values",
    "wall_ms",
)

NAMED_SEEDS = {
    "gl2": ("diag", "antidiag", "transpose-inverse"),
    "gl2_x_gl2": ("swap",),
}


class RunConfig(NamedTuple):
    command: str
    group: str | None = None
    qs: tuple = ()
    data: tuple = ()
    involutions: tuple = ()
    torus: str = "both"
    exponent: tuple | None = None
    out: str | None = None
    fmt: str = "json"
    twists: int = 0
    rng_seed: int = 0

    def as_json(self) -> dict:
        return {
            "command": self.command,
            "group": self.group,
            "q": list(self.qs),
            "data": list(self.data),
            "involutions": list(self.involutions),
            "torus": self.torus,
            "exponent": list(self.exponent) if self.exponent else None,
            "format": self.fmt,
            "twists": self.twists,
            "rng_seed": self.rng_seed,
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, float, str, bool)) or x is None:
        return x
    return str(x)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dlcusp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give the report the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, results, failures) -> None:
    if config.fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in results:
            lines.append(
                ",".join(str(row.get(col, "")) for col in CSV_COLUMNS)
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {
                "version": __version__,
                "config": config.as_json(),
                "results": _jsonable(results),
                "failures": _jsonable(failures),
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    if config.out:
        _write_atomic(config.out, text)
    else:
        sys.stdout.write(text)


def _fail_exit(config, failures) -> int:
    # without --out a JSON report, which embeds the failures, is already on
    # stdout; a CSV report there does not, and stdout stays one CSV stream
    text = json.dumps({"failures": _jsonable(failures)}, indent=2, sort_keys=True) + "\n"
    if config is None or config.out:
        sys.stdout.write(text)
    elif config.fmt == "csv":
        sys.stderr.write(text)
    return 1


# ---------------------------------------------------------------------------
# subcommands


def _data_list(config: RunConfig):
    names = config.data or ("all",)
    if "all" in names:
        return tuple(datum_names())
    return tuple(names)


def cmd_verify_sigma(config: RunConfig) -> int:
    results = []
    failures = []
    for name in _data_list(config):
        datum = load_datum(name)
        try:
            sign = sigma_product(datum)
            rank, s_t = fq_rank_sigma(datum)
            results.append(
                {
                    "datum": name,
                    "fixed_rank": rank,
                    "sigma_torus": s_t,
                    "sigma_group": sigma_group(datum),
                    "sigma_product": sign,
                }
            )
        except ConsistencyError as e:
            failures.append({"datum": name, "message": str(e), "detail": e.detail})
        if config.twists:
            # equal draws share one datum: certify each distinct one once, and
            # walk the draws only to report a failure at every index
            twists = random_twists(datum, config.twists, seed=config.rng_seed)
            failed = {}
            for twisted in dict.fromkeys(twists):
                try:
                    sigma_product(twisted)
                except ConsistencyError as e:
                    failed[twisted] = e
            if failed:
                for i, twisted in enumerate(twists):
                    e = failed.get(twisted)
                    if e is not None:
                        failures.append(
                            {
                                "datum": name,
                                "twist": i,
                                "tau": twisted.tau,
                                "message": str(e),
                                "detail": e.detail,
                            }
                        )
    _emit(config, results, failures)
    return _fail_exit(config, failures) if failures else 0


def _group_qs(config: RunConfig):
    if not config.group or not config.qs:
        raise ConfigError("this subcommand needs --group and --q")
    return [(config.group, q) for q in config.qs]


def _seeds_for(config: RunConfig, kind: str):
    if config.involutions:
        return config.involutions
    return NAMED_SEEDS[kind]


def _tori(config: RunConfig, group: MatrixGroup):
    """The tori of a run; "both" means the wired ones, and a torus named
    explicitly that is not wired for the group is refused by TorusEmbedding."""
    if config.torus != "both":
        kinds = (config.torus,)
    else:
        kinds = [torus for kind, torus in TORUS_DATA if kind == group.kind]
    return [TorusEmbedding(group, k) for k in kinds]


def _stable_orbit_cells(config: RunConfig, certify) -> int:
    """One cell per stable torus orbit of each (q, torus, seed) of the run,
    with the fields that certify(representative, torus) returns."""
    results = []
    failures = []
    for kind, q in _group_qs(config):
        group = MatrixGroup(kind, q)
        for torus in _tori(config, group):
            for seed in _seeds_for(config, kind):
                census = census_for(group, torus, seed)
                for orbit in census.t_orbits:
                    if not orbit.stable:
                        continue
                    cell = {
                        "group": kind,
                        "q": q,
                        "torus": torus.kind,
                        "seed": seed,
                        "witness": _jsonable(orbit.representative.witness),
                    }
                    try:
                        cell.update(certify(orbit.representative, torus))
                        results.append(cell)
                    except ConsistencyError as e:
                        failures.append(
                            dict(cell, message=str(e), detail=_jsonable(e.detail))
                        )
    _emit(config, results, failures)
    return _fail_exit(config, failures) if failures else 0


def _epsilon_fields(theta, torus) -> dict:
    signs = epsilon_character(theta, torus)
    return {"domain_size": len(signs), "signs": sorted(set(signs.values()))}


def _phi_theta_fields(theta, torus) -> dict:
    return {"killed_roots": _jsonable(phi_theta_certified(theta, torus))}


def cmd_verify_epsilon(config: RunConfig) -> int:
    return _stable_orbit_cells(config, _epsilon_fields)


def cmd_verify_phi_theta(config: RunConfig) -> int:
    return _stable_orbit_cells(config, _phi_theta_fields)


def cmd_verify_centralizer_sigma(config: RunConfig) -> int:
    results = []
    failures = []
    for name in _data_list(config):
        datum = load_datum(name)
        for theta in datum_involutions(datum).values():
            fixes_a_root = any(
                theta.apply(a) == a for a in datum.roots
            )
            cell = {"datum": name, "involution": theta.name}
            if fixes_a_root:
                cell["skipped"] = "fixes a root"
                results.append(cell)
                continue
            try:
                cell["sign"] = verify_centralizer_sigma(datum, theta)
                results.append(cell)
            except ConsistencyError as e:
                failures.append(dict(cell, message=str(e), detail=_jsonable(e.detail)))
    _emit(config, results, failures)
    return _fail_exit(config, failures) if failures else 0


def _theorem_rows(config: RunConfig):
    """One row per (group, q, seed, lambda exponents), deterministic order.

    The first factor's exponent runs over the Frobenius pair
    representatives, every other factor's over their negatives.  An
    --exponent that names no cell at some q is refused, with the
    representatives it may name instead.
    """
    cells = []
    for kind, q in _group_qs(config):
        group = MatrixGroup(kind, q)
        reps = [k for k, _ in general_position_exponents(group.factor)]
        n = group.tower.ext.order
        choices = [reps] + [[-k % n for k in reps]] * (group.n_factors - 1)
        grid = list(itertools.product(*choices))
        if config.exponent:
            grid = [exps for exps in grid if exps == config.exponent]
            if not grid:
                allowed = f"k in {reps}"
                if group.n_factors > 1:
                    names = [f"k{i}" for i in range(1, group.n_factors + 1)]
                    allowed = f"{','.join(names)} with " + " and ".join(
                        f"{a} in {c}" for a, c in zip(names, choices)
                    )
                raise ConfigError(
                    f"--exponent {','.join(map(str, config.exponent))} names no cell of "
                    f"{kind} at q = {q}; the representatives are {allowed}"
                )
        for seed in _seeds_for(config, kind):
            cells.extend((group, q, seed, exps) for exps in grid)
    return cells


def _run_theorem_cell(cell):
    group, q, seed, exps = cell
    res = verify_theorem(group, seed, exps)
    return {
        "group": group.kind,
        "q": q,
        "involution_seed": seed,
        "lambda_exponent": "|".join(str(k) for k in exps),
        "lhs": res.lhs,
        "rhs": res.rhs,
        "n_matching_orbits": sum(res.matching),
        "m_values": "|".join(str(m) for m in res.m_values),
        "wall_ms": round(res.wall_ms, 3),
        "orbits": _orbit_rows(res),
    }


def _orbit_rows(result) -> list:
    """One report row per torus orbit of a TheoremResult, in census order."""
    return [
        {
            "witness": _jsonable(entry.orbit.representative.witness),
            "kind": entry.orbit.representative.kind,
            "n_members": len(entry.orbit.members),
            "stable": entry.orbit.stable,
            "matching": matching,
            "m": entry.m,
            "contribution": entry.m if matching else 0,
        }
        for entry, matching in zip(result.entries, result.matching)
    ]


def cmd_verify_theorem(config: RunConfig) -> int:
    cells = _theorem_rows(config)
    failures = []
    results = []
    for cell in cells:
        ok, payload = _theorem_cell_safe(cell, config.command)
        (results if ok else failures).append(payload)
    results.sort(key=_row_key)
    _emit(config, results, failures)
    return _fail_exit(config, failures) if failures else 0


def _theorem_cell_safe(cell, command: str):
    """(True, row) of a cell, or (False, failure entry); a failure entry's
    replay is the argv that reruns that cell alone.  A TheoremViolation's
    detail is its two sides and the row's orbits, without the timing, so
    the entry is byte-stable like a report."""
    try:
        return True, _run_theorem_cell(cell)
    except ConsistencyError as e:
        group, q, seed, exps = cell
        detail = e.detail
        if isinstance(e, TheoremViolation):
            detail = {"lhs": detail.lhs, "rhs": detail.rhs, "orbits": _orbit_rows(detail)}
        return False, {
            "group": group.kind,
            "q": q,
            "involution_seed": seed,
            "lambda_exponent": "|".join(str(k) for k in exps),
            "message": str(e),
            "detail": _jsonable(detail),
            "replay": [
                *command.split(),
                "--group", group.kind,
                "--q", str(q),
                "--exponent", ",".join(map(str, exps)),
                "--involution", seed,
            ],
        }


def _row_key(row):
    return (
        row["group"],
        row["q"],
        row["involution_seed"],
        tuple(int(k) for k in row["lambda_exponent"].split("|")),
    )


# ---------------------------------------------------------------------------
# argument plumbing


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dlcusp", description="exact verification of cuspidal distinction data"
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    def common(p, group=True, torus=False, fmt=None):
        # fmt: the default of --format, on the runs that can write csv
        if group:
            p.add_argument("--group", choices=("gl2", "gl2_x_gl2"))
            p.add_argument("--q", type=int, nargs="+", default=[])
            p.add_argument(
                "--involution",
                action="append",
                default=[],
                help="named seed; repeatable (default: all named for the group)",
            )
        if torus:
            p.add_argument("--torus", choices=("split", "elliptic", "both"), default="both")
        p.add_argument("--out", help="report path (stdout when omitted)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)

    sigma = vsub.add_parser("sigma", help="four-route sign identity")
    sigma.add_argument("--data", action="append", default=[], help="datum name or 'all'")
    sigma.add_argument("--twists", type=int, default=0)
    sigma.add_argument("--rng-seed", type=int, default=0)
    common(sigma, group=False)

    eps = vsub.add_parser("epsilon", help="sign character method agreement")
    common(eps, torus=True)

    pt = vsub.add_parser("phi-theta", help="killed-root set certification")
    common(pt, torus=True)

    cs = vsub.add_parser("centralizer-sigma", help="sign transfer to the centralizer")
    cs.add_argument("--data", action="append", default=[], help="datum name or 'all'")
    common(cs, group=False)

    # theorem and table runs use the elliptic torus, so they take no --torus
    for p, fmt in (
        (vsub.add_parser("theorem", help="multiplicity identity grid"), "json"),
        (sub.add_parser("table", help="emit the multiplicity table"), "csv"),
    ):
        p.add_argument(
            "--exponent",
            help="restrict to one lambda exponent (k, or k1,k2 for the product group)",
        )
        common(p, fmt=fmt)
    return top


def _config_from(ns) -> RunConfig:
    command = ns.command if ns.command == "table" else f"verify {ns.suite}"
    exponent = None
    if getattr(ns, "exponent", None):
        try:
            exponent = tuple(int(x) for x in str(ns.exponent).split(","))
        except ValueError:
            raise ConfigError(f"bad --exponent value {ns.exponent!r}") from None
    config = RunConfig(
        command=command,
        group=getattr(ns, "group", None),
        qs=tuple(getattr(ns, "q", []) or []),
        data=tuple(getattr(ns, "data", []) or []),
        involutions=tuple(getattr(ns, "involution", []) or []),
        torus=getattr(ns, "torus", "both"),
        exponent=exponent,
        out=getattr(ns, "out", None),
        fmt=getattr(ns, "format", "json"),
        twists=getattr(ns, "twists", 0),
        rng_seed=getattr(ns, "rng_seed", 0),
    )
    for flag, values in (
        ("--q", config.qs),
        ("--involution", config.involutions),
        ("--data", config.data),
    ):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{flag} {value} is given more than once")
    if config.group:
        for seed in config.involutions:
            if seed not in NAMED_SEEDS[config.group]:
                raise ConfigError(
                    f"seed {seed!r} is not a named involution for {config.group}"
                )
    if config.twists < 0:
        raise ConfigError(f"--twists must be nonnegative, got {config.twists}")
    if config.out:
        # refused before any cell runs: the report is written after the last.
        # The write renames a new file over the target, which would turn a
        # device or a FIFO into a regular file.
        if os.path.isdir(config.out):
            raise ConfigError(f"--out {config.out} is a directory")
        if os.path.exists(config.out) and not os.path.isfile(config.out):
            raise ConfigError(f"--out {config.out} is not a regular file")
        directory = os.path.dirname(os.path.abspath(config.out))
        if not os.path.isdir(directory):
            raise ConfigError(f"--out {config.out}: no directory {directory}")
    return config


DISPATCH = {
    "verify sigma": cmd_verify_sigma,
    "verify epsilon": cmd_verify_epsilon,
    "verify phi-theta": cmd_verify_phi_theta,
    "verify centralizer-sigma": cmd_verify_centralizer_sigma,
    "verify theorem": cmd_verify_theorem,
    "table": cmd_verify_theorem,
}


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        config = _config_from(ns)
        return DISPATCH[config.command](config)
    except ConfigError as e:
        sys.stderr.write(f"configuration error: {e}\n")
        return 2
    except ResourceBoundError as e:
        sys.stderr.write(
            f"resource bound: {e}"
            + (f" (required {e.required})" if e.required else "")
            + "\n"
        )
        return 3
    except ConsistencyError as e:
        return _fail_exit(None, [{"message": str(e), "detail": _jsonable(e.detail)}])


if __name__ == "__main__":
    raise SystemExit(main())
