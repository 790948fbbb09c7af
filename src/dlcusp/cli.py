"""Command-line verification harness.

Subcommands
    verify sigma              four-route sign identity over the datum library
    verify epsilon            det-vs-product agreement for torus sign characters
    verify phi-theta          three-way certification of the killed-root set
    verify centralizer-sigma  sign transfer to the centralizer datum
    verify theorem            the multiplicity identity over a (q, seed, lambda) grid
    table                     multiplicity table emission (csv or json)

Each subcommand lists its cells, and one runner runs them and writes the
report; verify sigma lists a failure cell at every draw of a failing
retwist.  The theorem, table, epsilon and phi-theta cells of one q share
one multiplicity.Workspace, which holds that q's tori and certified
characters until its last cell has run.  Cells come in report order
whatever order the values were given in: theorem and table cells by q,
then seed name, then exponents; epsilon and phi-theta cells by q, then
torus, then seed in its named order.

Exit codes: 0 all checks pass, 1 a verification failed (counterexample JSON
on stdout), 2 invalid configuration, 3 resource bound exceeded.  Reports are
written atomically (write-then-rename) and are byte-stable for a fixed
configuration and package version.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile
from typing import NamedTuple

from . import __version__
from .dlchar import general_position_exponents
from .errors import ConfigError, ConsistencyError, ResourceBoundError, TheoremViolation
from .groups import TORUS_DATA, MatrixGroup, phi_theta_certified
from .multiplicity import Workspace, census_for, epsilon_character, verify_theorem
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
    """The parsed options of a run, under the names its report echoes."""

    command: str
    group: str | None = None
    q: tuple = ()
    data: tuple = ()
    involutions: tuple = ()
    torus: str = "both"
    exponent: tuple | None = None
    format: str = "json"
    twists: int = 0
    rng_seed: int = 0
    out: str | None = None


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


def _report(config: RunConfig, results, failures) -> int:
    """Write the report of a run and return its exit code: 0, or 1 when
    some cell failed."""
    if config.format == "csv":
        # only theorem and table runs write csv, and their rows have every column
        lines = [CSV_COLUMNS, *([row[col] for col in CSV_COLUMNS] for row in results)]
        text = "".join(",".join(map(str, line)) + "\n" for line in lines)
    else:
        report = {
            "version": __version__,
            "config": {k: v for k, v in config._asdict().items() if k != "out"},
            "results": results,
            "failures": failures,
        }
        text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if config.out:
        _write_atomic(config.out, text)
    else:
        sys.stdout.write(text)
    return _fail_exit(config, failures) if failures else 0


def _fail_exit(config, failures) -> int:
    # without --out a JSON report, which embeds the failures, is already on
    # stdout; a CSV report there does not, and stdout stays one CSV stream
    text = json.dumps({"failures": _jsonable(failures)}, indent=2, sort_keys=True) + "\n"
    if config is None or config.out:
        sys.stdout.write(text)
    elif config.format == "csv":
        sys.stderr.write(text)
    return 1


def _run(config: RunConfig, cells) -> int:
    """Run (fields, certify, replay) cells in order and write the report.

    A passing cell's row is its fields plus what certify() returns.  A
    ConsistencyError makes the cell a failure entry: its fields, message,
    detail and, when given, the replay argv that reruns it alone.
    """
    results = []
    failures = []
    for fields, certify, replay in cells:
        try:
            results.append({**fields, **certify()})
        except ConsistencyError as e:
            failure = dict(fields, message=str(e), detail=_jsonable(e.detail))
            if replay:
                failure["replay"] = replay
            failures.append(failure)
    return _report(config, results, failures)


# ---------------------------------------------------------------------------
# subcommands


def _data_list(config: RunConfig):
    return datum_names() if not config.data or "all" in config.data else config.data


def _sigma_fields(datum) -> dict:
    sign = sigma_product(datum)
    rank, s_t = fq_rank_sigma(datum)
    return {
        "fixed_rank": rank,
        "sigma_torus": s_t,
        "sigma_group": sigma_group(datum),
        "sigma_product": sign,
    }


def _raise(error):
    raise error


def cmd_verify_sigma(config: RunConfig) -> int:
    def cells():
        for name in _data_list(config):
            datum = load_datum(name)
            yield {"datum": name}, functools.partial(_sigma_fields, datum), None
            if not config.twists:
                continue
            # equal draws share one datum: certify each distinct one once, and
            # walk the draws, only when one failed, for a failure cell at
            # every index where a failed retwist was drawn
            twists = random_twists(datum, config.twists, seed=config.rng_seed)
            failed = {}
            for twisted in dict.fromkeys(twists):
                try:
                    sigma_product(twisted)
                except ConsistencyError as e:
                    failed[twisted] = e
            for i, twisted in enumerate(twists if failed else ()):
                if twisted in failed:
                    fields = {"datum": name, "twist": i, "tau": twisted.tau}
                    yield fields, functools.partial(_raise, failed[twisted]), None

    return _run(config, cells())


def _stable_orbit_cells(config: RunConfig, certify):
    """One cell per stable torus orbit of each (q, torus, seed) of the run,
    in report order: q ascending, then the tori in TORUS_DATA order, then
    the seeds in NAMED_SEEDS order; certify(representative, torus) gives
    the fields its row adds.  Each group and its tori are built, or
    refused, in the order the --q values were given, before any cell runs,
    in one Workspace per q, which is released after that q's last cell."""
    # "both" means the wired tori; a torus named explicitly that is not
    # wired for the group is refused by TorusEmbedding
    wired = [torus for kind, torus in TORUS_DATA if kind == config.group]
    kinds = wired if config.torus == "both" else [config.torus]
    spaces = {}
    for q in config.q:
        space = spaces[q] = Workspace(MatrixGroup(config.group, q))
        for kind in kinds:
            space.torus(kind)
    named = NAMED_SEEDS[config.group]
    seeds = [s for s in named if s in (config.involutions or named)]
    for q in sorted(spaces):
        space = spaces.pop(q)
        for kind, seed in itertools.product(kinds, seeds):
            torus = space.torus(kind)
            for orbit in census_for(space.group, torus, seed).t_orbits:
                if orbit.stable:
                    theta = orbit.representative
                    fields = {
                        "group": config.group,
                        "q": q,
                        "torus": kind,
                        "seed": seed,
                        "witness": _jsonable(theta.witness),
                    }
                    yield fields, functools.partial(certify, theta, torus), None


def _epsilon_fields(theta, torus) -> dict:
    signs = epsilon_character(theta, torus)
    return {"domain_size": len(signs), "signs": sorted(set(signs.values()))}


def _phi_theta_fields(theta, torus) -> dict:
    return {"killed_roots": _jsonable(phi_theta_certified(theta, torus))}


def cmd_verify_epsilon(config: RunConfig) -> int:
    return _run(config, _stable_orbit_cells(config, _epsilon_fields))


def cmd_verify_phi_theta(config: RunConfig) -> int:
    return _run(config, _stable_orbit_cells(config, _phi_theta_fields))


def _centralizer_fields(datum, theta) -> dict:
    if any(theta.apply(a) == a for a in datum.roots):
        return {"skipped": "fixes a root"}
    return {"sign": verify_centralizer_sigma(datum, theta)}


def cmd_verify_centralizer_sigma(config: RunConfig) -> int:
    def cells():
        for name in _data_list(config):
            datum = load_datum(name)
            for theta in datum_involutions(datum).values():
                fields = {"datum": name, "involution": theta.name}
                yield fields, functools.partial(_centralizer_fields, datum, theta), None

    return _run(config, cells())


def _theorem_cells(config: RunConfig):
    """One cell per (q, seed, lambda exponents), in report order: q
    ascending, then seed name, then exponents.

    The first factor's exponent runs over the Frobenius pair
    representatives, every other factor's over their negatives.  Before
    any cell runs, each group is built and its grid checked in the order
    the --q values were given: an --exponent that names no cell at some q
    is refused, with the representatives it may name instead.  The cells
    of a q share one Workspace, so its torus is built once and each
    exponent's character certified once; it is released after that q's
    last cell.
    """
    grids = {}
    for q in config.q:
        group = MatrixGroup(config.group, q)
        reps = [k for k, _ in general_position_exponents(group.factor)]
        n = group.tower.ext.order
        choices = [reps] + [[-k % n for k in reps]] * (group.n_factors - 1)
        grid = sorted(itertools.product(*choices))
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
                    f"{group.kind} at q = {q}; the representatives are {allowed}"
                )
        grids[q] = Workspace(group), grid
    for q in sorted(grids):
        space, grid = grids.pop(q)
        group = space.group
        for seed in sorted(config.involutions or NAMED_SEEDS[group.kind]):
            for exps in grid:
                exponent = ",".join(map(str, exps))
                fields = {
                    "group": group.kind,
                    "q": q,
                    "involution_seed": seed,
                    "lambda_exponent": exponent.replace(",", "|"),
                }
                replay = [
                    *config.command.split(),
                    "--group", group.kind,
                    "--q", str(q),
                    "--exponent", exponent,
                    "--involution", seed,
                ]
                yield fields, functools.partial(_theorem_fields, space, seed, exps), replay


def _theorem_fields(space, seed, exps) -> dict:
    """What a theorem cell's row adds to its fields.  A TheoremViolation is
    raised again as a ConsistencyError whose detail is the two sides and
    the cell's orbits, without the timing, so the failure entry is
    byte-stable like a report."""
    try:
        res = verify_theorem(space, seed, exps)
    except TheoremViolation as e:
        res = e.detail
        detail = {"lhs": res.lhs, "rhs": res.rhs, "orbits": _orbit_rows(res)}
        raise ConsistencyError(str(e), detail=detail) from e
    return {
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
    return _run(config, _theorem_cells(config))


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
            p.add_argument("--q", type=int, nargs="+", action="extend", default=[])
            p.add_argument(
                "--involution",
                dest="involutions",
                metavar="INVOLUTION",
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
            action="append",
            help="restrict to one lambda exponent (k, or k1,k2 for the product group)",
        )
        common(p, fmt=fmt)
    return top


def _config_from(ns) -> RunConfig:
    options = dict(vars(ns))
    suite = options.pop("suite", None)
    if suite:
        options["command"] = f"verify {suite}"
    exponent = options.get("exponent")
    if exponent:
        if len(exponent) > 1:
            raise ConfigError("--exponent is given more than once")
        try:
            options["exponent"] = tuple(int(x) for x in exponent[0].split(","))
        except ValueError:
            raise ConfigError(f"bad --exponent value {exponent[0]!r}") from None
    config = RunConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in options.items()}
    )
    for flag, values in (
        ("--q", config.q),
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
    if "group" in options and not (config.group and config.q):
        raise ConfigError("this subcommand needs --group and --q")
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
