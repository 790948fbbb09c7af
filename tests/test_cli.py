"""End-to-end runs of the command line interface through main(argv).

Covers every exit code, csv/json agreement, byte determinism, atomic
output, and the prime power q = 9."""

import json
import os
import re
import stat
import weakref
from collections import Counter

import pytest

from dlcusp import __version__, cli, groups, multiplicity, rootdata
from dlcusp.cli import CSV_COLUMNS, main
from dlcusp.errors import ConsistencyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_wall(text):
    return re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0', text)


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# -- exit 0 -------------------------------------------------------------------


def test_table_csv_gl2_q3(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "gl2", "--q", "3", "--format", "csv"
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 9  # 3 seeds x 3 general position exponents
    seeds = [r["involution_seed"] for r in rows]
    assert seeds == sorted(seeds)
    for r in rows:
        assert r["lhs"] == r["rhs"]
        expected = "1" if r["lambda_exponent"] == "2" else "0"
        assert r["lhs"] == expected
        assert r["m_values"] == ("1" if expected == "1" else "")
        assert float(r["wall_ms"]) >= 0


def test_theorem_exponent_filter(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "theorem", "--group", "gl2", "--q", "3",
        "--exponent", "2", "--format", "csv",
    )
    assert code == 0
    rows = csv_rows(out)
    assert [r["lambda_exponent"] for r in rows] == ["2", "2", "2"]
    assert all(r["lhs"] == "1" for r in rows)
    # 3 is the Frobenius partner of the representative 1: no cell has it
    code, _, err = run_cli(
        capsys, "verify", "theorem", "--group", "gl2", "--q", "3", "--exponent", "3"
    )
    assert code == 2
    assert "representatives are k in [1, 2, 5]" in err


def test_prime_power_q9(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "epsilon", "--group", "gl2", "--q", "9", "--torus", "both"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["results"]
    code, out, _ = run_cli(
        capsys,
        "verify", "theorem", "--group", "gl2", "--q", "9",
        "--exponent", "8", "--format", "csv",
    )
    assert code == 0
    rows = csv_rows(out)
    assert [r["involution_seed"] for r in rows] == [
        "antidiag", "diag", "transpose-inverse"
    ]
    assert all(r["lhs"] == r["rhs"] == "1" for r in rows)


def test_verify_sigma_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "sigma")
    assert code == 0
    report = json.loads(out)
    assert report["version"] == __version__
    assert report["failures"] == []
    by_name = {r["datum"]: r for r in report["results"]}
    assert len(by_name) == 8
    assert by_name["gl2_split"]["fixed_rank"] == 2
    assert by_name["gl2_elliptic"]["sigma_product"] == -1
    assert by_name["sl2_anisotropic"]["sigma_group"] == -1
    assert by_name["gl2xgl2_twisted4"]["sigma_product"] == -1


def test_verify_sigma_with_twists(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sigma", "--data", "gl2_split", "--twists", "5"
    )
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_sigma_certifies_each_distinct_twist_once(capsys, monkeypatch):
    calls = []

    def counting(datum):
        calls.append((datum.name, datum.tau))
        return rootdata.sigma_product(datum)

    monkeypatch.setattr(cli, "sigma_product", counting)
    code, out, _ = run_cli(capsys, "verify", "sigma", "--twists", "300", "--rng-seed", "11")
    assert code == 0
    assert json.loads(out)["failures"] == []
    names = rootdata.datum_names()
    assert sorted(n for n, _ in calls if not n.endswith(":retwisted")) == names
    for name in names:
        datum = rootdata.load_datum(name)
        drawn = {t.tau for t in rootdata.random_twists(datum, 300, seed=11)}
        certified = [tau for n, tau in calls if n == f"{name}:retwisted"]
        assert sorted(certified) == sorted(drawn)
        assert len(certified) <= {1: 2, 2: 4, 4: 32}[datum.rank]


def test_rank_without_twist_pool(tmp_path, capsys):
    # rank 3 has no pool: its datum is certified, and only a twist request is refused
    path = tmp_path / "a1_rank3.json"
    path.write_text(json.dumps({
        "rank": 3,
        "roots": [[1, 0, 0], [-1, 0, 0]],
        "coroots": [[2, 0, 0], [-2, 0, 0]],
        "positive": [0],
        "tau": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "order": 1,
    }))
    code, out, _ = run_cli(capsys, "verify", "sigma", "--data", str(path))
    assert code == 0
    assert json.loads(out)["results"][0]["sigma_product"] == 1
    code, _, err = run_cli(capsys, "verify", "sigma", "--data", str(path), "--twists", "1")
    assert code == 2
    assert "no matrix pool for rank 3" in err


def test_failing_twist_is_reported_at_every_draw(capsys, monkeypatch):
    bad = ((-1, 0), (0, -1))

    def failing(datum):
        if datum.tau == bad:
            raise ConsistencyError("sigma routes disagree", detail={"routes": [1, -1]})
        return rootdata.sigma_product(datum)

    monkeypatch.setattr(cli, "sigma_product", failing)
    code, out, _ = run_cli(
        capsys, "verify", "sigma", "--data", "gl2_split", "--twists", "20", "--rng-seed", "3"
    )
    assert code == 1
    twists = rootdata.random_twists(rootdata.load_datum("gl2_split"), 20, seed=3)
    drawn_at = [i for i, t in enumerate(twists) if t.tau == bad]
    assert 1 < len(drawn_at) < 20
    assert json.loads(out)["failures"] == [
        {
            "datum": "gl2_split",
            "twist": i,
            "tau": [[-1, 0], [0, -1]],
            "message": "sigma routes disagree",
            "detail": {"routes": [1, -1]},
        }
        for i in drawn_at
    ]


def test_verify_centralizer_sigma(capsys):
    code, out, _ = run_cli(capsys, "verify", "centralizer-sigma")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    for row in report["results"]:
        assert ("sign" in row) != ("skipped" in row)
    skipped = [r for r in report["results"] if "skipped" in r]
    assert skipped  # the identity keep always fixes a root


def test_verify_phi_theta_q3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "phi-theta", "--group", "gl2", "--q", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    killed = {
        (r["torus"], r["seed"], json.dumps(r["witness"])): r["killed_roots"]
        for r in report["results"]
    }
    assert len(killed) == len(report["results"])
    sizes = {len(v) for v in killed.values()}
    assert sizes <= {0, 2}  # either nothing or a full opposite pair dies


def test_verify_epsilon_elliptic_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "epsilon", "--group", "gl2", "--q", "3", "--torus", "elliptic",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert all(r["signs"] == [1] for r in report["results"])


# -- exit 1: a failed check, with the product route forced wrong -------------


def force_product_route_to_plus_one(monkeypatch):
    """Break the orbit-product route to epsilon so that the split
    transpose-inverse cell disagrees with the determinant route."""
    monkeypatch.setattr("dlcusp.multiplicity.epsilon_product", lambda *args: 1)


def test_verify_epsilon_red_cell(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "verify", "epsilon", "--group", "gl2", "--q", "3")
    assert code == 0  # both routes agree on every cell
    force_product_route_to_plus_one(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "epsilon", "--group", "gl2", "--q", "3")
    assert code == 1
    report = json.loads(out)  # a single document on stdout
    assert report["failures"]
    failure = report["failures"][0]
    assert failure["torus"] == "split"
    assert failure["seed"] == "transpose-inverse"
    assert failure["detail"]["det_sign"] == -1
    assert failure["detail"]["product_sign"] == 1


def test_failure_with_out_writes_both(tmp_path, capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "verify", "epsilon", "--group", "gl2", "--q", "3")
    assert code == 0
    force_product_route_to_plus_one(monkeypatch)
    target = tmp_path / "eps.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "epsilon", "--group", "gl2", "--q", "3", "--out", str(target),
    )
    assert code == 1
    on_disk = json.loads(target.read_text())
    assert on_disk["failures"]
    stdout_doc = json.loads(out)
    assert stdout_doc["failures"]  # counterexample echoed to stdout


def test_csv_failure_goes_to_stderr(capsys, monkeypatch):
    # a CSV report does not embed its failures: stdout stays one CSV
    # stream, and the counterexample document goes to stderr
    def forced(census, chi):
        raise ConsistencyError("forced failure")

    monkeypatch.setattr("dlcusp.multiplicity.lhs_multiplicity", forced)
    code, out, err = run_cli(
        capsys,
        "table", "--group", "gl2", "--q", "3", "--exponent", "2",
        "--involution", "diag", "--format", "csv",
    )
    assert code == 1
    assert csv_rows(out) == []
    failures = json.loads(err)["failures"]
    assert [
        (f["group"], f["q"], f["involution_seed"], f["lambda_exponent"], f["message"])
        for f in failures
    ] == [("gl2", 3, "diag", "2", "forced failure")]


def fail_first_call(monkeypatch, name, detail):
    """Make cli.<name> raise a ConsistencyError on its first call only."""
    original = getattr(cli, name)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ConsistencyError(f"{name} forced to fail", detail=detail)
        return original(*args)

    monkeypatch.setattr(cli, name, failing)


def test_phi_theta_failure_entry(capsys, monkeypatch):
    argv = ("verify", "phi-theta", "--group", "gl2", "--q", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    passing = json.loads(out)["results"]
    fail_first_call(monkeypatch, "phi_theta_certified", {"roots": ((1, -1),)})
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    first = {k: v for k, v in passing[0].items() if k != "killed_roots"}
    assert report["failures"] == [
        dict(
            first,
            message="phi_theta_certified forced to fail",
            detail={"roots": [[1, -1]]},
        )
    ]
    assert report["results"] == passing[1:]


def test_centralizer_sigma_failure_entry(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "centralizer-sigma")
    assert code == 0
    passing = json.loads(out)["results"]
    fail_first_call(monkeypatch, "verify_centralizer_sigma", {"signs": (1, -1)})
    code, out, _ = run_cli(capsys, "verify", "centralizer-sigma")
    assert code == 1
    report = json.loads(out)
    failed = next(i for i, row in enumerate(passing) if "sign" in row)
    assert report["failures"] == [
        {
            "datum": passing[failed]["datum"],
            "involution": passing[failed]["involution"],
            "message": "verify_centralizer_sigma forced to fail",
            "detail": {"signs": [1, -1]},
        }
    ]
    assert report["results"] == passing[:failed] + passing[failed + 1 :]


def test_sigma_datum_failure_entry(capsys, monkeypatch):
    argv = ("verify", "sigma", "--data", "gl2_split", "--data", "gl2_elliptic")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    passing = json.loads(out)["results"]
    fail_first_call(monkeypatch, "sigma_product", {"routes": (1, -1)})
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["failures"] == [
        {
            "datum": "gl2_split",
            "message": "sigma_product forced to fail",
            "detail": {"routes": [1, -1]},
        }
    ]
    assert report["results"] == passing[1:]


def test_theorem_report_ignores_the_order_of_given_values(capsys, monkeypatch):
    # rows and failures come in report order: q, then seed, then exponent
    monkeypatch.setattr("dlcusp.multiplicity.lhs_multiplicity", lambda census, chis: 0)

    def report(*values):
        code, out, _ = run_cli(capsys, "verify", "theorem", "--group", "gl2", *values)
        assert code == 1
        doc = json.loads(mask_wall(out))
        return doc["results"], doc["failures"]

    results, failures = report(
        "--q", "5", "3", "--involution", "diag", "--involution", "antidiag"
    )
    assert failures
    assert (results, failures) == report(
        "--q", "3", "5", "--involution", "antidiag", "--involution", "diag"
    )


@pytest.mark.parametrize(
    "command,certificate", (("epsilon", "epsilon_character"), ("phi-theta", "phi_theta_certified"))
)
def test_stable_orbit_report_ignores_the_order_of_given_values(
    capsys, monkeypatch, command, certificate
):
    # rows and failures come in report order: q, then torus, then seed in
    # its named order; every cell at q = 5 fails
    original = getattr(cli, certificate)

    def failing_at_q5(theta, torus):
        if theta.group.q == 5:
            raise ConsistencyError("injected", detail=theta.witness)
        return original(theta, torus)

    monkeypatch.setattr(cli, certificate, failing_at_q5)

    def report(*values):
        argv = ("verify", command, "--group", "gl2", "--torus", "both", *values)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        doc = json.loads(out)
        return doc["results"], doc["failures"]

    results, failures = report(
        "--q", "5", "3", "--involution", "antidiag", "--involution", "diag"
    )
    order = [("split", "elliptic").index(r["torus"]) for r in results]
    assert results and failures and order == sorted(order)
    assert [r["seed"] for r in results if r["torus"] == "split"][0] == "diag"
    assert (results, failures) == report(
        "--q", "3", "5", "--involution", "diag", "--involution", "antidiag"
    )


def test_theorem_violation_detail_is_the_row_sides_and_orbits(capsys, monkeypatch):
    # the detail of a violation holds the same orbits as the passing row,
    # and nothing timed
    argv = ("verify", "theorem", "--group", "gl2", "--q", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    cell = lambda r: (r["involution_seed"], r["lambda_exponent"])
    rows = {cell(r): r for r in json.loads(out)["results"] if r["rhs"]}
    assert rows
    monkeypatch.setattr("dlcusp.multiplicity.lhs_multiplicity", lambda census, chis: 0)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    failures = json.loads(out)["failures"]
    assert len(failures) == len(rows)
    for failure in failures:
        row = rows[cell(failure)]
        assert failure["detail"] == {"lhs": 0, "rhs": row["rhs"], "orbits": row["orbits"]}


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "theorem", "--group", "gl2", "--q", "3", "5"),
        ("table", "--group", "gl2_x_gl2", "--q", "3"),
    ),
)
def test_theorem_failures_replay(capsys, monkeypatch, argv):
    # with lhs forced to 0, every cell with a nonzero orbit sum raises a
    # TheoremViolation, and its replay argv reruns that cell alone
    monkeypatch.setattr("dlcusp.multiplicity.lhs_multiplicity", lambda census, chis: 0)

    def failures_of(run):
        code, out, err = run_cli(capsys, *run)
        assert code == 1
        doc = json.loads(err if run[0] == "table" else out)  # csv: on stderr
        return doc["failures"]

    failures = failures_of(argv)
    assert failures
    command = list(argv[: argv.index("--group")])
    for failure in failures:
        assert failure["message"].startswith("multiplicity 0 differs from orbit sum")
        replay = failure["replay"]
        assert replay == [
            *command,
            "--group", failure["group"],
            "--q", str(failure["q"]),
            "--exponent", failure["lambda_exponent"].replace("|", ","),
            "--involution", failure["involution_seed"],
        ]
        assert failures_of(replay) == [failure]


# -- exit 2: configuration errors --------------------------------------------


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "epsilon", "--group", "gl2", "--q", "4"),
        ("verify", "epsilon", "--group", "gl2", "--q", "3", "--involution", "bogus"),
        ("verify", "theorem", "--group", "gl2", "--q", "3", "--exponent", "3"),
        ("verify", "theorem", "--group", "gl2", "--q", "3", "--exponent", "x"),
        ("verify", "theorem", "--q", "3"),
        ("verify", "sigma", "--data", "no_such_datum"),
        ("verify", "theorem", "--group", "gl2_x_gl2", "--q", "5", "--exponent", "3,19"),
        ("verify", "epsilon", "--group", "gl2_x_gl2", "--q", "3", "--torus", "split"),
        ("verify", "phi-theta", "--group", "gl2_x_gl2", "--q", "3", "--torus", "split"),
        ("verify", "sigma", "--twists", "-5"),
        ("verify", "sigma", "--data", "/nonexistent.json"),
    ),
)
def test_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "configuration error" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "epsilon", "--group", "gl2", "--q", "3", "--format", "csv"),
        ("verify", "theorem", "--group", "gl2", "--q", "3", "--torus", "split"),
        ("table", "--group", "gl2", "--q", "3", "--torus", "split"),
        ("verify", "theorem", "--group", "gl2", "--q", "3", "--torus", "elliptic"),
        ("verify", "sigma", "--format", "json"),
        ("verify", "phi-theta", "--group", "gl2", "--q", "3", "--format", "json"),
        ("verify", "centralizer-sigma", "--format", "json"),
    ),
)
def test_flags_a_run_cannot_use_are_unknown(capsys, argv):
    # theorem and table runs use the elliptic torus, and only they write csv
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("directory", (False, True))
def test_unusable_out_is_a_config_error(tmp_path, capsys, directory):
    # refused before any cell runs, with nothing written
    target = tmp_path / "r.json" if directory else tmp_path / "missing" / "r.json"
    if directory:
        target.mkdir()
    code, out, err = run_cli(
        capsys, "verify", "theorem", "--group", "gl2", "--q", "3", "--out", str(target)
    )
    assert code == 2
    assert "configuration error" in err
    assert out == ""
    assert list(tmp_path.rglob("*")) == ([target] if directory else [])


def test_out_that_is_not_a_regular_file_is_refused(tmp_path, capsys):
    # the report is renamed over its target, which would replace a FIFO or a
    # device with a regular file; the FIFO is only ever stat-ed, never opened
    fifo = tmp_path / "r.json"
    os.mkfifo(fifo)
    code, out, err = run_cli(
        capsys, "verify", "theorem", "--group", "gl2", "--q", "3", "--out", str(fifo)
    )
    assert code == 2
    assert "not a regular file" in err
    assert out == ""
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize(
    "argv, repeated",
    (
        (("verify", "theorem", "--group", "gl2", "--q", "3", "3"), "--q 3"),
        (
            (
                "verify", "epsilon", "--group", "gl2", "--q", "3",
                "--involution", "diag", "--involution", "diag",
            ),
            "--involution diag",
        ),
        (("verify", "sigma", "--data", "gl2_split", "--data", "gl2_split"), "--data gl2_split"),
        (("verify", "theorem", "--group", "gl2", "--q", "3", "--q", "3"), "--q 3"),
        (
            (
                "verify", "theorem", "--group", "gl2", "--q", "3",
                "--exponent", "1", "--exponent", "2",
            ),
            "--exponent",
        ),
    ),
)
def test_repeated_value_is_a_config_error(capsys, argv, repeated):
    # a repeated value would run its cells twice and report each row twice,
    # and a second --exponent flag would silently replace the first
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"configuration error: {repeated} is given more than once" in err
    assert out == ""


def test_repeated_q_flag_adds_its_values(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--group", "gl2", "--q", "3", "--q", "5", "--format", "csv"
    )
    assert code == 0
    assert [r["q"] for r in csv_rows(out)] == ["3"] * 9 + ["5"] * 30


@pytest.mark.parametrize("command", ("sigma", "centralizer-sigma"))
@pytest.mark.parametrize(
    "text",
    (
        '{"rank": 2, "roots": [[1, -1], [-1, 1]',  # malformed JSON
        '{"rank": 2, "coroots": [], "positive": [], "tau": [], "order": 1}',  # no roots
    ),
)
def test_bad_datum_file_is_a_config_error(tmp_path, capsys, command, text):
    path = tmp_path / "datum.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", command, "--data", str(path))
    assert code == 2
    assert "configuration error" in err and "datum" in err
    assert out == ""


# -- exit 3: resource bounds --------------------------------------------------


def test_resource_bound(monkeypatch, capsys):
    monkeypatch.setattr(groups, "ORBIT_CAP", 4)
    code, out, err = run_cli(
        capsys,
        "verify", "epsilon", "--group", "gl2", "--q", "3", "--torus", "elliptic",
    )
    assert code == 3
    assert "required 5" in err


def test_twist_count_above_the_cap_is_refused_before_any_draw(monkeypatch, capsys):
    def no_draw(seed, n):
        raise AssertionError("a twist was drawn")

    monkeypatch.setattr(rootdata, "_pool_indices", no_draw)
    count = rootdata.TWIST_CAP + 1
    code, out, err = run_cli(capsys, "verify", "sigma", "--twists", str(count))
    assert code == 3
    assert out == ""
    assert f"required {count}" in err


def test_twist_cap_admits_its_own_count(monkeypatch, capsys):
    monkeypatch.setattr(rootdata, "TWIST_CAP", 3)
    argv = ("verify", "sigma", "--data", "gl2_split")
    assert run_cli(capsys, *argv, "--twists", "3")[0] == 0
    code, _, err = run_cli(capsys, *argv, "--twists", "4")
    assert code == 3
    assert "required 4" in err


def test_oversized_q_is_a_resource_refusal(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "gl2", "--q", "17")
    assert code == 3
    assert "78336" in err


@pytest.mark.parametrize("command", ("epsilon", "phi-theta"))
@pytest.mark.parametrize("qs,code", ((("3", "17"), 2), (("17", "3"), 3)))
def test_refusals_follow_the_given_q_order(capsys, command, qs, code):
    # each group and its tori are built in the given --q order, before any
    # cell runs: the first value's refusal is the one reported
    argv = ("verify", command, "--group", "gl2_x_gl2", "--q", *qs, "--torus", "split")
    assert run_cli(capsys, *argv)[0] == code


# -- one workspace per (kind, q) ---------------------------------------------


@pytest.mark.parametrize(
    "group,qs,tori,certified",
    # the parent commit built one torus per cell (39 and 9) and certified
    # one chi per cell and factor (39 and 18)
    (("gl2", ("3", "5"), 2, 3 + 10), ("gl2_x_gl2", ("3",), 1, 6)),
)
def test_a_grid_builds_each_torus_once_and_certifies_each_exponent_once(
    capsys, monkeypatch, group, qs, tori, certified
):
    built = []
    calls = Counter()
    init, certify = groups.TorusEmbedding.__init__, multiplicity.cuspidal_character

    def counted_init(self, group, kind):
        built.append((group.q, kind))
        init(self, group, kind)

    def counted_certify(factor, k):
        calls[factor.q, k] += 1
        return certify(factor, k)

    monkeypatch.setattr(groups.TorusEmbedding, "__init__", counted_init)
    monkeypatch.setattr(multiplicity, "cuspidal_character", counted_certify)
    code, _, _ = run_cli(capsys, "verify", "theorem", "--group", group, "--q", *qs)
    assert code == 0
    assert built == [(int(q), "elliptic") for q in qs] and len(built) == tori
    # one certification per distinct (q, factor exponent)
    assert sum(calls.values()) == len(calls) == certified


@pytest.mark.parametrize(
    "command,hook",
    (("theorem", "verify_theorem"), ("epsilon", "_epsilon_fields")),
)
def test_a_workspace_is_released_after_its_last_cell(capsys, monkeypatch, command, hook):
    spaces = []
    alive = []

    class Tracked(multiplicity.Workspace):
        def __init__(self, group):
            super().__init__(group)
            spaces.append(weakref.ref(self))

    original = getattr(cli, hook)

    def cell(space_or_theta, *args):
        alive.append(tuple(s().group.q for s in spaces if s() is not None))
        return original(space_or_theta, *args)

    monkeypatch.setattr(cli, "Workspace", Tracked)
    monkeypatch.setattr(cli, hook, cell)
    argv = ("verify", command, "--group", "gl2", "--q", "5", "3")
    assert run_cli(capsys, *argv)[0] == 0
    # both are built, in the given order, before any cell; the q = 3
    # workspace is gone when the first q = 5 cell runs
    n3 = alive.count((5, 3))
    assert n3 > 0 and alive == [(5, 3)] * n3 + [(5,)] * (len(alive) - n3)
    assert len(alive) > n3


# -- output contracts ---------------------------------------------------------


def test_csv_json_rows_agree(capsys):
    argv = ("table", "--group", "gl2_x_gl2", "--q", "3")
    code, csv_text, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    code2, json_text, _ = run_cli(capsys, *argv, "--format", "json")
    assert code2 == 0
    from_csv = csv_rows(csv_text)
    from_json = json.loads(json_text)["results"]
    assert len(from_csv) == len(from_json) == 9
    for c_row, j_row in zip(from_csv, from_json):
        for col in CSV_COLUMNS:
            if col == "wall_ms":
                continue
            assert c_row[col] == str(j_row[col])


def test_byte_determinism(capsys):
    argv = ("verify", "theorem", "--group", "gl2", "--q", "3", "--involution", "diag")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert mask_wall(first) == mask_wall(second)
    assert json.loads(first)["config"]["involutions"] == ["diag"]


def test_atomic_out_leaves_no_temp_files(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "table", "--group", "gl2", "--q", "3", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".dlcusp-")]
    assert leftovers == []


def test_out_mode_follows_the_umask(tmp_path, capsys):
    target = tmp_path / "report.json"
    old = os.umask(0o022)
    try:
        code, _, _ = run_cli(
            capsys, "table", "--group", "gl2", "--q", "3", "--out", str(target)
        )
    finally:
        os.umask(old)
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o644


def test_out_csv(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys,
        "table", "--group", "gl2", "--q", "3", "5", "--out", str(target),
    )
    assert code == 0 and out == ""
    rows = csv_rows(target.read_text())
    assert len(rows) == 9 + 30  # q=3 and q=5 grids
    assert [r["q"] for r in rows] == ["3"] * 9 + ["5"] * 30
