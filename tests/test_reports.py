"""Report bytes against committed golden reports.

Each golden file under tests/golden/ is the report of one command, written
with --out by an earlier version of the package.  A change that only makes
the verifier faster must leave these bytes alone; the wall_ms timings are
the one field masked before comparing.  To regenerate a golden file after an
intended change of output, run its command with --out pointing at the file.
"""

import pathlib
import re

import pytest

from dlcusp.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

REPORTS = {
    "theorem_gl2_q3_5.json": ("verify", "theorem", "--group", "gl2", "--q", "3", "5"),
    "theorem_gl2_x_gl2_q3.json": ("verify", "theorem", "--group", "gl2_x_gl2", "--q", "3"),
    "theorem_gl2_x_gl2_q5_e1_23.json": (
        "verify", "theorem", "--group", "gl2_x_gl2", "--q", "5", "--exponent", "1,23",
    ),
    "theorem_gl2_x_gl2_q7_e1_47.json": (
        "verify", "theorem", "--group", "gl2_x_gl2", "--q", "7", "--exponent", "1,47",
    ),
    "theorem_gl2_q11_e7.json": (
        "verify", "theorem", "--group", "gl2", "--q", "11", "--exponent", "7",
    ),
    "theorem_gl2_q13_e12.json": (
        "verify", "theorem", "--group", "gl2", "--q", "13", "--exponent", "12",
    ),
    "theorem_gl2_q9_e8.json": (
        "verify", "theorem", "--group", "gl2", "--q", "9", "--exponent", "8",
    ),
    "epsilon_gl2_q3.json": ("verify", "epsilon", "--group", "gl2", "--q", "3", "--torus", "both"),
    "epsilon_gl2_q9.json": ("verify", "epsilon", "--group", "gl2", "--q", "9", "--torus", "both"),
    "epsilon_gl2_x_gl2_q3.json": ("verify", "epsilon", "--group", "gl2_x_gl2", "--q", "3"),
    "epsilon_gl2_x_gl2_q5.json": ("verify", "epsilon", "--group", "gl2_x_gl2", "--q", "5"),
    "epsilon_gl2_x_gl2_q7.json": ("verify", "epsilon", "--group", "gl2_x_gl2", "--q", "7"),
    "phi_theta_gl2_q3.json": (
        "verify", "phi-theta", "--group", "gl2", "--q", "3", "--torus", "both",
    ),
    "phi_theta_gl2_q9.json": (
        "verify", "phi-theta", "--group", "gl2", "--q", "9", "--torus", "both",
    ),
    "phi_theta_gl2_x_gl2_q3.json": ("verify", "phi-theta", "--group", "gl2_x_gl2", "--q", "3"),
    "phi_theta_gl2_x_gl2_q5.json": ("verify", "phi-theta", "--group", "gl2_x_gl2", "--q", "5"),
    "table_gl2_q3.csv": ("table", "--group", "gl2", "--q", "3", "--format", "csv"),
    "sigma_twists_s11.json": ("verify", "sigma", "--twists", "300", "--rng-seed", "11"),
    "centralizer_sigma.json": ("verify", "centralizer-sigma"),
}


def mask_wall(text: str) -> str:
    """Zero the wall_ms fields: JSON keys, and the last csv column."""
    text = re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0', text)
    return re.sub(r"(?m)^(gl2[^\n]*,)[0-9.]+$", r"\g<1>0", text)


def test_mask_wall_masks_only_timings():
    assert mask_wall('{"lhs": 1, "wall_ms": 12.5}') == '{"lhs": 1, "wall_ms": 0}'
    assert mask_wall("group,q,wall_ms\ngl2,3,1,6.412\n") == "group,q,wall_ms\ngl2,3,1,0\n"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_match_golden(tmp_path, capsys, name):
    out = tmp_path / name
    assert main([*REPORTS[name], "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert mask_wall(out.read_text()) == mask_wall((GOLDEN / name).read_text())
