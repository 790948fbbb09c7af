"""Source hygiene: every function and class in the package is used by it,
the package computes without floating-point character values, it holds
no assert statement, and importing its CLI stays cheap."""

import ast
import io
import os
import pathlib
import subprocess
import sys
import tokenize

import dlcusp

PACKAGE = pathlib.Path(dlcusp.__file__).parent


def _tokens():
    """(path, token) for every token of src/dlcusp/."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            yield path, tok


def test_every_definition_is_referenced_in_the_package():
    # a name counts as referenced when it is an identifier token of
    # src/dlcusp/ other than the one that defines it; strings (so __all__
    # entries and docstrings) and comments do not count
    defined = []  # (name, path, line number)
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, path, node.lineno))
    mentioned = set()
    previous = None
    for _, tok in _tokens():
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            mentioned.add(tok.string)
        previous = tok.string
    unused = [
        f"{path.name}:{lineno} {name}"
        for name, path, lineno in defined
        if name not in mentioned and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_no_floating_point_character_values():
    # character sums are exact in Z[zeta_n]: no complex type, no cmath, no
    # imaginary literal and no float literal with a negative exponent
    found = []
    for path, tok in _tokens():
        text = tok.string
        if (
            (tok.type == tokenize.NAME and text in ("cmath", "complex"))
            or (tok.type == tokenize.NUMBER and text[-1] in "jJ")
            or (tok.type == tokenize.NUMBER and "e-" in text.lower())
        ):
            found.append(f"{path.name}:{tok.start[0]} {text}")
    assert found == []


def test_no_assert_statements():
    # internal checks raise typed errors, which python -O does not strip
    found = [
        f"{path.name}:{tok.start[0]}"
        for path, tok in _tokens()
        if tok.type == tokenize.NAME and tok.string == "assert"
    ]
    assert found == []


def test_cli_import_loads_no_dataclasses_or_fractions():
    # every invocation pays for these imports (dataclasses pulls in inspect,
    # fractions pulls in decimal); a fresh interpreter shows what is loaded
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, dlcusp.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "dlcusp.cli" in out
    assert [m for m in ("dataclasses", "inspect", "fractions") if m in out] == []
