"""Source hygiene: every function and class in the package is used by it."""

import ast
import pathlib
import re

import dlcusp

PACKAGE = pathlib.Path(dlcusp.__file__).parent


def test_every_definition_is_referenced_in_the_package():
    # a name counts as referenced when a line of src/dlcusp/ other than its
    # own definition line and its __all__ entry mentions it as a word
    lines = []  # (path, line number, text)
    defined = []  # (name, path, line number)
    skip = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        lines += [(path, i, line) for i, line in enumerate(text.splitlines(), 1)]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, path, node.lineno))
                skip.add((path, node.lineno))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skip.update((path, i) for i in range(node.lineno, node.end_lineno + 1))
    mentioned = set()
    for path, i, line in lines:
        if (path, i) not in skip:
            mentioned.update(re.findall(r"\w+", line))
    unused = [
        f"{path.name}:{lineno} {name}"
        for name, path, lineno in defined
        if name not in mentioned and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
