"""Every module-level function and class of the package has a caller outside
the test suite.

A name counts as reached when the package, the benchmark harness in
perfbench/ or the scripts in scripts/ mention it: as a bare name, as an
attribute, or (perfbench only) inside a string, which is how the tracer's
hook table names what it wraps. Code that only tests reach belongs in
tests/, next to the tests that use it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stsg"

# blas.threads is how the tests observe the BLAS thread count that
# blas.one_thread pins; the package itself only sets the count
EXEMPT = {("blas", "threads")}


def definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def mentions(tree, strings: bool) -> set[str]:
    """Names and attributes read in tree; with strings, also the dotted parts
    of every string constant."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def parsed(directory: Path):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def test_every_package_definition_is_reached_outside_the_tests():
    package = parsed(PACKAGE)
    reached = set()
    for tree in package.values():
        reached |= mentions(tree, strings=False)
    for tree in parsed(ROOT / "scripts").values():
        reached |= mentions(tree, strings=False)
    for tree in parsed(ROOT / "perfbench").values():
        reached |= mentions(tree, strings=True)
    unreached = [f"{path.stem}.{name}" for path, tree in package.items()
                 for name in definitions(tree)
                 if name not in reached and (path.stem, name) not in EXEMPT]
    assert not unreached, f"reached only from tests: {unreached}"
