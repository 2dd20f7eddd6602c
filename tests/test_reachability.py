"""Every module-level function and class of the package has a caller outside
the test suite.

A definition `module.name` counts as reached when the package, the benchmark
harness in perfbench/ or the scripts in scripts/ read it through its own
module: imported from that module, read as an attribute of that module
(`ad.relu` reaches `autodiff.relu`; `np.log` reaches no `log` of the
package), or, inside the module itself, named bare. In perfbench a table entry whose first two items are
the module (its dotted name, or a name bound to it) and the name counts too:
that is how the tracer and the clock name what they wrap
(`("stsg.metrics", "evaluate", ...)`, `(metrics, "mean_recall")`). Code that
only tests reach belongs in tests/, next to the tests that use it.
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


def package_module(dotted: str | None, level: int = 0) -> str | None:
    """The package module a dotted import names ("" for the package itself),
    or None outside the package."""
    if level:
        return dotted or ""
    if dotted == "stsg":
        return ""
    if dotted and dotted.startswith("stsg."):
        return dotted.removeprefix("stsg.")
    return None


def module_aliases(tree) -> dict[str, str]:
    """Local names bound to package modules: `from . import autodiff as ad`,
    `from stsg import io as sio`, `m = importlib.import_module("stsg.metrics")`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_module(node.module, node.level) == "":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr == "import_module" and node.value.args
              and isinstance(node.value.args[0], ast.Constant)):
            module = package_module(node.value.args[0].value)
            aliases.update((t.id, module) for t in node.targets
                           if module and isinstance(t, ast.Name))
    return aliases


def references(tree, own_module: str | None = None,
               hook_tables: bool = False) -> set[tuple[str, str]]:
    """The (module, name) pairs of package definitions that tree reads."""
    aliases = module_aliases(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = package_module(node.module, node.level)
            if module:
                found.update((module, a.name) for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
        elif own_module and isinstance(node, ast.Name):
            found.add((own_module, node.id))
        elif hook_tables and isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, name = node.elts[:2]
            module = table_module(owner, aliases)
            if module and isinstance(name, ast.Constant) and isinstance(name.value, str):
                found.add((module, name.value.split(".")[0]))
    return found


def table_module(owner, aliases: dict[str, str]) -> str | None:
    """The package module a table entry's first item names, if any."""
    if isinstance(owner, ast.Name):
        return aliases.get(owner.id)
    if isinstance(owner, ast.Constant) and isinstance(owner.value, str):
        return package_module(owner.value)
    return None


def parsed(directory: Path):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def test_every_package_definition_is_reached_outside_the_tests():
    package = parsed(PACKAGE)
    reached = set()
    for path, tree in package.items():
        reached |= references(tree, own_module=path.stem)
    for tree in parsed(ROOT / "scripts").values():
        reached |= references(tree)
    for tree in parsed(ROOT / "perfbench").values():
        reached |= references(tree, hook_tables=True)
    unreached = [f"{path.stem}.{name}" for path, tree in package.items()
                 for name in definitions(tree)
                 if (path.stem, name) not in reached and (path.stem, name) not in EXEMPT]
    assert not unreached, f"reached only from tests: {unreached}"


def test_an_attribute_reaches_only_its_own_module():
    tree = ast.parse("import numpy as np\nfrom stsg import autodiff as ad\n"
                     "np.log(1)\nad.softplus(x)\n")
    assert references(tree) == {("autodiff", "softplus")}
