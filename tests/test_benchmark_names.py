"""The package names the benchmark in perfbench/ reaches resolve.

perfbench drives stsg from outside through module attributes (`cli.evaluate`,
`sio.ranked_from_frame_json`, ...). A rename in the package would otherwise
surface only when the benchmark runs; here it fails the fast suite.
"""

import ast
import inspect
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def package_calls(fn):
    """(module, attribute, call node or None) of each `<stsg module>.<name>`
    that `fn` reads; the call node where the name is called."""
    tree = ast.parse(inspect.getsource(fn).lstrip())
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = fn.__globals__.get(node.value.id)
            if isinstance(owner, types.ModuleType) and owner.__name__.startswith("stsg"):
                found.append((owner, node.attr, calls.get(id(node))))
    return found


def test_paced_names_resolve(workloads):
    for owner, name in workloads.PACE:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


@pytest.mark.parametrize("name", ["serve_cell", "frames_from_predictions", "timed_train"])
def test_called_names_resolve_and_accept_their_arguments(workloads, name):
    found = package_calls(getattr(workloads, name))
    assert found
    for owner, attr, call in found:
        target = getattr(owner, attr, None)
        assert target is not None, f"{owner.__name__}.{attr}"
        if call is not None:
            # positional and keyword arguments as written bind to the signature
            inspect.signature(target).bind(*call.args, **{kw.arg: kw.value
                                                          for kw in call.keywords})
