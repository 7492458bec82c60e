"""The names the benchmark harness hooks into, and every module's exports,
still resolve.  ``perfbench/spans.py`` is read as text, never imported."""

import ast
import importlib
import inspect
import os
import pkgutil

import neckflow
from neckflow import coeffs as ca

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")


def _spans():
    with open(SPANS_PY) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no SPANS table")


def test_every_benchmark_span_resolves():
    spans = _spans()
    assert spans
    for _layer, path, attr, _outermost in spans:
        mod_name, _, cls = path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{path}.{attr}"


def test_counting_hooks_find_their_arguments():
    # the harness counts panel tables by wrapping _PanelTable.__init__ as
    # (table, node, tol) and nodes by reading the intern counter
    params = list(inspect.signature(ca._PanelTable.__init__).parameters)
    assert params == ["self", "node", "tol"]
    assert isinstance(ca._NEXT_ID[0], int)


def test_every_export_resolves():
    mods = [neckflow] + [importlib.import_module(f"neckflow.{m.name}")
                         for m in pkgutil.iter_modules(neckflow.__path__)]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"
