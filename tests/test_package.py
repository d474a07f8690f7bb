"""Package-wide checks on the source tree."""

import ast
import importlib
import sys
from pathlib import Path

import gowers_forms
from gowers_forms.nonclassical import NonClassicalPoly, TorusValue

PACKAGE = Path(gowers_forms.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_no_assert_statements():
    # result checks must raise typed errors: `python -O` strips asserts
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


def _bench_module(name):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


def test_bench_names_resolve():
    # the benchmark's timing shims and digests name library functions and
    # types; a simplification must keep every one of them
    spans = _bench_module("spans")
    missing = []
    for layer, functions in spans.SHIMS.items():
        module = importlib.import_module(f"gowers_forms.{layer}")
        for qualname in functions:
            owner, _, attr = qualname.rpartition(".")
            home = getattr(module, owner, None) if owner else module
            if home is None or attr not in vars(home):
                missing.append(f"{layer}.{qualname}")
    assert not missing, f"bench shims name missing functions: {missing}"


def test_bench_digest_encoding():
    gate = _bench_module("gate")
    assert gate.encode(TorusValue(3, 2)) == "3/2^2"
    q = NonClassicalPoly(2, 1, TorusValue(1, 1), (((0,), 0),))
    assert gate.encode(q) == "poly(2,1,1/2^1,(((0,), 0),))"
