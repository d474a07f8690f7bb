"""Package-wide checks on the source tree."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_budget_knobs():
    # one work limit for every engine: no per-call budget parameter or field
    knobs = {"budget", "budget_bits", "guard_bits"}
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                found += [f"{name}:{node.name}({a.arg})" for a in args if a.arg in knobs]
            elif isinstance(node, ast.ClassDef):
                found += [
                    f"{name}:{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id in knobs
                ]
    assert not found, f"budget knobs in src: {found}"


def test_budget_exceeded_raised_only_by_the_helpers():
    # every size guard goes through errors.require_work; gowers._require_int64
    # is an exactness bound on int64 sums, not a budget
    allowed = {"require_work", "_require_int64"}
    found = []
    for name, tree in _trees():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in allowed:
                inside |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and id(node) not in inside:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "BudgetExceeded":
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"BudgetExceeded raised outside the helpers: {found}"


def _bench_module(name):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


def _bench_library_names(tree):
    """Every gowers_forms module or name a bench file imports, and every
    attribute chain it reads off an imported module, as (module, dotted name)."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gowers_forms"):
            for alias in node.names:
                if node.module == "gowers_forms":
                    modules[alias.asname or alias.name] = f"gowers_forms.{alias.name}"
                    names.add((f"gowers_forms.{alias.name}", ""))
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add((modules[node.id], ".".join(chain)))
    return names


def _resolves(module, dotted):
    try:
        value = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    for attr in dotted.split(".") if dotted else ():
        if not hasattr(value, attr):
            return False
        value = getattr(value, attr)
    return True


def test_bench_names_resolve():
    # the benchmark's timing shims, workloads and digests name library
    # functions and types; a simplification must keep every one of them,
    # such as gowers.PhaseFunction.from_poly in workloads.py
    spans = _bench_module("spans")
    missing = []
    for layer, functions in spans.SHIMS.items():
        module = importlib.import_module(f"gowers_forms.{layer}")
        for qualname in functions:
            owner, _, attr = qualname.rpartition(".")
            home = getattr(module, owner, None) if owner else module
            if home is None or attr not in vars(home):
                missing.append(f"spans.py: {layer}.{qualname}")
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        names = _bench_library_names(ast.parse(path.read_text()))
        found |= names
        missing += [f"{path.name}: {m}.{d}" for m, d in sorted(names) if not _resolves(m, d)]
    assert not missing, f"bench uses missing library names: {missing}"
    assert ("gowers_forms.gowers", "PhaseFunction.from_poly") in found
    assert ("gowers_forms.rankbias", "PrankCertificate") in found  # imported by gate.py


def test_bench_digest_encoding():
    gate = _bench_module("gate")
    assert gate.encode(TorusValue(3, 2)) == "3/2^2"
    q = NonClassicalPoly(2, 1, TorusValue(1, 1), (((0,), 0),))
    assert gate.encode(q) == "poly(2,1,1/2^1,(((0,), 0),))"


def test_hot_paths_do_not_import_numpy_ma():
    # numpy.ma costs milliseconds and about a megabyte on its first import;
    # np.unique and its relatives pull it in.  numpy before 2.0 imports it
    # with numpy itself, and then there is nothing to keep out
    code = (
        "import sys\n"
        "import numpy as np\n"
        "print('numpy.ma' in sys.modules)\n"
        "from gowers_forms import forms, gowers, nonclassical\n"
        "f = forms.random_strongly_symmetric(3, 3, np.random.default_rng(0))\n"
        "nonclassical.integrate(f)\n"
        "gowers.PhaseFunction.from_signs([1, -1, -1, 1])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    with_numpy, after_hot_paths = out.stdout.split()
    if with_numpy == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after_hot_paths == "False"
