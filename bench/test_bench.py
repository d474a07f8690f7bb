"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

One small instance per workload passes its checks and the committed reference;
perturbed outputs are caught by the digest, the float tolerance and the
independent checks; both runs report exactly the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_instance(name):
    w = workloads.WORKLOADS[name]
    inst = workloads.make_pool(w, run.DEFAULT_SEED, 1)[0]
    return w, inst, w.pipeline(inst)


@pytest.fixture(scope="module")
def planted():
    return first_instance("planted-dyadic")


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_first_instance_passes_checks_and_reference(name):
    w, inst, raw = first_instance(name)
    assert w.guard_problems(inst) == []
    assert w.check(inst, raw) == []
    assert gate.compare_to_reference(w.record(inst, raw), 0, gate.load_reference(name)) == []


def test_digest_catches_changed_exact_output(planted):
    w, inst, raw = planted
    q = raw["q"]
    fewer = dict(raw, q=dataclasses.replace(q, coeffs=q.coeffs[1:]))
    problems = gate.compare_to_reference(w.record(inst, fewer), 0, gate.load_reference(w.name))
    assert any("digest" in p for p in problems)


def test_tolerance_catches_drifted_float_but_not_one_ulp(planted):
    w, inst, raw = planted
    ref = gate.load_reference(w.name)
    outputs = w.record(inst, raw)
    label, value, err = outputs.floats[0]
    nudged = copy.deepcopy(outputs)
    nudged.floats[0] = (label, value + gate.EPS, err)
    assert gate.compare_to_reference(nudged, 0, ref) == []
    drifted = copy.deepcopy(outputs)
    drifted.floats[0] = (label, value + 1e-9, err)
    assert any("tolerance" in p for p in gate.compare_to_reference(drifted, 0, ref))


def test_independent_checks_catch_wrong_values(planted):
    w, inst, raw = planted
    wrong_norm = dict(raw, norm=dataclasses.replace(raw["norm"], power=raw["norm"].power + 1e-9))
    assert any("U^k power" in p for p in w.check(inst, wrong_norm))

    w, inst, raw = first_instance("rank-certify")
    idx, value = next(iter(raw["coefficients"].items()))
    wrong = dict(raw, coefficients={**raw["coefficients"], idx: 1 - value})
    assert any("extracted coefficient" in p for p in w.check(inst, wrong))
    assert w.record(inst, wrong).digest() != w.record(inst, raw).digest()


def test_guard_fit_rejects_oversized_instances():
    w = workloads.WORKLOADS["planted-dyadic"]
    inst = workloads.make_pool(w, run.DEFAULT_SEED, 1)[0]
    assert w.guard_problems(dataclasses.replace(inst, n=6))


def test_untraced_run_reports_end_to_end_metrics():
    result = run.run_workload("rank-certify", run.DEFAULT_SEED, 0.0, trace=False)
    assert (result["failed"], result["problems"]) == (0, [])
    assert result["attempted"] == run.GATE_CYCLES * len(workloads.CYCLE)
    assert set(result["metrics"]) == set(run.END_TO_END) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_workload("rank-certify", run.DEFAULT_SEED, 0.0, trace=True)
    assert (result["failed"], result["problems"]) == (0, [])
    metrics = result["metrics"]
    assert set(metrics) == set(spans.PER_LAYER) == {m["name"] for m in DECLARED["per_layer"]}
    # rank-certify bypasses the gowers and nonclassical layers entirely
    bypassed = [v for k, v in metrics.items() if k.startswith(("gowers.", "nonclassical."))]
    assert bypassed and not any(bypassed)
    assert metrics["rankbias.bias.calls"] > 0 and metrics["gf2.rref.self_s"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "rank-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
