"""Exactness gate: canonical encoding of exact outputs, digests, float tolerances.

Every pipeline instance returns an :class:`Outputs`.  Its exact part (Fractions,
Dyadics, monomials, certificates, decisions, coefficient maps) is encoded as
canonical text and hashed; its float part is never hashed but compared within
:func:`tolerance` to an expected value, either an exact value the benchmark
computes independently or the committed reference of the default seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Outputs:
    """Exact outputs as (label, canonical text); floats as (label, value, err)."""

    exact: list = field(default_factory=list)
    floats: list = field(default_factory=list)

    def put(self, label: str, value) -> None:
        self.exact.append((label, encode(value)))

    def put_float(self, label: str, value: float, err: float) -> None:
        self.floats.append((label, float(value), float(err)))

    def digest(self) -> str:
        text = "\n".join(f"{label}={value}" for label, value in self.exact)
        return hashlib.sha256(text.encode()).hexdigest()


def encode(value) -> str:
    """Canonical text of an exact library value.

    Certificates are encoded with their terms sorted, so the digest does not
    depend on the order in which a rewrite emits equal terms.
    """
    from gowers_forms.dyadic import Dyadic
    from gowers_forms.forms import MultilinearForm
    from gowers_forms.nonclassical import NonClassicalPoly, TorusValue
    from gowers_forms.rankbias import AnalyticRank, Factor, PrankCertificate, RankDecision

    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (Dyadic, TorusValue)):
        return f"{value.num}/2^{value.log2_den}"
    if isinstance(value, MultilinearForm):
        return f"form({value.dim},{value.arity},{np.packbits(value.coeffs).tobytes().hex()})"
    if isinstance(value, NonClassicalPoly):
        return f"poly({value.n},{value.degree_bound},{encode(value.constant)},{value.coeffs!r})"
    if isinstance(value, AnalyticRank):
        return f"arank({encode(value.lower)},{encode(value.upper)},{encode(value.exact)})"
    if isinstance(value, RankDecision):
        return (
            f"decision({value.is_low!r},{value.method},{value.bound},"
            f"{encode(value.bias_value)},{encode(value.certificate)})"
        )
    if isinstance(value, Factor):
        p = value.provenance
        return f"factor({value.vars},{encode(value.form)},{p.kind},{p.source_id},{p.assignment!r})"
    if isinstance(value, PrankCertificate):
        terms = sorted("*".join(encode(f) for f in term) for term in value.terms)
        return f"cert({encode(value.target)};{' + '.join(terms)})"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{encode(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(encode(v) for v in value) + "]"
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def tolerance(expected: float, err: float) -> float:
    """Allowed float deviation: the library's reported error bound plus a few
    float64 ulps of the compared magnitude."""
    return err + 64 * EPS * max(1.0, abs(expected))


def float_close(value: float, expected: float, err: float) -> bool:
    return abs(value - expected) <= tolerance(expected, err)


def run_digest(instance_digests) -> str:
    return hashlib.sha256("\n".join(instance_digests).encode()).hexdigest()


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]


def reference_record(outputs: list[Outputs]) -> dict:
    """The committed form of the gated instances' outputs."""
    return {
        "digests": [o.digest() for o in outputs],
        "floats": [[[label, value, err] for label, value, err in o.floats] for o in outputs],
    }


def compare_to_reference(outputs: Outputs, index: int, ref: dict) -> list[str]:
    """Mismatches of one gated instance against the committed reference."""
    problems = []
    if outputs.digest() != ref["digests"][index]:
        problems.append("exact-output digest differs from the reference")
    ref_floats = ref["floats"][index]
    if len(ref_floats) != len(outputs.floats):
        problems.append("float output count differs from the reference")
        return problems
    for (label, value, err), (ref_label, ref_value, ref_err) in zip(outputs.floats, ref_floats):
        if label != ref_label or not float_close(value, ref_value, max(err, ref_err)):
            problems.append(f"{label}={value!r} outside tolerance of reference {ref_value!r}")
    return problems


class RunGate:
    """Verdicts on every executed instance of one run.

    The first execution of a pool instance is checked independently by the
    workload and, at the default seed, against the reference; a repeated
    execution must reproduce the first one's outputs exactly.
    """

    def __init__(self, workload, pool, reference: dict | None):
        self.workload = workload
        self.pool = pool
        self.reference = reference
        self.first: dict[int, Outputs] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, index: int, raw) -> None:
        """Judge one execution; ``raw`` is None when the pipeline raised."""
        self.attempted += 1
        if raw is None:
            found = ["raised"]
        else:
            outputs = self.workload.record(self.pool[index], raw)
            first = self.first.setdefault(index, outputs)
            if first is not outputs:
                same = first.digest() == outputs.digest() and first.floats == outputs.floats
                found = [] if same else ["outputs differ between two executions"]
            else:
                found = self.workload.check(self.pool[index], raw)
                if self.reference is not None and index < len(self.reference["digests"]):
                    found += compare_to_reference(outputs, index, self.reference)
        if found:
            self.failed += 1
            self.problems += [f"instance {index}: {p}" for p in found]

    def digest(self, count: int) -> str:
        """Digest of the first ``count`` pool instances' exact outputs."""
        return run_digest([self.first[i].digest() if i in self.first else "missing" for i in range(count)])
