"""The three lemma-check workloads: input generation, guard fit, pipelines, checks.

Each workload turns a seeded ``numpy`` generator into concrete instances (the
library sees only these inputs), runs one instance as a pipeline of public
``gowers_forms`` calls, records its outputs for the exactness gate, and checks
them against values the benchmark derives on its own.  Library functions are
always called through their module (``gowers.correlation``), never bound by
name here, so the timing shims of a traced run see every call.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gowers_forms import decomp, forms, gf2, gowers, nonclassical, rankbias

from gate import Outputs, float_close

# One cycle of the instance schedule: about one instance in five is large.
CYCLE = ("base", "base", "base", "base", "large")

# Guards of the library at the time this benchmark was written.  Instances are
# checked against them before timing, so a run fails only on a library fault.
INTEGRATE_VERIFY_BITS = 22  # (k+1)*n for integrate(verify=True)
ENUMERATION_BITS = 26  # (k+1)*n for correlation, gowers_norm, subspace_restrict
SPECTRUM_FORM_BITS = 16  # n^k for a full spectrum_search
POLICY_BIAS_OPS = 1 << 20  # RankProxyPolicy().budget for the bias fast path
SLICE_REWRITE_SPACE = 1 << 22  # 2^{n*|rest|} in slice_rewrite
FIND_POINT_SPACE = 1 << 20  # exhaustive find_point search space 2^{n*k}
BOX_POWER_OPS = 1 << 22  # pairs * 2^k in box_power
TRUTH_TABLE_BITS = 24  # n*k for forms.truth_table


def _nonzero_form(n: int, k: int, rng: np.random.Generator) -> forms.MultilinearForm:
    while True:
        f = forms.random_form(n, k, rng)
        if not f.is_zero():
            return f


def _nonzero_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.integers(0, 2, size=n, dtype=np.uint8)
        if v.any():
            return v


def _random_hyperplane(n: int, rng: np.random.Generator) -> gf2.Subspace:
    return gf2.Subspace.from_kernel_of([_nonzero_vector(n, rng)], n)


def _signs(n: int, rng: np.random.Generator) -> np.ndarray:
    return 1 - 2 * rng.integers(0, 2, size=1 << n, dtype=np.int64)


def _norm(f, k: int, method: str):
    # ROADMAP item 2 folds the norm routes into one engine and drops `method=`;
    # both calls then measure that engine.
    if "method" in inspect.signature(gowers.gowers_norm).parameters:
        return gowers.gowers_norm(f, k, method)
    return gowers.gowers_norm(f, k)


def _exact_bias(t: np.ndarray) -> Fraction:
    """Bias of a coefficient tensor by enumeration (independent oracle): the
    fraction of x_1..x_{k-1} whose contraction is the zero linear form.  One
    x_1 at a time, so the check adds little to the run's peak memory."""
    n, k = t.shape[0], t.ndim
    ev = gf2.all_vectors(n).astype(np.int64)
    zero = 0
    for x1 in ev:
        vals = np.tensordot(x1, t.astype(np.int64), axes=([0], [0])) % 2
        for _ in range(k - 2):
            vals = np.tensordot(vals, ev, axes=([0], [1])) % 2
        zero += int((~vals.any(axis=0)).sum())
    return Fraction(zero, 1 << (n * (k - 1)))


def _symmetrization(t: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(t)
    for perm in itertools.permutations(range(t.ndim)):
        acc ^= np.transpose(t, perm)
    return acc


def _exact_box_power(table: np.ndarray) -> Fraction:
    """Box power of a real 3-axis +-1 table: E_{x,x',y,y'} (E_z prod of 4)^2."""
    t = table.astype(np.int64)
    corner = np.einsum("acz,adz,bcz,bdz->abcdz", t, t, t, t)
    inner = corner.sum(axis=-1)
    sx, sy, sz = t.shape
    return Fraction(int((inner * inner).sum()), (sx * sy * sz) ** 2)


@dataclass
class Instance:
    size: str  # "base" or "large"
    n: int
    data: dict


class PlantedDyadic:
    """The integration lemma end to end on non-+-1 dyadic phases."""

    name = "planted-dyadic"
    k = 3
    sizes = {"base": 4, "large": 5}

    def generate(self, rng, size: str, index: int) -> Instance:
        n, k = self.sizes[size], self.k
        while True:
            sigma = forms.random_strongly_symmetric(n, k, rng)
            # a coefficient on a tuple with a repeated index forces a
            # non-classical monomial, so the phase is not +-1 valued
            if any(sigma.coeffs[t] for t in np.ndindex(*sigma.coeffs.shape) if len(set(t)) < k):
                break
        return Instance(size, n, {"sigma": sigma, "u": _random_hyperplane(n, rng)})

    def guard_problems(self, inst: Instance) -> list[str]:
        bits = (self.k + 1) * inst.n
        out = []
        if bits > INTEGRATE_VERIFY_BITS:
            out.append(f"integrate verification needs {bits} > {INTEGRATE_VERIFY_BITS} bits")
        if bits > ENUMERATION_BITS:
            out.append(f"correlation needs {bits} > {ENUMERATION_BITS} bits")
        return out

    def pipeline(self, inst: Instance) -> dict:
        sigma = inst.data["sigma"]
        q = nonclassical.integrate(sigma)
        f = gowers.PhaseFunction.from_poly(q)
        corr = gowers.correlation(f, sigma)
        norm = _norm(f, self.k, "recursive")
        _, restrict = gowers.subspace_restrict(f, sigma, inst.data["u"])
        return {"q": q, "corr": corr, "norm": norm, "restrict": restrict}

    def record(self, inst: Instance, raw: dict) -> Outputs:
        out = Outputs()
        out.put("q", raw["q"])
        corr, norm, restrict = raw["corr"], raw["norm"], raw["restrict"]
        out.put_float("corr.real", corr.value.real, corr.err)
        out.put_float("corr.imag", corr.value.imag, corr.err)
        out.put_float("norm.power", norm.power, norm.err)
        out.put_float("restrict.before", restrict.corr_before, restrict.tolerance)
        out.put_float("restrict.after", restrict.corr_after, restrict.tolerance)
        return out

    def check(self, inst: Instance, raw: dict) -> list[str]:
        # f = e(q) has k-fold derivatives e(sigma(a)/2) = (-1)^sigma(a) at every
        # x, so corr(f, sigma) = 1 and ||f||_{U^k}^{2^k} = bias(sigma).
        sigma = inst.data["sigma"]
        corr, norm, restrict = raw["corr"], raw["norm"], raw["restrict"]
        problems = []
        if any(len(s) + j > self.k for s, j in raw["q"].monomials()):
            problems.append("integrate returned a monomial above degree k")
        if not (float_close(corr.value.real, 1.0, corr.err) and float_close(corr.value.imag, 0.0, corr.err)):
            problems.append(f"correlation {corr.value} is not 1")
        expected = float(_exact_bias(sigma.coeffs))
        if not float_close(norm.power, expected, norm.err):
            problems.append(f"U^k power {norm.power} differs from bias {expected}")
        for label, v in (("before", restrict.corr_before), ("after", restrict.corr_after)):
            if not float_close(v, 1.0, restrict.tolerance):
                problems.append(f"restricted correlation {label} = {v} is not 1")
        return problems


class SignUniformity:
    """The gowers layer on its integer +-1 path: random and planted cubic signs."""

    name = "sign-uniformity"
    k = 3
    sizes = {"base": 4, "large": 5}
    spectrum_n = 3
    spectrum_k = 2
    spectrum_threshold = 0.5
    spectrum_checked = 4  # strongest entries re-derived by correlation()
    box_shape = (4, 4, 4)

    def generate(self, rng, size: str, index: int) -> Instance:
        n, k = self.sizes[size], self.k
        alpha = _nonzero_form(n, k, rng)
        if index % 2:
            # planted cubic phase (-1)^{alpha(x,x,x)}
            ev = gf2.all_vectors(n).astype(np.int64)
            cubic = np.einsum("ijk,xi,xj,xk->x", alpha.coeffs.astype(np.int64), ev, ev, ev) % 2
            signs = 1 - 2 * cubic
        else:
            signs = _signs(n, rng)
        box = (1 - 2 * rng.integers(0, 2, size=self.box_shape)).astype(np.float64)
        return Instance(size, n, {
            "planted": bool(index % 2),
            "alpha": alpha,
            "f": gowers.PhaseFunction.from_signs(signs),
            "f_spectrum": gowers.PhaseFunction.from_signs(_signs(self.spectrum_n, rng)),
            "box": box,
            "u": _random_hyperplane(n, rng),
        })

    def guard_problems(self, inst: Instance) -> list[str]:
        out = []
        bits = (self.k + 1) * inst.n
        if bits > ENUMERATION_BITS:
            out.append(f"correlation and gowers_norm need {bits} > {ENUMERATION_BITS} bits")
        if self.spectrum_n**self.spectrum_k > SPECTRUM_FORM_BITS:
            out.append(f"spectrum_search form space n^k > {SPECTRUM_FORM_BITS}")
        pairs = int(np.prod(self.box_shape)) ** 2
        if pairs * (1 << len(self.box_shape)) > BOX_POWER_OPS:
            out.append(f"box_power needs more than {BOX_POWER_OPS} ops")
        return out

    def pipeline(self, inst: Instance) -> dict:
        d = inst.data
        return {
            "corr": gowers.correlation(d["f"], d["alpha"]),
            "naive": _norm(d["f"], self.k, "naive"),
            "recursive": _norm(d["f"], self.k, "recursive"),
            "spectrum": gowers.spectrum_search(d["f_spectrum"], self.spectrum_k, self.spectrum_threshold),
            "box": gowers.box_power(d["box"]),
            "restrict": gowers.subspace_restrict(d["f"], d["alpha"], d["u"])[1],
        }

    def record(self, inst: Instance, raw: dict) -> Outputs:
        out = Outputs()
        out.put("corr", raw["corr"].exact)
        out.put("naive", raw["naive"].power_exact)
        out.put("recursive", raw["recursive"].power_exact)
        out.put("spectrum", [(alpha, rep.exact) for alpha, rep in raw["spectrum"]])
        out.put_float("box", raw["box"], 0.0)
        restrict = raw["restrict"]
        out.put_float("restrict.before", restrict.corr_before, restrict.tolerance)
        out.put_float("restrict.after", restrict.corr_after, restrict.tolerance)
        return out

    def check(self, inst: Instance, raw: dict) -> list[str]:
        d = inst.data
        corr, restrict = raw["corr"].exact, raw["restrict"]
        problems = []
        if corr is None or abs(corr) > 1:
            problems.append(f"+-1 correlation {corr} is not an exact value in [-1, 1]")
        elif d["planted"]:
            # the 3-fold derivative of alpha(x,x,x) is Sym(alpha)(a,b,c), so the
            # correlation is the bias of Sym(alpha) + alpha
            t = d["alpha"].coeffs
            expected = _exact_bias(_symmetrization(t) ^ t)
            if corr != expected:
                problems.append(f"planted correlation {corr} != bias {expected}")
        if raw["naive"].power_exact is None or raw["naive"].power_exact != raw["recursive"].power_exact:
            problems.append("naive and recursive U^3 powers differ")
        for alpha, rep in raw["spectrum"][: self.spectrum_checked]:
            direct = gowers.correlation(d["f_spectrum"], alpha).exact
            if rep.exact != direct or abs(direct) < self.spectrum_threshold:
                problems.append(f"spectrum entry {rep.exact} != direct correlation {direct}")
        expected_box = float(_exact_box_power(d["box"]))
        if not float_close(raw["box"], expected_box, 0.0):
            problems.append(f"box power {raw['box']} != {expected_box}")
        if not float_close(restrict.corr_before, abs(float(corr or 0)), 0.0):
            problems.append("restriction's starting correlation differs from correlation()")
        if restrict.corr_after < restrict.corr_before - restrict.tolerance:
            problems.append("restriction lost correlation beyond its tolerance")
        return problems


class RankCertify:
    """Rank questions and certificates on planted low partition-rank forms;
    no gowers or nonclassical work."""

    name = "rank-certify"
    bound = 3  # decide_low_rank(phi, 3); both forms have partition rank <= 3
    # The k=3 form is a sum of 2 products, not 3: with 3, slice_rewrite's term
    # count is heavy tailed in the input (at n=5 the 10th-90th percentile time
    # spans 0.02-0.46 s, up to ~1,200 terms), so per-seed medians would not
    # repeat; with 2 it stays under 0.07 s and 75 terms.
    small = (5, 3, 2)  # (n, k, products) of the form that is also rewritten
    sizes = {"base": 5, "large": 6}  # n of the k=4 form of 3 products
    extract_n = 5
    quadratic_n = 6
    quadratic_forms = 4

    @staticmethod
    def _planted(n: int, k: int, count: int, rng) -> rankbias.PrankCertificate:
        while True:
            terms = []
            for _ in range(count):
                while True:
                    mask = rng.integers(0, 2, size=k)
                    if 0 < mask.sum() < k:
                        break
                left = tuple(int(v) for v in np.flatnonzero(mask))
                right = tuple(int(v) for v in np.flatnonzero(1 - mask))
                terms.append((
                    rankbias.Factor(left, _nonzero_form(n, len(left), rng)),
                    rankbias.Factor(right, _nonzero_form(n, len(right), rng)),
                ))
            target = forms.MultilinearForm(n, k, rankbias.expand_terms(terms, n, k))
            if not target.is_zero():
                return rankbias.certificate(target, terms)

    def generate(self, rng, size: str, index: int) -> Instance:
        certs = [
            self._planted(*self.small, rng),
            self._planted(self.sizes[size], 4, self.bound, rng),
        ]
        n = self.extract_n
        while True:
            betas = [_nonzero_form(n, 1, rng) for _ in range(2)]
            if gf2.rank(np.stack([b.coeffs for b in betas])) == 2:
                break
        gammas = [_nonzero_form(n, 2, rng) for _ in range(2)]
        lam = rng.integers(0, 2, size=(2, 2))
        extract_terms = [
            (rankbias.Factor((0,), betas[i]), rankbias.Factor((1, 2), gammas[j]))
            for i in range(2) for j in range(2) if lam[i, j]
        ]
        return Instance(size, self.sizes[size], {
            "certs": certs,
            "down": decomp.DownSet.all_nontrivial(self.small[1]),
            "groups": [decomp.CoefficientGroup((0,), tuple(betas)), decomp.CoefficientGroup((1, 2), tuple(gammas))],
            "extract_target": forms.MultilinearForm(n, 3, rankbias.expand_terms(extract_terms, n, 3)),
            "lambda": {(i, j): int(lam[i, j]) for i in range(2) for j in range(2)},
            "rhos": [forms.random_form(self.quadratic_n, 2, rng) for _ in range(self.quadratic_forms)],
        })

    def guard_problems(self, inst: Instance) -> list[str]:
        out = []
        for cert in inst.data["certs"]:
            n, k = cert.target.dim, cert.target.arity
            if (1 << ((k - 2) * n)) * n * n > POLICY_BIAS_OPS:
                out.append(f"bias at (n={n}, k={k}) exceeds the rank policy budget")
        n, k, _ = self.small
        if 1 << (n * (k - 1)) > SLICE_REWRITE_SPACE:
            out.append(f"slice_rewrite at (n={n}, k={k}) exceeds its enumeration budget")
        if n * (k - 1) > TRUTH_TABLE_BITS:
            out.append(f"truth tables at (n={n}, k={k - 1}) exceed {TRUTH_TABLE_BITS} bits")
        if 1 << (3 * self.extract_n) > FIND_POINT_SPACE:
            out.append("find_point would fall back to random trials")
        return out

    def pipeline(self, inst: Instance) -> dict:
        d = inst.data
        policy = rankbias.RankProxyPolicy()
        per_form = [
            {"arank": rankbias.arank(c.target), "decision": policy.decide_low_rank(c.target, self.bound)}
            for c in d["certs"]
        ]
        cert = d["certs"][0]
        rewritten = decomp.slice_rewrite(cert.target, cert, d["down"], phi_id="phi")
        return {
            "forms": per_form,
            "rewritten": rewritten,
            "verified": rankbias.verify_certificate(rewritten),
            "provenance": rankbias.verify_provenance(rewritten, {"phi": cert.target}),
            "coefficients": decomp.extract_coefficients(d["groups"], [], d["extract_target"]),
            "quadratic_rank": rankbias.quadratic_rank_hypothesis(d["rhos"]),
        }

    def record(self, inst: Instance, raw: dict) -> Outputs:
        out = Outputs()
        for i, entry in enumerate(raw["forms"]):
            out.put(f"form{i}.arank", entry["arank"])
            out.put(f"form{i}.decision", entry["decision"])
        for key in ("rewritten", "verified", "provenance", "coefficients", "quadratic_rank"):
            out.put(key, raw[key])
        return out

    def check(self, inst: Instance, raw: dict) -> list[str]:
        problems = []
        for cert, entry in zip(inst.data["certs"], raw["forms"]):
            # a sum of at most `bound` products has partition rank <= bound,
            # and arank <= prank, so bias(phi) >= 2^-bound
            decision, ar = entry["decision"], entry["arank"]
            if decision.is_low is not True:
                problems.append(f"planted form not decided low: {decision.brief()}")
            b = _exact_bias(cert.target.coeffs)
            if decision.bias_value is not None and decision.bias_value.as_fraction() != b:
                problems.append(f"policy bias {decision.bias_value.as_fraction()} != {b}")
            if ar.exact is not None and Fraction(2) ** -ar.exact != b:
                problems.append(f"exact analytic rank {ar.exact} != -log2 {b}")
            if not -ar.upper - 1e-9 <= math.log2(b) <= -ar.lower + 1e-9:
                problems.append(f"analytic rank bracket [{ar.lower}, {ar.upper}] misses -log2 {b}")
        rewritten, phi = raw["rewritten"], inst.data["certs"][0].target
        if not (raw["verified"] and raw["provenance"]) or rewritten.target != phi:
            problems.append("rewritten certificate does not verify against phi")
        if any(f.provenance.kind != "slice" for term in rewritten.terms for f in term):
            problems.append("rewritten certificate has a factor that is not a slice of phi")
        for idx, value in raw["coefficients"].items():
            if value is not None and value != inst.data["lambda"][idx]:
                problems.append(f"extracted coefficient {idx}={value} != planted {inst.data['lambda'][idx]}")
        if not 0 <= raw["quadratic_rank"] <= self.quadratic_n:
            problems.append(f"quadratic rank {raw['quadratic_rank']} out of range")
        return problems


WORKLOADS = {w.name: w for w in (PlantedDyadic(), SignUniformity(), RankCertify())}


def make_pool(workload, seed: int, cycles: int) -> list[Instance]:
    """The seed's instance sequence: ``cycles`` repetitions of CYCLE."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(cycles * len(CYCLE)):
        pool.append(workload.generate(rng, CYCLE[i % len(CYCLE)], i))
    return pool
