"""The one work limit: each guarded engine refuses an input just past it,
quickly and before allocating."""

import time
import tracemalloc

import numpy as np
import pytest

from gowers_forms import decomp, forms, gf2, gowers, nonclassical, rankbias
from gowers_forms.errors import BudgetExceeded
from gowers_forms.nonclassical import TorusFunction


def _phase(n, log2_den):
    return TorusFunction(n, np.arange(1 << n), log2_den)


def _one_product_certificate(n):
    beta = forms.MultilinearForm(n, 1, gf2.unit(n, 0))
    terms = [(rankbias.Factor((0,), beta), rankbias.Factor((1,), beta))]
    target = forms.MultilinearForm(n, 2, rankbias.expand_terms(terms, n, 2))
    return rankbias.certificate(target, terms)


_RNG = np.random.default_rng(0)
_DEEP = _phase(2, 40)  # L = 2^39
_CERT = _one_product_certificate(27)
_WIDE_TABLES = np.broadcast_to(np.zeros((1, 1), np.uint8), (2, (1 << 25) + 1))

# name -> (engine, arguments) whose cost is just past 2^26 work units; the
# arguments are built here, outside the measured call
CASES = {
    "MultilinearForm n^k": (forms.MultilinearForm, (8193, 2, np.zeros(1, np.uint8))),
    "support classes n^k*k": (forms.random_strongly_symmetric, (5793, 2, _RNG)),
    "lift": (forms.lift_strongly_symmetric, (forms.MultilinearForm(5793, 1, np.zeros(5793)),)),
    "all_strongly_symmetric": (lambda n, k: next(forms.all_strongly_symmetric(n, k)), (27, 1)),
    "truth_table": (forms.truth_table, (forms.random_form(9, 3, _RNG),)),
    "derivative_tables": (nonclassical.derivative_tables, (TorusFunction.zeros(9), 2)),
    "derivative_identity_check n=7 k=4": (
        nonclassical.derivative_identity_check, (TorusFunction.zeros(7), forms.zero_form(7, 4))
    ),
    "integrate verification": (nonclassical.integrate, (forms.diagonal_form(9, 3),)),
    "correlation log2_den=40": (gowers.correlation, (_DEEP, forms.dot_form(2))),
    "gowers_norm log2_den=40": (gowers.gowers_norm, (_DEEP, 2)),
    "spectrum_search form space": (gowers.spectrum_search, (TorusFunction.zeros(5), 2, 0.5)),
    "subspace_restrict": (gowers.subspace_restrict, (
        _phase(4, 13),
        forms.MultilinearForm(4, 1, gf2.unit(4, 0)),
        gf2.Subspace.from_spanning([gf2.unit(4, 0)], 4),
    )),
    "bias": (rankbias.bias, (forms.random_form(10, 4, _RNG),)),
    "quadratic_rank_hypothesis": (rankbias.quadratic_rank_hypothesis, ([forms.zero_form(3, 2)] * 12,)),
    "quadratic_rank_hypothesis vector table": (
        rankbias.quadratic_rank_hypothesis, ([forms.zero_form(2, 2)] * 11,)
    ),
    "box_power": (gowers.box_power, (np.ones((1025, 64)),)),
    "change_basis": (decomp.change_basis, ([forms.zero_form(2, 1)] * 2, _WIDE_TABLES)),
    "slice_rewrite": (decomp.slice_rewrite, (_CERT.target, _CERT, decomp.DownSet.all_nontrivial(2))),
    "sumset4_verify": (gowers.sumset4_verify, ([0], gf2.Subspace.zero(22), 22)),
}


@pytest.mark.parametrize("engine, args", CASES.values(), ids=CASES.keys())
def test_refused_fast_before_allocating(engine, args):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            engine(*args)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1 << 20


def test_rank_policy_undecided_exactly_where_bias_refuses():
    rng = np.random.default_rng(1)
    policy = rankbias.RankProxyPolicy()
    refused = []
    for n, k in [(3, 3), (5, 3), (4, 4), (10, 4), (9, 5)]:
        f = forms.random_form(n, k, rng)
        try:
            rankbias.bias(f)
        except BudgetExceeded:
            refused.append((n, k))
        decision = policy.decide_low_rank(f, 2)
        assert (decision.is_low is None) == ((n, k) in refused)
        assert decision.method == ("none" if (n, k) in refused else "bias-threshold")
    assert refused == [(10, 4), (9, 5)]
