import hashlib
import math
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfsim import poly
from bnfsim import resonance as R
from bnfsim.cli import stream_seed
from bnfsim.modes import in_ball, lattice_modes
from bnfsim.spectra import (FrequencyTable, SpectralError,
                            convolution_frequencies, periodic_nlw_table)

import helpers
from helpers import Monomial, poly_of, small_divisor


def table_1d(omegas: dict) -> FrequencyTable:
    return FrequencyTable({(j,): float(w) for j, w in omegas.items()})


def member(mono, t, gamma, alpha, N) -> bool:
    """The membership flag of one monomial."""
    flags = R.normal_form_membership(poly_of({mono: 1.0}), t, gamma, alpha,
                                     N)
    assert len(flags) == 1
    return flags[0]


def test_small_divisor_examples():
    t = table_1d({1: 1.0, 2: 2.0, 3: 3.0})
    assert small_divisor(t, {}) == 0.0
    assert small_divisor(t, {(1,): 1, (2,): 1, (3,): -1}) == 0.0
    t2 = table_1d({1: 1.0, 2: math.sqrt(2)})
    assert small_divisor(t2, {(1,): 1, (2,): -1}) == pytest.approx(
        math.sqrt(2) - 1, abs=1e-15)
    with pytest.raises(KeyError):
        small_divisor(t, {(9,): 1})


def test_query_validation():
    t = table_1d({1: 1.0})
    with pytest.raises(ValueError, match="gamma"):
        R.DivisorQuery(t, r=1, N=1, gamma=0.0, alpha=1.0, jmax=1)
    with pytest.raises(ValueError, match="jmax"):
        R.DivisorQuery(t, r=1, N=4, gamma=1.0, alpha=1.0, jmax=2)


def test_query_order_fits_int8_rows():
    t = table_1d({1: 1.0})
    assert R.DivisorQuery(t, r=125, N=1, gamma=1.0, alpha=1.0, jmax=1)
    for r in (0, 126):
        with pytest.raises(ValueError, match="r: must be in 1..125"):
            R.DivisorQuery(t, r=r, N=1, gamma=1.0, alpha=1.0, jmax=1)


def test_integer_spectrum_contains_exact_resonance():
    t = table_1d({j: float(j) for j in range(1, 6)})
    q = R.DivisorQuery(t, r=1, N=5, gamma=0.5, alpha=1.0, jmax=5)
    res = R.enumerate_near_resonances(q)
    assert res.complete
    target = (((1,), 1), ((2,), 1), ((3,), -1))
    assert target in res.keys()
    for h in res.hits:
        assert 0 < h.order() <= q.r + 2
        assert abs(h.value) < q.threshold
        assert abs(h.value - small_divisor(t, h.k)) <= 1e-15 or \
            abs(abs(h.value) - small_divisor(t, h.k)) <= 1e-15


def test_wild_spectrum_empty():
    t = table_1d({j: math.pi ** j for j in range(1, 4)})
    q = R.DivisorQuery(t, r=2, N=3, gamma=1e-3, alpha=1.0, jmax=3)
    assert R.enumerate_near_resonances(q).hits == []
    assert helpers.enumerate_brute_force(q).hits == []


def test_borderline_divisor_is_decided_exactly():
    # summed in some orders 0.1 + 0.3 - 0.4 reads 5.55e-17, above the
    # threshold 4e-17 (the product K @ w does so for this row with numpy's
    # default BLAS); the exactly-rounded value 2.78e-17 is below it
    t = table_1d({1: 0.1, 2: 0.3, 3: 0.4, 4: 0.5})
    q = R.DivisorQuery(t, r=1, N=1, gamma=4e-17, alpha=1.0, jmax=4)
    assert abs((0.1 - 0.4) + 0.3) > q.threshold
    res = R.enumerate_near_resonances(q)
    hit = {h.key(): h for h in res.hits}[(((1,), 1), ((2,), 1), ((3,), -1))]
    assert hit.value == R.omega_dot(t, hit.k) == math.fsum([0.1, 0.3, -0.4])
    assert abs(hit.value) < q.threshold
    assert res.complete \
        and res.keys() == helpers.enumerate_brute_force(q).keys()


def test_pruned_equals_brute_force_1d():
    rnd = random.Random(77)
    for trial in range(6):
        n = rnd.randint(3, 6)
        t = table_1d({j: rnd.uniform(0.3, 5.0) for j in range(1, n + 1)})
        r = rnd.randint(1, 3)
        N = rnd.randint(1, n)
        gamma = 10 ** rnd.uniform(-2, 0.7)
        q = R.DivisorQuery(t, r=r, N=N, gamma=gamma, alpha=1.0, jmax=n)
        a = R.enumerate_near_resonances(q)
        b = helpers.enumerate_brute_force(q)
        assert a.complete
        assert a.keys() == b.keys(), (trial, gamma)
        assert [h.key() for h in a.hits] == [h.key() for h in b.hits]


def test_pruned_equals_brute_force_d2():
    from bnfsim.spectra import sample_potential, convolution_frequencies
    params = {"R": 0.8, "decay": 2.0, "d": 2, "kmax": 1}
    for seed in (1, 2):
        s = sample_potential("convolution_d", params, seed)
        t = convolution_frequencies(2, s, jmax=1)
        q = R.DivisorQuery(t, r=2, N=1, gamma=0.6, alpha=1.0, jmax=1)
        a = R.enumerate_near_resonances(q)
        b = helpers.enumerate_brute_force(q)
        assert a.keys() == b.keys()
        # exact pair degeneracy on the symmetric slice
        assert (((-1, 0), -1), ((1, 0), 1)) in a.keys()


def test_tail_budget_enforced():
    t = table_1d({j: float(j) + 0.03 * j * j for j in range(1, 7)})
    q = R.DivisorQuery(t, r=3, N=2, gamma=50.0, alpha=1.0, jmax=6)
    res = R.enumerate_near_resonances(q)
    assert res.complete and res.hits
    n2 = q.N * q.N
    for h in res.hits:
        tail_mass = sum(abs(c) for j, c in h.k.items()
                        if j[0] * j[0] > n2)
        assert tail_mass <= 2
    assert res.keys() == helpers.enumerate_brute_force(q).keys()


def test_node_cap_flags_incomplete():
    t = table_1d({j: float(j) for j in range(1, 7)})
    q = R.DivisorQuery(t, r=3, N=6, gamma=20.0, alpha=1.0, jmax=6,
                       node_cap=50)
    res = R.enumerate_near_resonances(q)
    assert not res.complete
    full = R.enumerate_near_resonances(
        R.DivisorQuery(t, r=3, N=6, gamma=20.0, alpha=1.0, jmax=6))
    assert res.keys() <= full.keys()


def test_node_cap_counts_tree_nodes():
    # a complete search reports every node it made, the root included, so
    # a budget of exactly that many completes and one less does not
    t = table_1d({j: float(j) for j in range(1, 7)})
    q = R.DivisorQuery(t, r=3, N=6, gamma=20.0, alpha=1.0, jmax=6)
    full = R.enumerate_near_resonances(q)
    assert full.complete
    exact = R.enumerate_near_resonances(replace(q, node_cap=full.nodes))
    assert exact.complete and exact.nodes == full.nodes
    assert [h.key() for h in exact.hits] == [h.key() for h in full.hits]
    short = R.enumerate_near_resonances(replace(q, node_cap=full.nodes - 1))
    assert not short.complete and short.keys() <= full.keys()


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # more modes than Python's recursion limit: the all-zero branch is the
    # first one searched and runs as deep as the table
    t = table_1d({j: j + 0.5 for j in range(1, 1501)})
    q = R.DivisorQuery(t, r=1, N=1500, gamma=0.1, alpha=1.0, jmax=1500,
                       node_cap=5000)
    res = R.enumerate_near_resonances(q)
    assert not res.complete and 5000 < res.nodes <= 5000 + 7 * R.CHUNK
    assert res.hits == []


def test_classify_pair_tail():
    k = {(7,): 1, (-7,): -1}
    assert R.classify_exception(k, "nlw_periodic",
                                {"b": 1.0, "N": 4}) == R.PATTERN_PAIR_TAIL
    # cutoff above 7 forces k_7 = 0, so the same k fails
    assert R.classify_exception(k, "nlw_periodic",
                                {"b": 6.0, "N": 4}) == R.PATTERN_NONE
    assert R.classify_exception({(1,): 1}, "nlw_periodic",
                                {"b": 1.0, "N": 4}) == R.PATTERN_NONE
    mixed = {(7,): 1, (-7,): -1, (5,): 1}
    assert R.classify_exception(mixed, "nlw_periodic",
                                {"b": 1.0, "N": 4}) == R.PATTERN_NONE


def test_classify_shell_d2():
    prm = {"N": 2, "alpha": 1.0, "m_decay": 2.0}
    k = {(3, 4): 1, (5, 0): -1}
    assert R.classify_exception(k, "nls_dd", prm) == R.PATTERN_SHELL
    # unequal shells
    k2 = {(3, 4): 1, (4, 0): -1}
    assert R.classify_exception(k2, "nls_dd", prm) == R.PATTERN_NONE
    # support below the cutoff N^sqrt(alpha/m) = 2^0.707 ~ 1.63
    k3 = {(1, 0): 1, (0, 1): -1}
    assert R.classify_exception(k3, "nls_dd", prm) == R.PATTERN_NONE


def test_classification_sign_invariance():
    rnd = random.Random(5)
    prm_pair = {"b": 0.5, "N": 8}
    prm_shell = {"N": 2, "alpha": 1.0, "m_decay": 2.0}
    for _ in range(40):
        k1 = {(rnd.randint(-9, 9),): rnd.randint(-2, 2) for _ in range(3)}
        k1 = {j: c for j, c in k1.items() if c}
        neg = {tuple(-x for x in j): -c for j, c in k1.items()}
        assert R.classify_exception(k1, "nlw_periodic", prm_pair) == \
            R.classify_exception(neg, "nlw_periodic", prm_pair)
        k2 = {(rnd.randint(-4, 4), rnd.randint(-4, 4)): rnd.randint(-2, 2)
              for _ in range(3)}
        k2 = {j: c for j, c in k2.items() if c}
        neg2 = {tuple(-x for x in j): -c for j, c in k2.items()}
        assert R.classify_exception(k2, "nls_dd", prm_shell) == \
            R.classify_exception(neg2, "nls_dd", prm_shell)


def test_coupled_cutoff_scaling():
    # cutoff C*N^sqrt(2 alpha): with C=1, N=4, alpha=0.5 the cutoff is 4
    k = {(5,): 1, (-5,): -1}
    assert R.classify_exception(k, "nls_coupled",
                                {"C": 1.0, "N": 4, "alpha": 0.5}) == \
        R.PATTERN_PAIR_TAIL
    k2 = {(3,): 1, (-3,): -1}
    assert R.classify_exception(k2, "nls_coupled",
                                {"C": 1.0, "N": 4, "alpha": 0.5}) == \
        R.PATTERN_NONE


def test_calibrate_pair_cutoff():
    # gaps 10^-j: threshold 5e-3 fails at j=1,2 and holds from j=3 on
    omega = {}
    for j in range(1, 9):
        omega[(j,)] = float(j)
        omega[(-j,)] = float(j) + 10.0 ** -j
    t = FrequencyTable(omega)
    cal = R.calibrate_pair_cutoff(t, gamma=1e-2, alpha=1.0, N=2)
    assert cal.gap_threshold == pytest.approx(2.5e-3)
    assert cal.j_cutoff == 2
    assert cal.b == pytest.approx(2 / math.log(2))
    assert cal.worst_gap_beyond < cal.gap_threshold
    # a table with no failures calibrates to b = 0
    flat = FrequencyTable({(1,): 1.0, (-1,): 1.0 + 1e-9})
    assert R.calibrate_pair_cutoff(flat, 1.0, 1.0, 2).b == 0.0


def test_membership_examples():
    t2 = table_1d({1: 1.0, 2: math.sqrt(2)})
    m_act = Monomial({(1,): 1}, {(1,): 1})
    assert member(m_act, t2, 1e-9, 1.0, 1)
    m_off = Monomial({(1,): 1}, {(2,): 1})
    assert not member(m_off, t2, 0.1, 1.0, 1)
    # tail degree 3 fails regardless of the divisor
    t = table_1d({j: float(j) for j in range(1, 13)})
    m_tail = Monomial({(5,): 1, (6,): 1}, {(11,): 1})
    assert small_divisor(t, {(5,): 1, (6,): 1, (11,): -1}) == 0.0
    assert not member(m_tail, t, 1.0, 1.0, 4)


def test_membership_depends_on_net_and_tail_only():
    rnd = random.Random(11)
    t = table_1d({j: rnd.uniform(0.5, 3.0) for j in range(1, 7)})
    N = 4
    for _ in range(50):
        xi = {(rnd.randint(1, 6),): rnd.randint(0, 2) for _ in range(2)}
        eta = {(rnd.randint(1, 6),): rnd.randint(0, 2) for _ in range(2)}
        m = Monomial({k: v for k, v in xi.items() if v},
                     {k: v for k, v in eta.items() if v})
        p = {(rnd.randint(1, N),): rnd.randint(1, 2)}
        shifted = Monomial(
            {**dict(m.xi), **{j: dict(m.xi).get(j, 0) + e
                              for j, e in p.items()}},
            {**dict(m.eta), **{j: dict(m.eta).get(j, 0) + e
                               for j, e in p.items()}})
        gamma = 10 ** rnd.uniform(-3, 0)
        assert member(m, t, gamma, 1.0, N) == \
            member(shifted, t, gamma, 1.0, N)


def test_membership_boundary_is_member():
    t = table_1d({1: 1.0})
    m = Monomial({(1,): 1}, {})
    # divisor 1.0 exactly at threshold gamma/N^alpha = 1.0
    assert member(m, t, 1.0, 1.0, 1)
    assert not member(m, t, 0.999, 1.0, 1)


def test_wilson_interval_properties():
    lo, hi, hw = R.wilson_interval(0, 100)
    assert lo == 0.0 or lo == pytest.approx(0.0, abs=1e-12)
    assert 0 < hi < 0.05
    lo5, hi5, _ = R.wilson_interval(5, 100)
    assert lo5 < 0.05 < hi5
    lo_all, hi_all, _ = R.wilson_interval(100, 100)
    assert hi_all == pytest.approx(1.0, abs=1e-12) and lo_all > 0.9
    # interval tightens with n
    _, _, hw1 = R.wilson_interval(10, 100)
    _, _, hw2 = R.wilson_interval(40, 400)
    assert hw2 < hw1


def test_measure_scan_convolution():
    params = {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 3}
    q = R.DivisorQuery(None, r=2, N=1, gamma=1.0, alpha=1.0, jmax=3)
    grid = [20.0, 0.5, 1e-2, 1e-6]
    est = R.measure_scan("convolution_d", params, q, grid, 40, seed=9)
    assert [e.gamma for e in est] == sorted(grid, reverse=True)
    fr = [e.fraction for e in est]
    assert all(a >= b for a, b in zip(fr, fr[1:]))
    # gamma above every divisor: every sample violates (e.g. k = e_1)
    assert fr[0] == 1.0
    # gamma -> 0: only the exactly degenerate pairs remain, all exempt
    assert fr[-1] == 0.0
    assert est[-1].pattern_histogram.get("NONE", 0) == 0
    assert est[-1].pattern_histogram.get("PAIR_TAIL", 0) > 0
    for e in est:
        assert e.complete
        assert e.wilson_low <= e.fraction <= e.wilson_high


def test_measure_scan_rejects_a_negative_envelope():
    # R < 0 made every envelope negative, and the search, handed intervals
    # with lo > hi, found no candidate: 0 violations at both gammas, where a
    # per-sample search of the same potentials finds 30/30 and 5/30
    params = {"R": -1.0, "kmax": 2, "d": 2, "decay": 2.0}
    q = R.DivisorQuery(None, r=3, N=2, gamma=0.01, alpha=1.0, jmax=2)
    with pytest.raises(ValueError, match="potential.params: R expected"):
        R.measure_scan("convolution_d", params, q, [0.01, 0.001], 30, 5)


def test_measure_deterministic():
    params = {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 2}
    q = R.DivisorQuery(None, r=1, N=1, gamma=0.3, alpha=1.0, jmax=2)
    a = R.measure_scan("convolution_d", params, q, [q.gamma], 30, seed=4)[0]
    b = R.measure_scan("convolution_d", params, q, [q.gamma], 30, seed=4)[0]
    assert (a.fraction, a.violations, a.pattern_histogram) == \
        (b.fraction, b.violations, b.pattern_histogram)
    c = R.measure_scan("convolution_d", params, q, [q.gamma], 30, seed=5)[0]
    assert (a.violations,) != (c.violations,) or \
        a.pattern_histogram != c.pattern_histogram


def test_measure_generic_path_matches_fast_path():
    # the slow path builds tables per sample and enumerates each one; on
    # the same seeds both routes must agree sample by sample
    params = {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 2}
    q = R.DivisorQuery(None, r=1, N=1, gamma=0.35, alpha=1.0, jmax=2)
    fast = R.measure_scan("convolution_d", params, q, [0.35], 30, seed=21)[0]
    from bnfsim.spectra import sample_potential, convolution_frequencies
    seeds = R.sample_seeds(21, 30)
    slow_viol = 0
    for s in seeds:
        smp = sample_potential("convolution_d", params, s)
        t = convolution_frequencies(1, smp, jmax=2)
        qs = R.DivisorQuery(t, r=1, N=1, gamma=0.35, alpha=1.0, jmax=2)
        hits = R.enumerate_near_resonances(qs).hits
        bad = False
        for h in hits:
            tag = R.classify_exception(h.k, "shell",
                                       {"N": 1, "alpha": 1.0, "m_decay": 2.0})
            if tag == R.PATTERN_NONE and R.classify_exception(
                    h.k, "pair", {"cutoff": 0.0}) == R.PATTERN_NONE:
                bad = True
        slow_viol += bad
    assert slow_viol == fast.violations


def test_csv_outputs(tmp_path):
    t = table_1d({j: float(j) for j in range(1, 5)})
    q = R.DivisorQuery(t, r=1, N=4, gamma=0.5, alpha=1.0, jmax=4)
    res = R.enumerate_near_resonances(q)
    p = tmp_path / "hits.csv"
    R.write_hits_csv(res, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "k_serialized,divisor,pattern"
    assert len(lines) == len(res.hits) + 1
    assert "1:1 2:1 3:-1" in [l.split(",")[0] for l in lines[1:]]
    params = {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 2}
    q2 = R.DivisorQuery(None, r=1, N=1, gamma=0.3, alpha=1.0, jmax=2)
    est = R.measure_scan("convolution_d", params, q2, [0.3, 0.03], 30, 4)
    p2 = tmp_path / "measure.csv"
    R.write_measure_csv(est, p2)
    rows = p2.read_text().splitlines()
    assert rows[0].startswith("gamma,threshold,samples")
    assert len(rows) == 3


# measure_scan on the 1-d families: a table is built for every sampled
# potential (values pinned from the per-combination code)
NLW = {"R": 0.1, "sigma": 1.0, "kmax": 6, "mass_span": 1.0}
PER_SAMPLE_PINS = [
    ("nlw_periodic", NLW, 2, [26, 12, 5],
     [{"PAIR_TAIL": 1560, "NONE": 1756}, {"PAIR_TAIL": 1488, "NONE": 286},
      {"PAIR_TAIL": 864, "NONE": 68}]),
    ("nlw_periodic", NLW, 3, [27, 18, 13],
     [{"PAIR_TAIL": 1980, "NONE": 2192}, {"PAIR_TAIL": 1764, "NONE": 622},
      {"PAIR_TAIL": 1060, "NONE": 228}]),
    ("nls_cosine", {"R": 0.5, "sigma": 0.4, "kmax": 9}, 2, [14, 1, 1],
     [{"NONE": 28}, {"NONE": 2}, {"NONE": 2}]),
]


@pytest.mark.parametrize("family,params,N,violations,hists", PER_SAMPLE_PINS)
def test_measure_scan_per_sample_route_pinned(family, params, N, violations,
                                              hists):
    q = R.DivisorQuery(None, r=2, N=N, gamma=0.05, alpha=1.0, jmax=6)
    est = R.measure_scan(family, params, q, [0.05, 0.01, 0.001], 30, seed=5)
    assert [e.violations for e in est] == violations
    assert [e.pattern_histogram for e in est] == hists
    assert all(type(p) is str for e in est for p in e.pattern_histogram)
    assert all(e.complete and e.skipped == 0 for e in est)


def test_measure_scan_skips_a_sample_whose_spectrum_fails(monkeypatch):
    # a SpectralError drops its sample: `skipped` counts it, and the
    # fraction and the Wilson interval are over the samples left
    family, params, _, pinned, _ = PER_SAMPLE_PINS[2]
    q = R.DivisorQuery(None, r=2, N=2, gamma=0.05, alpha=1.0, jmax=6)
    gammas = [0.05, 0.01, 0.001]
    solve = R.sturm_liouville

    def scan(fails):
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args)
            if fails(len(calls) - 1):
                raise SpectralError("no spectrum for this draw")
            return solve(*args, **kwargs)
        monkeypatch.setattr(R, "sturm_liouville", flaky)
        est = R.measure_scan(family, params, q, gammas, 30, seed=5)
        assert len(calls) == 30
        return est

    # the first sample alone violates at the largest gamma only
    first = [e.violations for e in scan(lambda i: i > 0)]
    assert first == [1, 0, 0]
    est = scan(lambda i: i == 0)
    assert [e.violations for e in est] == [v - f
                                           for v, f in zip(pinned, first)]
    for e in est:
        assert (e.samples, e.skipped) == (30, 1)
        assert e.fraction == e.violations / 29
        assert (e.wilson_low, e.wilson_high) \
            == R.wilson_interval(e.violations, 29)[:2]


# the 1-d families against the route the scan replaced, one search per
# sample: b calibrated per table and gamma, b given, and no rules at all
PER_SAMPLE_FAMILIES = [
    ("nlw_periodic", NLW, 2),
    ("nlw_periodic", dict(NLW, b=3.0), 2),
    ("nls_cosine", {"R": 0.5, "sigma": 0.4, "kmax": 9}, 2),
]


@pytest.fixture(scope="module")
def spectra_of_draws():
    return {}


@pytest.fixture
def shared_spectra(monkeypatch, spectra_of_draws):
    """Each draw's table solved once in this module: a scan of 30 samples
    draws the first 30 of the scan of 100, and both routes solve the same
    draws."""
    for name in ("periodic_nlw_table", "sturm_liouville"):
        def solve(sample, *args, _f=getattr(R, name), _name=name):
            key = (_name, sample.mass, tuple(sample.coeffs.items()), args)
            if key not in spectra_of_draws:
                spectra_of_draws[key] = _f(sample, *args)
            return spectra_of_draws[key]
        monkeypatch.setattr(R, name, solve)


def assert_matches_per_sample(family, params, N, seed, samples):
    q = R.DivisorQuery(None, r=2, N=N, gamma=0.05, alpha=1.0, jmax=6)
    gammas = [0.05, 0.01, 0.001]
    est = R.measure_scan(family, params, q, gammas, samples, seed)
    ref = helpers.measure_scan_per_sample(family, params, q, gammas,
                                          samples, seed)
    assert [e.violations for e in est] == ref.violations
    assert [e.pattern_histogram for e in est] == ref.pattern_histogram
    assert {e.skipped for e in est} == {ref.skipped}
    n = samples - ref.skipped
    assert [e.fraction for e in est] == [v / n for v in ref.violations]
    assert all(e.complete for e in est) and ref.complete
    return est, ref


@pytest.mark.parametrize("samples", [30, 100])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family,params,N", PER_SAMPLE_FAMILIES)
def test_measure_scan_matches_the_per_sample_route(shared_spectra, family,
                                                   params, N, seed, samples):
    est, ref = assert_matches_per_sample(family, params, N, seed, samples)
    assert ref.violations[0] > 0 and ref.skipped == 0
    assert est[0].nodes < ref.nodes


def test_measure_scan_matches_the_per_sample_route_past_a_failed_spectrum(
        monkeypatch):
    # the draws of samples 3 and 17 have no spectrum: both routes skip them
    family, params, N = PER_SAMPLE_FAMILIES[2]
    bad = set(R.sample_seeds(5, 30)[i] for i in (3, 17))
    solve = R.sturm_liouville

    def flaky(sample, *args, **kwargs):
        if sample.seed in bad:
            raise SpectralError("no spectrum for this draw")
        return solve(sample, *args, **kwargs)
    monkeypatch.setattr(R, "sturm_liouville", flaky)
    est, ref = assert_matches_per_sample(family, params, N, 5, 30)
    assert ref.skipped == 2


def test_measure_histogram_keys_are_plain_str():
    params = {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 3}
    q = R.DivisorQuery(None, r=2, N=1, gamma=1.0, alpha=1.0, jmax=3)
    est = R.measure_scan("convolution_d", params, q, [20.0, 1e-6], 30, seed=9)
    assert all(e.pattern_histogram for e in est)
    assert all(type(p) is str for e in est for p in e.pattern_histogram)


def oracle_tag(k: dict, pattern: str, cutoff: float) -> str:
    """The exception rule from its definition: no weight at |j| <= cutoff
    and a zero sum on every shell |j|^2 = M (SHELL) or pair {j, -j}."""
    if any(c and sum(x * x for x in j) <= cutoff * cutoff
           for j, c in k.items()):
        return R.PATTERN_NONE
    sums = {}
    for j, c in k.items():
        if pattern == R.PATTERN_SHELL:
            group = sum(x * x for x in j)
        else:
            group = frozenset((j, tuple(-x for x in j)))
        sums[group] = sums.get(group, 0) + c
    return pattern if all(v == 0 for v in sums.values()) else R.PATTERN_NONE


def test_matrix_classifier_matches_definitions_on_convolution_scan():
    params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-2, alpha=1.0, jmax=2)
    modes, K, complete, nodes = helpers.envelope_candidates(params, q, 1e-2)
    # one sign of each pair +-k: the first nonzero exponent is positive
    assert complete and K.shape == (4212, 13) and nodes == 22614
    # the rows in the order the search emits them
    assert hashlib.sha256(K.tobytes()).hexdigest() == \
        "4043b47459bcd4f3fb0d44017308b754d0b0926dfd994e3f0e83bc953923ce9c"
    first = K[np.arange(len(K)), np.argmax(K != 0, axis=1)]
    assert np.all(first > 0)
    # the columns, and with the other signs the rows in lexicographic
    # order, as the two-sign list-building search gave them
    assert modes == [(-2, 0), (0, -2), (0, 2), (2, 0), (-1, -1), (-1, 1),
                     (1, -1), (1, 1), (-1, 0), (0, -1), (0, 1), (1, 0), (0, 0)]
    K = np.unique(np.concatenate([K, -K]), axis=0)
    assert K.dtype == np.int8 and len(K) == 8424
    assert hashlib.sha256(K.tobytes()).hexdigest() == \
        "082cf6869bfb6ae61b38207dc117c2f0845805baaba52327719f1dcea1c4f68b"
    shell = {"N": 2, "alpha": 1.0, "m_decay": 2.0}
    cutoff = 2 ** math.sqrt(0.5)
    rules = [(R.PATTERN_SHELL, cutoff), (R.PATTERN_PAIR_TAIL, 0.0)]
    fast = helpers.pattern_tags(K, modes, rules)
    counts = {}
    for row, tag in zip(K, fast):
        k = {m: int(c) for m, c in zip(modes, row) if c}
        want = oracle_tag(k, R.PATTERN_SHELL, cutoff)
        if want == R.PATTERN_NONE:
            want = oracle_tag(k, R.PATTERN_PAIR_TAIL, 0.0)
        one = R.classify_exception(k, "shell", shell)
        if one == R.PATTERN_NONE:
            one = R.classify_exception(k, "pair", {"cutoff": 0.0})
        assert tag == one == want, k
        counts[want] = counts.get(want, 0) + 1
    assert counts == {R.PATTERN_NONE: 8298, R.PATTERN_SHELL: 54,
                      R.PATTERN_PAIR_TAIL: 72}


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_search_does_not_depend_on_the_block_size(monkeypatch, chunk):
    monkeypatch.setattr(R, "CHUNK", chunk)
    params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-2, alpha=1.0, jmax=2)
    modes, K, complete, nodes = helpers.envelope_candidates(params, q, 1e-2)
    assert complete and nodes == 22614
    assert hashlib.sha256(K.tobytes()).hexdigest() == \
        "4043b47459bcd4f3fb0d44017308b754d0b0926dfd994e3f0e83bc953923ce9c"
    short = helpers.envelope_candidates(params, replace(q, node_cap=9000),
                                        1e-2)
    assert not short[2] and 9000 < short[3] <= 9000 + 11 * chunk
    assert set(map(bytes, short[1])) <= set(map(bytes, K))


def test_candidates_of_the_benchmark_measure_config():
    # the measure config of criterion 10 and the benchmark is complete at
    # the default budget
    params = {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0}
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-4, alpha=1.0, jmax=4)
    modes, K, complete, nodes = helpers.envelope_candidates(params, q, 1e-4)
    assert complete and K.shape == (145078, 49) and nodes == 1071288
    assert hashlib.sha256(K.tobytes()).hexdigest() == \
        "ec3410ba650e6f9754a218e34fb9c2428ef7331b8ea7a25de71fc4cee1b66060"


@pytest.mark.parametrize("node_cap", [R.DEFAULT_NODE_CAP, 40])
@pytest.mark.parametrize("family,params,r,N,jmax,gammas,seed", [
    ("convolution_d", {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 2}, 1, 1, 2,
     [0.35, 0.1], 21),
    ("nlw_periodic", NLW, 2, 2, 6, [0.05, 0.01], 5)])
def test_measure_scan_searches_once_over_the_box_of_its_draws(
        family, params, r, N, jmax, gammas, seed, node_cap):
    # one search for the whole scan, over the [min, max] of the drawn
    # frequency vectors, within one node_cap budget: one mode per group of
    # modes with equal frequencies in every draw (and equal tail flags)
    q = R.DivisorQuery(None, r=r, N=N, gamma=gammas[0], alpha=1.0,
                       jmax=jmax, node_cap=node_cap)
    est = R.measure_scan(family, params, q, gammas, 30, seed)
    tables = []
    for s in R.sample_seeds(seed, 30):
        smp = R.sample_potential(family, params, s)
        tables.append(convolution_frequencies(1, smp, jmax)
                      if family == "convolution_d"
                      else periodic_nlw_table(smp, jmax)[0])
    modes, tail = R._domain(replace(q, omega=tables[0]))
    W = np.array([t.vector(modes) for t in tables])
    first = [i for i in range(len(modes))
             if not any(tail[i] == tail[j] and np.array_equal(W[:, i], W[:, j])
                        for j in range(i))]
    # the pairs {j, -j} and the zero mode, or every mode alone
    assert len(first) == ((len(modes) + 1) // 2 if family == "convolution_d"
                          else len(modes))
    _, _, complete, nodes = R._dfs([modes[i] for i in first],
                                   W[:, first].min(axis=0).tolist(),
                                   W[:, first].max(axis=0).tolist(),
                                   [tail[i] for i in first], r + 2,
                                   q.threshold, node_cap)
    assert {(e.nodes, e.complete) for e in est} == {(nodes, complete)}
    # convolution_d's pair sums take fewer nodes than the smaller cap
    assert complete == (node_cap == R.DEFAULT_NODE_CAP
                        or family == "convolution_d")


def test_matrix_classifier_matches_definitions_on_random_rows():
    # (0,) stands alone in every group; (5,) has no partner among the columns
    modes = [(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,), (5,)]
    rnd = random.Random(3)
    rows = []
    for _ in range(600):
        row = [0] * len(modes)
        for _ in range(rnd.randint(0, 2)):
            j = rnd.randint(1, 3)
            e = rnd.randint(-2, 2)
            row[modes.index((j,))] += e
            row[modes.index((-j,))] -= e
        if rnd.random() < 0.4:
            row[rnd.randrange(len(modes))] += rnd.choice([-1, 1])
        rows.append(row)
    K = np.array(rows, dtype=np.int64)
    seen = set()
    for pattern, cutoff in [(R.PATTERN_PAIR_TAIL, 0.0),
                            (R.PATTERN_PAIR_TAIL, 1.5),
                            (R.PATTERN_SHELL, 0.0), (R.PATTERN_SHELL, 2.0)]:
        fast = helpers.pattern_tags(K, modes, [(pattern, cutoff)])
        if pattern == R.PATTERN_SHELL:
            model, prm = "shell", {"N": cutoff, "alpha": 1.0, "m_decay": 1.0}
        else:
            model, prm = "pair", {"cutoff": cutoff}
        for row, tag in zip(rows, fast):
            full = dict(zip(modes, row))
            k = {j: c for j, c in full.items() if c}
            want = oracle_tag(k, pattern, cutoff)
            assert tag == want, (row, pattern, cutoff)
            assert R.classify_exception(k, model, prm) == want
            assert R.classify_exception(full, model, prm) == want
            seen.add(want)
    assert seen == {R.PATTERN_NONE, R.PATTERN_PAIR_TAIL, R.PATTERN_SHELL}


def grouped_rows(modes, rnd, count):
    """Random rows over the modes, empty ones included: cancellations
    within a pair or a shell, and now and then one stray unit."""
    groups = {}
    for i, j in enumerate(modes):
        groups.setdefault(sum(c * c for c in j), []).append(i)
        groups.setdefault(min(j, tuple(-c for c in j)), []).append(i)
    groups = [v for v in groups.values() if len(v) > 1]
    rows = np.zeros((count, len(modes)), dtype=np.int64)
    for row in rows[count // 10:]:
        for _ in range(rnd.randint(1, 2)):
            a, b = rnd.sample(rnd.choice(groups), 2)
            e = rnd.randint(-2, 2)
            row[a] += e
            row[b] -= e
        if rnd.random() < 0.3:
            row[rnd.randrange(len(modes))] += rnd.choice([-1, 1])
    return rows


@pytest.mark.parametrize("modes", [
    [(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,), (5,)],
    list(lattice_modes(2, 3)), list(lattice_modes(3, math.sqrt(6)))],
    ids=["1d", "d2", "d3"])
def test_classify_rows_matches_the_reference(modes):
    # the rule as its definition states it against the cutoff folded into
    # the groups; the ball |j| <= cutoff holds a shell |j|^2 = M at the
    # cutoff sqrt(M) even where sqrt(M) rounds below its root, as the
    # reference's ball does one ulp above the cutoff
    rnd = random.Random(11)
    K = grouped_rows(modes, rnd, 400)
    shells = sorted({sum(c * c for c in j) for j in modes})
    cutoffs = [0.0, 2 ** math.sqrt(0.5)] + [math.sqrt(M) for M in shells]
    rule_lists = [[(pattern, c)] for c in cutoffs
                  for pattern in (R.PATTERN_PAIR_TAIL, R.PATTERN_SHELL)]
    rule_lists += [[(R.PATTERN_SHELL, c), (R.PATTERN_PAIR_TAIL, 0.0)]
                   for c in cutoffs]
    seen = set()
    for rules in rule_lists:
        up = [(p, math.nextafter(c, math.inf)) for p, c in rules]
        want = helpers.classify_rows_reference(K, modes, up)
        for rows in (K.astype(np.int8), K.astype(float)):
            assert list(helpers.pattern_tags(rows, modes, rules)) == list(want)
            assert list(helpers.pattern_tags(rows[:0], modes, rules)) == []
        seen.update(want)
    assert seen == {R.PATTERN_NONE, R.PATTERN_PAIR_TAIL, R.PATTERN_SHELL}
    # where sqrt(M)^2 < M the reference at the cutoff itself put the shell
    # outside, and tagged its cancellations as exceptional
    low = [math.sqrt(M) for M in shells if math.sqrt(M) ** 2 < M]
    assert bool(low) == (len(modes[0]) == 3)
    for c in low:
        rules = [(R.PATTERN_SHELL, c)]
        assert np.any(helpers.pattern_tags(K, modes, rules)
                      != helpers.classify_rows_reference(K, modes, rules))


@pytest.mark.parametrize("jmax,n", [(math.sqrt(3), 27), (math.sqrt(6), 81)])
def test_search_domain_keeps_every_mode_of_the_lattice(jmax, n):
    # sqrt(3) and sqrt(6) square to just under 3 and 6: the table's lattice
    # and the search domain read the same ball, so no shell drops out
    table = convolution_frequencies(3, None, jmax)
    q = R.DivisorQuery(table, r=1, N=1, gamma=0.1, alpha=1.0, jmax=jmax)
    modes, tail = R._domain(q)
    assert modes == table.modes() and len(modes) == n
    assert tail == [sum(c * c for c in j) > 1 for j in modes]


def test_ball_of_radius_sqrt_m_holds_the_shell_m_and_not_m_plus_1():
    # sqrt(16388)^2 rounds to 16388 less 3.6e-12: the first shell a ball
    # with 1e-12 of slack on r^2 leaves out
    r = math.sqrt(16388)
    assert r * r + 1e-12 < 16388
    assert in_ball((128, 2), r)
    assert (128, 2) in lattice_modes(2, r)
    table = FrequencyTable({(0, 1): 1.0, (1, 0): 2.0, (128, 2): 3.0})
    q = R.DivisorQuery(table, r=1, N=r, gamma=0.1, alpha=1.0, jmax=r)
    modes, tail = R._domain(q)
    assert modes == table.modes() and tail == [False] * 3
    mono = Monomial({(128, 2): 1}, {(0, 1): 1})
    assert list(poly_of({mono: 1.0}).tail_degrees(r)) == [0]
    for a in range(633):
        for b in range(a, 633):
            M = a * a + b * b
            if 1 <= M <= 400_000:
                assert in_ball((a, b), math.sqrt(M)), (a, b)
                assert not in_ball((a, b), math.sqrt(M - 1)), (a, b)


def test_calibrated_pair_cutoff_holds_the_last_failing_pair():
    # one failing pair, j_cut: its b ln N is not below j_cut, so the pair is
    # inside the cutoff (NONE) and the next one beyond it (PAIR_TAIL)
    for n in range(2, 41):
        for j_cut in range(1, 61):
            omega = {}
            for j in range(1, 63):
                omega[(j,)] = float(j)
                omega[(-j,)] = float(j) + (0.5 if j == j_cut else 1e-12)
            t = FrequencyTable(omega)
            cal = R.calibrate_pair_cutoff(t, 0.1, 1.0, n)
            assert cal.j_cutoff == j_cut
            assert cal.b * math.log(n) >= j_cut
            assert math.nextafter(cal.b, 0.0) * math.log(n) < j_cut
            q = R.DivisorQuery(t, r=1, N=n, gamma=0.1, alpha=1.0, jmax=62)
            rules = R.family_rules("nlw_periodic", {}, q, t, q.gamma)
            K = np.zeros((2, len(t.modes())), dtype=np.int8)
            for row, j in zip(K, (j_cut, j_cut + 1)):
                row[t.modes().index((j,))] = 1
                row[t.modes().index((-j,))] = -1
            assert list(helpers.pattern_tags(K, t.modes(), rules)) == \
                [R.PATTERN_NONE, R.PATTERN_PAIR_TAIL], (n, j_cut)


@pytest.mark.parametrize("block_bytes", [R.SCAN_BLOCK_BYTES, 1 << 10])
@pytest.mark.parametrize("d,jmax", [(1, 2), (2, 1)])
def test_blocked_measure_scan_matches_brute_force_per_sample(
        monkeypatch, block_bytes, d, jmax):
    # one candidate search and one blocked product for all samples against
    # each sample's own exhaustive enumeration (both signs), classified row
    # by row and tallied per gamma
    from bnfsim.spectra import sample_potential, convolution_frequencies
    monkeypatch.setattr(R, "SCAN_BLOCK_BYTES", block_bytes)
    params = {"R": 0.8, "decay": 2.0, "d": d, "kmax": 2}
    grid = [3.0, 0.6, 0.2, 0.05, 1e-6]
    q = R.DivisorQuery(None, r=2, N=1, gamma=grid[0], alpha=1.0, jmax=jmax)
    est = R.measure_scan("convolution_d", params, q, grid, 30, seed=13)
    rules = R.family_rules("convolution_d", params, q, None, grid[0])
    violations = [0] * len(grid)
    hists = [{} for _ in grid]
    for s in R.sample_seeds(13, 30):
        t = convolution_frequencies(
            d, sample_potential("convolution_d", params, s), jmax)
        hits = helpers.enumerate_brute_force(replace(q, omega=t)).hits
        for gi, g in enumerate(grid):
            kept = [h for h in hits if abs(h.value) < g]
            modes = sorted({j for h in kept for j in h.k})
            K = np.array([[h.k.get(j, 0) for j in modes] for h in kept],
                         dtype=np.int64).reshape(len(kept), len(modes))
            tags = helpers.pattern_tags(K, modes, rules).tolist()
            for tag in tags:
                hists[gi][tag] = hists[gi].get(tag, 0) + 1
            violations[gi] += R.PATTERN_NONE in tags
    assert [e.violations for e in est] == violations
    assert [e.pattern_histogram for e in est] == hists
    assert all(e.complete for e in est)
    # the grid sees every tag the rules give and the fractions fall
    assert 0 < violations[-2] < violations[0]
    seen = {tag for h in hists for tag in h}
    assert seen == ({R.PATTERN_NONE, R.PATTERN_PAIR_TAIL, R.PATTERN_SHELL}
                    if d == 1 else {R.PATTERN_NONE, R.PATTERN_PAIR_TAIL})


def test_one_pass_accept_step_matches_one_call_per_threshold():
    # random int8 rows (|k| <= order) against one planted entry per column,
    # exactly at, within and just beyond the fsum band of every threshold
    # (a duplicate included), on both signs: one `_below` pass, every row
    # its own group row, must give each threshold's entries as the
    # single-threshold step gives them
    from bnfsim.modes import lattice_modes
    rng = np.random.default_rng(11)
    modes, order = lattice_modes(1, 4), 6
    thrs = [0.3, 0.1, 0.1, 0.02, 1e-3]
    offsets = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]  # in units of the band
    ulps = [-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0]  # in units of eps max|w|
    plants = [(thr, sign, off, 0.0) for thr in thrs for sign in (-1, 1)
              for off in offsets] + \
        [(thr, sign, 0.0, ulp) for thr in thrs for sign in (-1, 1)
         for ulp in ulps for _ in range(3)]
    n, P = len(modes), len(plants)
    K = np.zeros((40 + P + 300, n), dtype=np.int8)
    # pair cancellations inside and beyond the SHELL cutoff, so that the
    # hits carry every tag of the rules below
    K[:20, [modes.index((1,)), modes.index((-1,))]] = [1, -1]
    K[20:40, [modes.index((3,)), modes.index((-3,))]] = [2, -2]
    for i in range(40, len(K)):
        if i < 40 + P:  # a planted row: order terms, cancelling
            K[i, rng.choice(n, order, replace=False)] = \
                rng.choice([-1, 1], order)
        else:
            for c in rng.integers(0, n, size=rng.integers(1, order + 1)):
                K[i, c] += rng.choice([-1, 1])
    W = rng.uniform(50.0, 150.0, size=(n, P))
    W *= rng.uniform(0.5, 4.0, size=P)  # per-column scales
    eps = np.finfo(float).eps
    for s, (thr, sign, off, ulp) in enumerate(plants):
        i = 40 + s
        c = np.flatnonzero(K[i])[0]
        for _ in range(2):  # band from the column as planted
            top = eps * np.abs(W[:, s]).max()
            target = sign * (thr + (2 * (n + 1) * order * off + ulp) * top)
            rest = math.fsum(W[m, s] * K[i, m] for m in range(n) if m != c)
            W[c, s] = (target - rest) / K[i, c]
    # the product summed left to right, so no BLAS kernel picks the data
    div = np.zeros((len(K), P))
    for m in range(n):
        div += K[:, m, None] * W[m]
    want = [helpers.below_reference(div, K, W, thr, order) for thr in thrs]
    naive = [np.nonzero(np.abs(div) < thr) for thr in thrs]
    got = helpers.below_rows(div, K, W, thrs, order)
    assert len(got) == len(thrs)
    for (ri, si), (wr, ws) in zip(got, want):
        assert np.array_equal(ri, wr) and np.array_equal(si, ws)
    # the group entries are the hits clear of the band, the member entries
    # the hits the fsum decides within it
    band = R._band(W, order)
    split = R._below(np.abs(div), K, np.arange(len(K)), W, thrs, order)
    for ((g, gs), (m, ms)), thr in zip(split, thrs):
        assert np.all(np.abs(div[g, gs]) < thr - band[gs])
        assert np.all(np.abs(np.abs(div[m, ms]) - thr) <= band[ms])
    assert all(len(m) for _, (m, _) in split)
    # the data reach the fsum recheck: at every threshold a plain product
    # decision differs
    assert all(len(a) != len(b) or np.any(a != b)
               for (a, _), (b, _) in zip(naive, want))
    assert all(len(ri) for ri, _ in want)
    # tags of the live rows alone equal the whole block's at those rows
    rules = [(R.PATTERN_SHELL, 2.0), (R.PATTERN_PAIR_TAIL, 0.0)]
    live = np.unique(np.concatenate([ri for ri, _ in got]))
    tags = helpers.pattern_tags(K[live], modes, rules)
    assert np.array_equal(tags, helpers.pattern_tags(K, modes, rules)[live])
    assert set(tags) == {R.PATTERN_NONE, R.PATTERN_SHELL,
                         R.PATTERN_PAIR_TAIL}


# -- shared divisor rows in the measure tally ------------------------------


def tally_both(K, modes, W, thrs, order, rule_sets, rule_of):
    """`tally_shared_rows` and the row-by-row reference on the same input:
    their violations and histograms must be equal; `tally_shared_rows`'s
    (violates, histograms, decided)."""
    out = []
    for tally in (helpers.tally_shared_rows, helpers.tally_reference):
        violates = np.zeros(rule_of.shape, dtype=bool)
        hist = [Counter() for _ in thrs]
        decided = tally(K, modes, W, thrs, order, rule_sets, rule_of,
                        violates, hist)
        out.append((violates, [dict(h) for h in hist], decided))
    (v, h, decided), (rv, rh, _) = out
    assert np.array_equal(v, rv) and h == rh
    return v, h, decided


BENCH = {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0}
BENCH_GAMMAS = [1e-4, 1e-5, 1e-6, 1e-7]


@pytest.fixture(scope="module")
def benchmark_rows():
    """The benchmark measure config's envelope candidates and the
    frequencies its seed-0 run draws, over the same modes."""
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-4, alpha=1.0, jmax=4)
    modes, K, _, _ = helpers.envelope_candidates(BENCH, q, 1e-4)
    W = np.column_stack([convolution_frequencies(
        2, R.sample_potential("convolution_d", BENCH, s), 4).vector(modes)
        for s in R.sample_seeds(stream_seed(0, "monte_carlo"), 100)])
    return q, modes, K, W


@pytest.mark.parametrize("block_bytes", [R.SCAN_BLOCK_BYTES, 1 << 10])
def test_tally_of_shared_rows_matches_the_reference_on_the_benchmark(
        monkeypatch, benchmark_rows, block_bytes):
    # omega_k = omega_{-k} in every draw, so the rows that agree on their
    # pair sums share one divisor decision, with the hits and the tags of
    # deciding every row on its own
    monkeypatch.setattr(R, "SCAN_BLOCK_BYTES", block_bytes)
    q, modes, K, W = benchmark_rows
    if block_bytes == 1 << 10:
        K = K[::100]  # blocks of one row: a sample of the rows
    thrs = [g / q.N ** q.alpha for g in BENCH_GAMMAS]
    rules = tuple(R.family_rules("convolution_d", BENCH, q, None, 1e-4))
    rule_of = np.zeros((len(thrs), W.shape[1]), dtype=int)
    v, h, decided = tally_both(K, modes, W, thrs, q.r + 2, [rules], rule_of)
    assert decided == helpers.distinct_divisor_rows(K, W)
    if block_bytes != 1 << 10:
        # the seed-0 measure.csv of the benchmark
        assert v.sum(axis=1).tolist() == [75, 16, 1, 0]
        assert h[0] == {R.PATTERN_NONE: 10000, R.PATTERN_PAIR_TAIL: 36000,
                        R.PATTERN_SHELL: 19424}
        assert decided * 5 <= len(K)
    else:
        assert decided == len(K) and set(h[0]) == {
            R.PATTERN_NONE, R.PATTERN_PAIR_TAIL, R.PATTERN_SHELL}


def planted_twins():
    """Rows over the modes |j| <= 2 of the 2-d lattice, frequencies over 8
    samples, thresholds and rules, with planted twins: rows of equal sums
    over the modes of equal frequencies.

    The frequencies are even in j, and the four modes |j| = 1 are equal.
    (2, 0) and (-2, 0) differ in the last bit in one sample, so they are
    two groups.  Rows 0 and 1 are twins whose `math.fsum` rechecks straddle
    a threshold: 3 w_j - w_-j rounds apart from 2 w_j."""
    from bnfsim.modes import lattice_modes
    rng = np.random.default_rng(23)
    modes = lattice_modes(2, 2)
    at = {m: i for i, m in enumerate(modes)}
    n, S, order = len(modes), 8, 5

    def neg(m):
        return tuple(-c for c in m)

    W = rng.uniform(1.0, 3.0, size=(n, S))
    for m in modes:
        if m < neg(m):
            W[at[neg(m)]] = W[at[m]]
    for m in [(-1, 0), (0, -1), (0, 1)]:
        W[at[m]] = W[at[(1, 0)]]
    W[at[(-2, 0)], 3] = np.nextafter(W[at[(2, 0)], 3], np.inf)
    # the straddling twins, on column 5: w_0 leaves them near 0.05
    j, s = at[(1, 1)], 5
    a = b = 0.0
    while a == b:
        w = rng.uniform(1.0, 3.0)
        W[j, s] = W[at[(-1, -1)], s] = w
        W[at[(0, 0)], s] = 2 * w - 0.05
        a = math.fsum([3.0 * w, -1.0 * w, -W[at[(0, 0)], s]])
        b = math.fsum([2.0 * w, -W[at[(0, 0)], s]])
    thrs = [0.3, max(abs(a), abs(b)), 1e-3]
    rows = []

    def row(*pairs):
        r = [0] * n
        for m, e in pairs:
            r[at[m]] += e
        rows.append(r)

    row(((1, 1), 3), ((-1, -1), -1), ((0, 0), -1))
    row(((1, 1), 2), ((0, 0), -1))
    # cancellations inside and beyond the SHELL cutoff 1.2 share the zero
    # key but not a tag: NONE, PAIR_TAIL, SHELL, and a pair of two groups
    row(((1, 0), 1), ((0, 1), -1))
    row(((1, 0), 1), ((-1, 0), -1))
    row(((1, 1), 1), ((-1, -1), -1))
    row(((2, 0), 1), ((-2, 0), -1))
    groups = [[(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 1), (-1, -1)],
              [(1, -1), (-1, 1)], [(0, 2), (0, -2)], [(2, 0), (-2, 0)]]
    for _ in range(80):
        # a base of |k| <= 1 and splits of one group sum over its modes
        base = [] if rng.random() < 0.3 else \
            [(modes[rng.integers(n)], int(rng.choice([-1, 1])))]
        g = groups[rng.integers(len(groups))]
        total = int(rng.integers(-2, 3))
        for _ in range(3):
            while True:
                split = rng.integers(-3, 4, size=len(g))
                split[-1] = total - split[:-1].sum()
                if 0 < np.abs(split).sum() <= 4:
                    break
            row(*base, *zip(g, split.tolist()))
    for _ in range(400):
        r = [0] * n
        for c in rng.integers(0, n, size=rng.integers(1, order + 1)):
            r[c] += int(rng.choice([-1, 1]))
        if any(r):
            rows.append(r)
    K = np.array(rows, dtype=np.int8)
    assert np.abs(K).sum(axis=1).max() <= order
    rule_sets = [((R.PATTERN_SHELL, 1.2), (R.PATTERN_PAIR_TAIL, 0.0)),
                 ((R.PATTERN_PAIR_TAIL, 1.5),)]
    rule_of = rng.integers(0, 2, size=(len(thrs), S))
    return K, modes, W, thrs, order, rule_sets, rule_of


@pytest.mark.parametrize("block_bytes", [R.SCAN_BLOCK_BYTES, 1 << 10])
@pytest.mark.parametrize("case", ["twins", "no rows", "one mode",
                                  "one mode, no rows"])
def test_tally_of_shared_rows_matches_the_reference(monkeypatch, case,
                                                    block_bytes):
    monkeypatch.setattr(R, "SCAN_BLOCK_BYTES", block_bytes)
    K, modes, W, thrs, order, rule_sets, rule_of = planted_twins()
    if case.startswith("one mode"):
        modes, W = [(1,)], np.linspace(-0.02, 0.03, 8)[None, :]
        K = np.array([[1], [2], [-1], [3], [5], [4]], dtype=np.int8)
        rule_sets = [((R.PATTERN_PAIR_TAIL, 0.0),)]
        rule_of = np.zeros_like(rule_of)
    if case.endswith("no rows"):
        K = K[:0]
    v, h, decided = tally_both(K, modes, W, thrs, order, rule_sets, rule_of)
    assert decided == helpers.distinct_divisor_rows(K, W)
    if not len(K):
        assert decided == 0 and not v.any() and h == [{}, {}, {}]
    elif case == "twins":
        # the planted twins: shared keys, tags that differ, and the two
        # rows of one key that one threshold parts
        assert decided < len(K)
        assert all(set(t) == {R.PATTERN_NONE, R.PATTERN_PAIR_TAIL,
                              R.PATTERN_SHELL} for t in h)
        ri, _ = helpers.below_reference(K[:2] @ W[:, 5:6], K[:2], W[:, 5:6],
                                        thrs[1], order)
        assert ri.tolist() in ([0], [1])
    else:
        assert decided == len(K) and v.any()


# -- the group route against the mode-level reference ----------------------


def view(e):
    return e.violations, e.pattern_histogram, e.fraction, e.complete


@pytest.mark.parametrize("family,params,r,N,jmax,gammas,samples,seed", [
    ("convolution_d", BENCH, 3, 2, 4, BENCH_GAMMAS, 100,
     stream_seed(0, "monte_carlo")),
    ("convolution_d", BENCH, 3, 2, 4, BENCH_GAMMAS, 100,
     stream_seed(7, "monte_carlo")),
    ("convolution_d", {"R": 0.8, "decay": 2.0, "d": 1, "kmax": 3}, 2, 1, 3,
     [20.0, 0.5, 1e-2, 1e-6], 40, 9),
    ("convolution_d", {"R": 1.0, "kmax": 2, "d": 3, "decay": 2.0}, 1, 1,
     math.sqrt(6), [0.05, 0.01, 1e-3], 30, 3),
    ("nls_cosine", {"R": 0.5, "sigma": 0.4, "kmax": 9}, 2, 2, 6,
     [0.05, 0.01, 0.001], 30, 5),
    ("nlw_periodic", NLW, 2, 2, 6, [0.05, 0.01, 0.001], 30, 5)],
    ids=["benchmark-0", "benchmark-7", "d1", "d3", "nls_cosine",
         "nlw_periodic"])
def test_group_scan_matches_the_mode_level_reference(
        monkeypatch, family, params, r, N, jmax, gammas, samples, seed):
    # the search over group sums, split into member rows, against the
    # search over the modes with its shared-row tally, on the same draws
    q = R.DivisorQuery(None, r=r, N=N, gamma=gammas[0], alpha=1.0,
                       jmax=jmax)
    est = R.measure_scan(family, params, q, gammas, samples, seed)
    monkeypatch.setattr(R, "_scan", helpers.scan_mode_level)
    ref = R.measure_scan(family, params, q, gammas, samples, seed)
    assert [view(e) for e in est] == [view(e) for e in ref]
    assert all(e.complete for e in est)
    assert len({tag for e in est for tag in e.pattern_histogram}) > 1 or \
        family == "nls_cosine"
    if family == "convolution_d":
        # the pairs {k, -k} halve the searched modes
        assert est[0].nodes * 5 < ref[0].nodes
        assert est[0].rows * 5 < ref[0].rows
    else:
        # every group is one mode: the same search
        assert (est[0].nodes, est[0].rows) == (ref[0].nodes, ref[0].rows)


def test_group_scan_matches_the_mode_level_reference_on_planted_twins(
        monkeypatch):
    # the planted twins have one group sum and per-mode fsums that
    # straddle thrs[1] in column 5: the group route decides each member in
    # the band on its own row, so exactly one of them is a member hit
    # there, as in the reference; a group of four modes and two modes one
    # bit apart
    K, modes, W, thrs, order, rule_sets, rule_of = planted_twins()
    twins = {K[i].tobytes() for i in (0, 1)} | \
        {(-K[i]).tobytes() for i in (0, 1)}
    seen = []
    below = R._below

    def spy(div, Km, *args):
        found = below(div, Km, *args)
        _, (mi, ms) = found[1]
        seen.extend(Km[i].tobytes() for i in mi[ms == 5])
        return found
    out = []
    for scan in (R._scan, helpers.scan_mode_level):
        violates = np.zeros(rule_of.shape, dtype=bool)
        hist = [Counter() for _ in thrs]
        with monkeypatch.context() as m:
            if scan is R._scan:
                m.setattr(R, "_below", spy)
            stats = helpers.tally_blocks(
                scan(modes, W, [False] * len(modes), thrs, order,
                     R.DEFAULT_NODE_CAP, [R.compile_rules(modes, rules)
                                          for rules in rule_sets]),
                modes, rule_sets, rule_of, violates, hist)
        out.append((violates, [dict(h) for h in hist], stats))
    (v, h, (complete, nodes, _)), (rv, rh, (rcomplete, rnodes, _)) = out
    assert np.array_equal(v, rv) and h == rh and v.any()
    assert complete and rcomplete and nodes < rnodes
    assert len([k for k in seen if k in twins]) == 1


def straddling_group_row():
    """Modes -3..3 over 30 samples, omega_j = omega_-j, the threshold and the
    five members of the group row 2 on the pair {-1, 1} less mode 0, in
    canonical sign: its divisor 2 w_1 - w_0 is 0.01 in column 0, clear of
    the band, and the threshold itself in column 1, where the members'
    fsums straddle it: 3 w_1 - w_1 rounds apart from 2 w_1."""
    rng = np.random.default_rng(5)
    modes = [(j,) for j in range(-3, 4)]
    W = np.array([[0.0, 1.0, 4.0, 9.0][abs(j)] for (j,) in modes])[:, None] \
        + rng.uniform(-0.1, 0.1, size=(4, 30))[[3, 2, 1, 0, 1, 2, 3]]
    W[3] = 2 * W[4] - np.r_[0.01, 0.05, rng.uniform(0.1, 0.5, size=28)]
    a = b = 0.0
    while a == b:
        W[2, 1] = W[4, 1] = w = rng.uniform(0.9, 1.1)
        W[3, 1] = 2 * w - 0.05
        a, b = math.fsum([3 * w, -w, -W[3, 1]]), math.fsum([2 * w, -W[3, 1]])
    rows = np.zeros((5, 7), dtype=np.int8)
    rows[:, [2, 3, 4]] = [[v, -1, 2 - v] for v in range(-1, 4)]
    return modes, W, max(a, b), {canonical(row) for row in rows}


def canonical(row) -> bytes:
    return max(row.tobytes(), (-row).tobytes())


def test_group_row_split_by_the_band_matches_the_tally_reference(
        monkeypatch):
    # a group row of five members: in column 0 one group entry stands for
    # all of them; in column 1 each is decided on its own row, and some,
    # not all, are hits; the tally of histograms against the row-by-row
    # reference on the same draws
    modes, W, gamma, members = straddling_group_row()
    params = {"R": 1.0, "kmax": 3, "d": 1, "decay": 2.0}
    monkeypatch.setattr(R, "convolution_columns", lambda *args: (modes, W))
    below, seen = R._below, ([], [])

    def spy(div, Km, src, *args):
        found = below(div, Km, src, *args)
        (g, s), (m, ms) = found[0]
        seen[0].extend(map(canonical, Km[np.isin(src, g[s == 0])]))
        seen[1].extend(map(canonical, Km[m[ms == 1]]))
        return found
    monkeypatch.setattr(R, "_below", spy)
    q = R.DivisorQuery(None, r=3, N=1, gamma=gamma, alpha=1.0, jmax=3)
    est = R.measure_scan("convolution_d", params, q, [gamma, 0.02], 30, 0)
    assert members <= set(seen[0]) and 0 < len(members & set(seen[1])) < 5
    thrs, order = [gamma, 0.02], q.r + 2
    tail = [abs(j) > 1 for (j,) in modes]
    found, K, complete, _ = R._dfs(modes, W.min(axis=1).tolist(),
                                   W.max(axis=1).tolist(), tail, order,
                                   gamma, q.node_cap)
    K = K[:, [found.index(m) for m in modes]]
    violates, hist = np.zeros((2, 30), dtype=bool), [{}, {}]
    rules = tuple(R.family_rules("convolution_d", params, q, None, gamma))
    helpers.tally_reference(K, modes, W, thrs, order, [rules],
                            np.zeros((2, 30), dtype=int), violates, hist)
    assert [e.violations for e in est] == violates.sum(axis=1).tolist()
    assert [e.pattern_histogram for e in est] == hist
    assert complete and all(e.complete for e in est) and violates[0, :2].all()


@pytest.mark.parametrize("cap", [1, 7, 64])
def test_histograms_do_not_depend_on_the_member_piece_budget(monkeypatch,
                                                             cap):
    # a block's members in pieces of at most cap rows (or of one row's
    # splits of a mode): end to end they are the rows of the default
    # budget's pieces, in order, and the estimates do not move; the scan
    # lists every live row, as scan-resonances does, so that its members
    # reach `_members`
    params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-2, alpha=1.0, jmax=2)
    gammas = [1e-2, 1e-3, 1e-4]
    counted = R.measure_scan("convolution_d", params, q, gammas, 30, seed=5)
    scan = R._scan
    monkeypatch.setattr(R, "_scan", lambda *args: scan(*args, count=False))
    whole = R.measure_scan("convolution_d", params, q, gammas, 30, seed=5)
    assert [view(e) for e in whole] == [view(e) for e in counted]
    members, sizes, default = R._members, [], []

    def pieces(S, groups, tail, order, budget):
        out = list(members(S, groups, tail, order, cap))
        one = list(members(S, groups, tail, order, budget))
        for i in (0, 1):
            assert [r.tobytes() for p in out for r in p[i]] == \
                [r.tobytes() for p in one for r in p[i]]
        sizes.extend(len(K) for K, _ in out)
        default.extend(len(K) for K, _ in one)
        return iter(out)
    monkeypatch.setattr(R, "_members", pieces)
    est = R.measure_scan("convolution_d", params, q, gammas, 30, seed=5)
    assert [view(e) for e in est] == [view(e) for e in whole]
    assert sum(sizes) == sum(default) and len(sizes) > len(default)
    assert max(sizes) <= max(cap, q.r + 3) < max(default)
    assert sum(whole[0].pattern_histogram.values())


def test_measure_scan_past_its_node_cap_says_so():
    # a group search stopped by its budget: every estimate says so, the
    # count stops at most one block's children past the cap, and the
    # hits are some of those of the complete scan
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-4, alpha=1.0, jmax=4,
                       node_cap=10_000)
    est = R.measure_scan("convolution_d", BENCH, q, BENCH_GAMMAS, 100,
                         stream_seed(0, "monte_carlo"))
    assert not any(e.complete for e in est)
    assert {e.nodes for e in est} == {est[0].nodes}
    assert 10_000 < est[0].nodes <= 10_000 + (2 * (q.r + 2) + 1) * R.CHUNK
    assert all(v <= full for v, full in
               zip([e.violations for e in est], [75, 16, 1, 0]))


def test_deep_lattice_measure_scan_completes_at_the_default_cap():
    # convolution_d d=2 jmax=8: the search over the modes stops short at
    # the default cap (2,000,321 nodes) and completes at node_cap 4e7
    # (8,246,510 nodes), with these histograms; the pair sums need far
    # fewer nodes
    params = {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0}
    q = R.DivisorQuery(None, r=3, N=2, gamma=1e-4, alpha=1.0, jmax=8)
    est = R.measure_scan("convolution_d", params, q, [1e-4, 1e-5], 30,
                         stream_seed(0, "monte_carlo"))
    assert q.node_cap == R.DEFAULT_NODE_CAP
    assert all(e.complete for e in est) and est[0].nodes < q.node_cap
    assert [e.violations for e in est] == [30, 30]
    assert [e.pattern_histogram for e in est] == [
        {R.PATTERN_NONE: 220368, R.PATTERN_SHELL: 163600,
         R.PATTERN_PAIR_TAIL: 46320},
        {R.PATTERN_NONE: 217368, R.PATTERN_SHELL: 163560,
         R.PATTERN_PAIR_TAIL: 46320}]


# -- scan-resonances on the group route -----------------------------------


def lattice_query(d, potential, jmax, r, N, gamma):
    """A d-torus table, flat or under the convolution_d draw of seed 3, and
    the convolution_d rules (SHELL, then PAIR_TAIL) to tag its hits."""
    params = {"R": 1.0, "kmax": 4 if d == 2 else 2, "d": d, "decay": 2.0}
    table = convolution_frequencies(d, R.sample_potential(
        "convolution_d", params, 3) if potential else None, jmax)
    q = R.DivisorQuery(table, r=r, N=N, gamma=gamma, alpha=1.0, jmax=jmax,
                       node_cap=10 ** 7)
    return q, R.family_rules("convolution_d", params, q, table, gamma)


def readme_query(tmp_path):
    """The README config's query and rules as scan-resonances builds them,
    at gamma 10, where it has hits."""
    from bnfsim import cli
    readme = Path(__file__).resolve().parent.parent / "README.md"
    config = [b for b in re.findall(r"```\n(.*?)```", readme.read_text(),
                                    re.S) if b.startswith("model")]
    (tmp_path / "run.cfg").write_text(config[0])
    cfg = cli.load_config(str(tmp_path / "run.cfg"))
    cfg["gamma"] = 10.0
    system, prm = cli.build_system(cfg, cfg["seed"]), cli.resolved_params(cfg)
    q = R.DivisorQuery(system.table, r=prm.r_star, N=prm.N, gamma=prm.gamma,
                       alpha=prm.alpha, jmax=cfg["jmax"], node_cap=10 ** 7)
    return q, R.family_rules(cfg["potential.family"],
                             cfg["potential.params"], q, system.table,
                             q.gamma)


def nlw_query(tmp_path):
    """nlw_periodic with its b calibrated on the table: a cutoff of 1."""
    table = periodic_nlw_table(R.sample_potential("nlw_periodic", NLW, 5),
                               6)[0]
    q = R.DivisorQuery(table, r=2, N=3, gamma=0.01, alpha=1.0, jmax=6)
    return q, R.family_rules("nlw_periodic", {}, q, table, q.gamma)


ENUMERATION_CASES = {
    # the nls_dd d=2 config of scan-resonances at jmax 6: the search over
    # the modes takes 2,083,172 nodes, past the default node_cap
    "dd2-jmax6": (lambda _: lattice_query(2, True, 6, 3, 2, 1e-4), 6440),
    # no potential: whole shells are the groups
    "flat-d2-jmax2": (lambda _: lattice_query(2, False, 2, 3, 2, 1e-4), 7496),
    "d3-jmax2": (lambda _: lattice_query(3, True, 2, 2, 1, 1e-2), 1376),
    "flat-d3-jmax2": (lambda _: lattice_query(3, False, 2, 2, 1, 1e-2),
                      18644),
    "readme": (readme_query, 70),
    "nlw_periodic": (nlw_query, 64)}


@pytest.mark.parametrize("case", list(ENUMERATION_CASES))
def test_enumeration_matches_the_mode_level_reference(tmp_path, case):
    # the group search, split into member rows and tagged a block at a
    # time, against the search over the modes with one accept step and one
    # tag pass: the same hits, divisors to the bit and tags, the same
    # complete flag, and no more nodes
    build, count = ENUMERATION_CASES[case]
    q, rules = build(tmp_path)
    got = R.enumerate_near_resonances(q, rules)
    ref = helpers.enumerate_mode_level(q, rules)
    assert [(h.key(), h.value.hex(), h.pattern) for h in got.hits] == \
        [(h.key(), h.value.hex(), h.pattern) for h in ref.hits]
    assert got.complete == ref.complete and got.complete
    assert got.nodes <= ref.nodes and len(got.hits) == count
    tags = {h.pattern for h in got.hits}
    assert len(tags) > 1 or case == "readme"
    if case == "dd2-jmax6":
        assert (got.nodes, ref.nodes) == (36008, 2083172)


# -- work done once per scan ---------------------------------------------


@pytest.mark.parametrize("rows", [0, 400])
@pytest.mark.parametrize("words", [1, 2, 3])
def test_shared_rows_match_the_unique_rows(words, rows):
    # whole-float words as the tally packs them, up to 2^52 in size, drawn
    # from a few values so that rows repeat and agree on some words only
    rng = np.random.default_rng(words)
    values = np.array([-2.0 ** 52 + 1, -7.0, 0.0, 1.0, 2.0 ** 51 + 3])
    key = values[rng.integers(0, len(values), size=(rows, words))]
    first, share = helpers.shared_rows(key)
    _, idx, inv = np.unique(key, axis=0, return_index=True,
                            return_inverse=True)
    # one representative per distinct row, and it is its group's first row
    assert len(first) == len(idx) and len(share) == rows
    assert np.array_equal(first[share], idx[inv.ravel()])
    assert np.array_equal(key[first[share]], key)
    if rows:
        assert 1 < len(first) < rows


@pytest.mark.parametrize("family,params,r,N,jmax,gammas", [
    ("convolution_d", {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}, 3, 2, 2,
     [1e-2, 1e-3]),
    ("nlw_periodic", NLW, 2, 2, 6, [0.05, 0.01])])
def test_measure_scan_builds_each_group_indicator_once(
        monkeypatch, family, params, r, N, jmax, gammas):
    # the mode -> group indicators are built once per rule of each rule
    # set, whatever the number of row blocks and member pieces;
    # nlw_periodic calibrates b per draw, so its rule sets differ from
    # sample to sample
    monkeypatch.setattr(R, "SCAN_BLOCK_BYTES", 1 << 10)
    calls = Counter()
    rule_sets = set()
    family_rules = R.family_rules

    def counted(name, fn):
        def wrap(*args):
            calls[name] += 1
            return fn(*args)
        return wrap

    def recorded(*args):
        rules = family_rules(*args)
        rule_sets.add(tuple(rules))
        return rules

    monkeypatch.setattr(R, "family_rules", recorded)
    monkeypatch.setattr(R, "mode_groups", counted("groups", R.mode_groups))
    monkeypatch.setattr(R, "_below", counted("pieces", R._below))
    q = R.DivisorQuery(None, r=r, N=N, gamma=gammas[0], alpha=1.0,
                       jmax=jmax)
    est = R.measure_scan(family, params, q, gammas, 30, seed=5)
    assert calls["pieces"] > 10 and sum(est[0].pattern_histogram.values())
    assert (len(rule_sets) > 1) == (family == "nlw_periodic")
    assert calls["groups"] == sum(len(rules) for rules in rule_sets)


@pytest.mark.parametrize("family,params,jmax,calibrated", [
    ("convolution_d", {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}, 2, False),
    ("nls_cosine", {"R": 0.5, "sigma": 0.4, "kmax": 9}, 6, False),
    ("nlw_periodic", dict(NLW, b=3.0), 6, False),
    ("nlw_periodic", NLW, 6, True)])
def test_measure_scan_reads_the_family_rules_once_per_gamma(
        monkeypatch, family, params, jmax, calibrated):
    # rules that do not read the table are asked for once per gamma; a
    # calibrated nlw_periodic asks once per kept draw and gamma, and the
    # draws of samples 3 and 17 have no spectrum here
    calls = []
    family_rules = R.family_rules
    bad = set(R.sample_seeds(5, 30)[i] for i in (3, 17))
    solve = R.periodic_nlw_table

    def counted(*args):
        calls.append(args)
        return family_rules(*args)

    def flaky(sample, *args, **kwargs):
        if sample.seed in bad:
            raise SpectralError("no spectrum for this draw")
        return solve(sample, *args, **kwargs)
    monkeypatch.setattr(R, "family_rules", counted)
    monkeypatch.setattr(R, "periodic_nlw_table", flaky)
    q = R.DivisorQuery(None, r=2, N=2, gamma=0.05, alpha=1.0, jmax=jmax)
    gammas = [0.05, 0.01, 0.001]
    est = R.measure_scan(family, params, q, gammas, 30, seed=5)
    kept = 30 - est[0].skipped
    assert kept == (28 if family == "nlw_periodic" else 30)
    assert len(calls) == len(gammas) * (kept if calibrated else 1)
    assert len({id(args[3]) for args in calls}) == (kept if calibrated
                                                    else 1)


# -- the tag histograms of group rows, counted --------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(3, 7))
def test_split_table_matches_listing(m, order):
    # N(m, t, c): the splits of a group sum t over m modes at half-cost c
    assert np.array_equal(R._split_counts(m, order),
                          helpers.split_counts_reference(m, order))


@st.composite
def counted_rows(draw):
    """Search groups of 1 to 6 modes (tail or not), rule sets whose rules
    see each group wholly inside or outside the cutoff, and as part of a
    union of search groups or as a union of rule groups of its own, and
    group rows within the budgets: the zero row, and rows of up to order
    unit steps, so some sit at the order or tail budget's edge."""
    order = draw(st.integers(3, 5))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    G, n = len(sizes), sum(sizes)
    on_tail = draw(st.lists(st.booleans(), min_size=G, max_size=G))
    ends = np.cumsum(sizes)
    groups = [np.arange(e - m, e) for e, m in zip(ends, sizes)]
    tail = [on_tail[g] for g, m in enumerate(sizes) for _ in range(m)]
    # one partition of each group into the rule groups within it
    blocks = [draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
              for m in sizes]
    compiled = []
    for _ in range(draw(st.integers(1, 2))):
        rules = []
        for _ in range(draw(st.integers(0, 2))):
            inside = draw(st.lists(st.booleans(), min_size=G, max_size=G))
            fine = draw(st.lists(st.booleans(), min_size=G, max_size=G))
            union = draw(st.lists(st.integers(0, G - 1), min_size=G,
                                  max_size=G))
            label = np.concatenate([
                n + 3 * g + np.array(b) if fine[g] else np.full(m, union[g])
                for g, (m, b) in enumerate(zip(sizes, blocks))])
            rules.append((draw(st.sampled_from([1, 2])),
                          np.repeat(inside, sizes),
                          np.unique(label, return_inverse=True)[1]))
        compiled.append(rules)
    S = [np.zeros(G, dtype=np.int8)]
    for steps in draw(st.lists(st.lists(st.tuples(
            st.integers(0, G - 1), st.sampled_from([-1, 1])),
            max_size=order), max_size=6)):
        t = np.zeros(G, dtype=np.int8)
        for g, e in steps:
            t[g] += e
            if np.abs(t[on_tail]).sum() > poly.TAIL_BUDGET:
                t[g] -= e
        if t.any():
            S.append(t)
    return np.array(S), groups, tail, compiled, order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counted_rows())
def test_counted_histograms_match_the_listed_members(case):
    # each group row's tag histogram, per rule set, counted against its
    # members listed and tagged one by one; the zero row of one sign
    S, groups, tail, compiled, order = case
    tally = R._TagCounter(groups, tail, compiled, order)
    assert not tally.bad
    assert np.array_equal(tally(S), helpers.listed_histograms(
        S, groups, tail, compiled, order))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counted_rows(), st.integers(0, 2 ** 32 - 1))
def test_sparse_rule_tags_match_the_dense_product(case, seed):
    # apply_rules sums each row's few entries over the rule groups; the
    # dense product over every mode gives the same codes
    S, groups, tail, compiled, order = case
    K = np.concatenate([Km for Km, _ in R._members(S, groups, tail, order,
                                                   1 << 20)])
    K = K[np.random.default_rng(seed).permutation(len(K))]
    for rules in compiled:
        assert np.array_equal(R.apply_rules(K, rules),
                              helpers.dense_rule_tags(K, rules))


def test_a_group_split_two_ways_is_not_counted():
    # two rules of one set that split a group of four modes into the same
    # two rule groups count it; two that split it two ways cannot
    groups, tail = [np.arange(4)], [False] * 4
    S = np.array([[0], [2]], dtype=np.int8)
    nowhere = np.zeros(4, dtype=bool)
    for labels, bad in [(([0, 0, 1, 1], [0, 0, 1, 1]), False),
                        (([0, 0, 1, 1], [0, 1, 0, 1]), True)]:
        compiled = [[(code, nowhere, np.array(label))
                     for code, label in zip((1, 2), labels)]]
        tally = R._TagCounter(groups, tail, compiled, 5)
        assert tally.bad == bad
        if not bad:
            assert np.array_equal(tally(S), helpers.listed_histograms(
                S, groups, tail, compiled, 5))


def planted_group(case):
    """Modes -3..3 over 30 samples, even in j, with a planted search group:
    "crossing", modes 1 and 2 share their frequencies in every sample, so
    the group {1, 2} crosses the pairs {1, -1} and {2, -2} of PAIR_TAIL;
    "straddling", the modes +-1 and +-2 share them, so the group
    {+-1, +-2} straddles the SHELL cutoff 2^sqrt(1/2) of N = 2."""
    rng = np.random.default_rng(3)
    modes = [(j,) for j in range(-3, 4)]
    W = np.array([[0.0, 1.0, 4.0, 9.0][abs(j)] for (j,) in modes])[:, None] \
        + rng.uniform(-0.1, 0.1, size=(4, 30))[[3, 2, 1, 0, 1, 2, 3]]
    W[5] = W[4] = W[4] + 1.5
    if case == "straddling":
        W[1] = W[2] = W[4]
    return modes, W


@pytest.mark.parametrize("case", ["crossing", "straddling", "nlw_periodic"])
def test_counting_falls_back_to_listing(monkeypatch, case):
    # a search group that crosses a rule group, or straddles a cutoff,
    # cannot be counted: every live row of the scan is listed, and the
    # histograms are those of the row-by-row reference; a calibrated
    # nlw_periodic, one rule set per draw, counts every row, with the
    # listing route's histograms
    members, listed = R._members, []

    def spy(S, *args):
        listed.append(len(S))
        return members(S, *args)
    if case != "nlw_periodic":
        modes, W = planted_group(case)
        params = {"R": 1.0, "kmax": 3, "d": 1, "decay": 2.0}
        monkeypatch.setattr(R, "convolution_columns",
                            lambda *args: (modes, W))
        q = R.DivisorQuery(None, r=3, N=2, gamma=0.05, alpha=1.0, jmax=3)
        gammas = [0.05, 0.01]
        family, samples = "convolution_d", 30
    else:
        params, family, samples = NLW, "nlw_periodic", 30
        q = R.DivisorQuery(None, r=2, N=2, gamma=0.05, alpha=1.0, jmax=6)
        gammas = [0.05, 0.01, 0.001]
    monkeypatch.setattr(R, "_members", spy)
    est = R.measure_scan(family, params, q, gammas, samples, seed=5)
    scan = R._scan
    with monkeypatch.context() as m:
        m.setattr(R, "_scan", lambda *args: scan(*args, count=False))
        ref = R.measure_scan(family, params, q, gammas, samples, seed=5)
    assert [view(e) for e in est] == [view(e) for e in ref]
    assert ref[0].listed > 0 and sum(est[0].pattern_histogram.values())
    if case == "nlw_periodic":
        assert est[0].listed == 0
        return
    assert est[0].listed == ref[0].listed == sum(listed) // 2
    thrs, order = [g / q.N for g in gammas], q.r + 2
    tail = [abs(j) > q.N for (j,) in modes]
    found, K, complete, _ = R._dfs(modes, W.min(axis=1).tolist(),
                                   W.max(axis=1).tolist(), tail, order,
                                   thrs[0], q.node_cap)
    K = K[:, [found.index(m) for m in modes]]
    violates, hist = np.zeros((2, 30), dtype=bool), [{}, {}]
    rules = tuple(R.family_rules(family, params, q, None, gammas[0]))
    helpers.tally_reference(K, modes, W, thrs, order, [rules],
                            np.zeros((2, 30), dtype=int), violates, hist)
    assert [e.violations for e in est] == violates.sum(axis=1).tolist()
    assert [e.pattern_histogram for e in est] == hist
    assert complete and violates.any()
