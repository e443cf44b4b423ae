import math
import random

import pytest

from bnfsim import norms
from bnfsim import poly as P
from bnfsim.exact import GaussRat
from bnfsim.modes import weight
from bnfsim.norms import majorant_norm, sampled_tame_ratio
from bnfsim.poly import poisson_bracket

from helpers import (Monomial, action, field_entries_reference,
                     majorant_norm_reference, nu_homogeneous, poly_of, xi)
from test_poly import rand_poly


def random_homog(rnd, r, nmodes, nterms):
    acc = {}
    for _ in range(nterms):
        kx = rnd.randint(0, r)
        xi, eta = {}, {}
        for _ in range(kx):
            m = (rnd.randint(1, nmodes),)
            xi[m] = xi.get(m, 0) + 1
        for _ in range(r - kx):
            m = (rnd.randint(1, nmodes),)
            eta[m] = eta.get(m, 0) + 1
        acc[Monomial(xi, eta)] = complex(rnd.uniform(-2, 2),
                                         rnd.uniform(-2, 2))
    return poly_of(acc)


def test_majorant_zero():
    assert majorant_norm(P.zero(), 3.0, 1.0) == 0.0


def test_majorant_single_quadratic():
    # single diagonal quadratic term: |c| * R (the weight ratio is 1)
    p = action(1, -2.0)
    assert majorant_norm(p, 3.0, 0.5) == pytest.approx(2.0 * 0.5)
    # off-diagonal quadratic: sqrt of weight ratio, frozen hand evaluation
    q = P.monomial(1.0, xi={2: 1}, eta={1: 1})
    expect = math.sqrt(weight(2, 3.0) / weight(1, 3.0))
    assert majorant_norm(q, 3.0, 1.0) == pytest.approx(expect)


def test_majorant_hand_evaluation_cubic():
    # c * xi_1^2 eta_3, s = 2: occurrences (1,1,3).  Best slot is output 3
    # with s-slot on a mode-1 occurrence: 1 * sqrt(w_s(3)/(w_s(1) w_1(1))),
    # versus output 1 (e=2): 2 * sqrt(w_s(1)/(w_s(3) w_1(1))) and
    # 2 * sqrt(w_s(1)/(w_s(1) w_1(3))).  The max wins.
    s = 2.0
    cands = [
        1.0 * math.sqrt(weight(3, s) / (weight(1, s) * weight(1, 1.0))),
        1.0 * math.sqrt(weight(3, s) / (weight(1, s) * weight(1, 1.0))),
        2.0 * math.sqrt(weight(1, s) / (weight(3, s) * weight(1, 1.0))),
        2.0 * math.sqrt(weight(1, s) / (weight(1, s) * weight(3, 1.0))),
    ]
    p = P.monomial(3.0, xi={1: 2}, eta={3: 1})
    assert nu_homogeneous(p, s) == pytest.approx(3.0 * max(cands))


def test_majorant_radius_scaling():
    rnd = random.Random(1)
    f = random_homog(rnd, 4, 3, 5)
    # homogeneous degree 4: exactly R^3 scaling
    assert majorant_norm(f, 3.0, 2.0) == pytest.approx(8 * majorant_norm(f, 3.0, 1.0))


def test_sampled_ratio_single_mode_oracle():
    # f = xi_1^r has exact tame norm r / w_1(1)^((r-2)/2); support is a
    # single slot, so every sample realizes the 1-d analytic maximum.
    for r in (2, 3, 4):
        f = P.monomial(1.0, xi={1: r})
        exact = r / weight(1, 1.0) ** ((r - 2) / 2.0)
        got = sampled_tame_ratio(f, 3.0, samples=5, seed=0)
        assert got == pytest.approx(exact, rel=1e-12)


def test_sampled_ratio_requires_homogeneous():
    with pytest.raises(ValueError):
        sampled_tame_ratio(xi(1) + action(1), 2.0)


def test_sampled_ratio_deterministic_and_monotone():
    rnd = random.Random(2)
    f = random_homog(rnd, 3, 4, 5)
    a = sampled_tame_ratio(f, 3.0, samples=40, seed=9)
    b = sampled_tame_ratio(f, 3.0, samples=40, seed=9)
    c = sampled_tame_ratio(f, 3.0, samples=80, seed=9)
    assert a == b
    assert c >= a  # running max over a longer prefix of the same stream
    # two fixed polynomials, one with an xi_j eta_j term: the values pinned
    f = (P.monomial(0.7, xi={1: 2}, eta={3: 1})
         + P.monomial(0.2 - 0.4j, xi={2: 1}, eta={1: 2}))
    g = (P.monomial(1.5, xi={1: 1, 2: 1}, eta={1: 1, 2: 1})
         + P.monomial(-0.3j, xi={1: 1}, eta={1: 2, 3: 1}))
    assert [sampled_tame_ratio(p, s, samples=30, seed=4).hex()
            for p, s in ((f, 3.0), (g, 2.0))] \
        == ["0x1.07d2105e88a35p-1", "0x1.7807ae881784fp-4"]


def test_nu_dominates_sampled_ratio_corpus():
    # calibration requirement for the frozen surrogate
    rnd = random.Random(42)
    for trial in range(30):
        r = rnd.randint(2, 5)
        f = random_homog(rnd, r, 5, rnd.randint(1, 6))
        if not f:
            continue
        s = rnd.choice([2.0, 3.0, 4.0])
        nu = nu_homogeneous(f, s)
        samp = sampled_tame_ratio(f, s, samples=60, seed=trial)
        assert samp <= nu * (1 + 1e-9)


def test_bracket_norm_inequality():
    # majorant({f,g}, s, R-d) <= (1/d) majorant(f,s,R) majorant(g,s,R)
    rnd = random.Random(4242)
    checked = 0
    for trial in range(60):
        f = random_homog(rnd, rnd.randint(2, 4), 4, rnd.randint(1, 5))
        g = random_homog(rnd, rnd.randint(2, 4), 4, rnd.randint(1, 5))
        if not f or not g:
            continue
        s = rnd.choice([2.0, 3.0])
        R = rnd.uniform(0.5, 2.0)
        d = rnd.uniform(0.1, 0.4) * R
        br = poisson_bracket(f, g)
        if not br:
            continue
        lhs = majorant_norm(br, s, R - d)
        rhs = majorant_norm(f, s, R) * majorant_norm(g, s, R) / d
        assert lhs <= rhs * (1 + 1e-9)
        checked += 1
    assert checked > 30


def test_majorant_norm_matches_the_per_occurrence_loop():
    # the array form gives the loop's floats, to the bit
    rnd = random.Random(41)
    cases = [rand_poly(rnd, nterms=20, nmodes=4, maxdeg=6, dim=dim)
             for dim in (1, 2) for _ in range(10)]
    # a mode in both halves: an eta slot drops the mode's first occurrence,
    # which is its xi one (list.remove)
    cases.append(P.monomial(0.5 - 2j, xi={1: 2}, eta={1: 1, 2: 3})
                 + P.monomial(1.5, xi={2: 1, 3: 1}, eta={2: 1, 3: 3})
                 + action(2, -0.25) + P.monomial(3j, xi={1: 1}, eta={1: 1})
                 + P.monomial(0.1, xi={4: 1}, eta={1: 1, 4: 2}))
    cases.append(rand_poly(rnd, nterms=15, nmodes=3, maxdeg=6, exact=True)
                 + poly_of({Monomial({1: 1}, {1: 1}): GaussRat(2, -1)}))
    for f in cases:
        for s, R in ((2.0, 1.0), (4.0, 0.5)):
            assert majorant_norm(f, s, R).hex() \
                == majorant_norm_reference(f, s, R).hex()


def test_field_entries_match_the_per_monomial_loop(monkeypatch):
    # _field_entries reads the exponent entries; the loop over Monomials it
    # replaced is kept in helpers, and sampled_tame_ratio agrees to the bit
    rnd = random.Random(43)
    cases = [random_homog(rnd, r, 4, rnd.randint(1, 6))
             for r in (2, 3, 4) for _ in range(6)]
    cases += [rand_poly(rnd, nterms=8, nmodes=2, maxdeg=4, dim=2
                        ).homogeneous_part(3) for _ in range(4)]
    # modes in both halves: xi_j eta_j and xi_j^2 eta_j terms
    cases += [action(1, 0.5) + P.monomial(1 - 2j, xi={2: 1}, eta={1: 1}),
              P.monomial(0.7, xi={1: 2}, eta={1: 1})
              + P.monomial(-0.3j, xi={1: 1, 2: 1}, eta={2: 1}),
              P.monomial(1.5, xi={1: 1, 2: 1}, eta={1: 1, 2: 1})]
    cases = [f for f in cases if f]
    assert any(len(f.degrees()) == 1 and f.degrees()[0] > 2 for f in cases)
    for f in cases:
        assert norms._field_entries(f) == field_entries_reference(f)
    runs = [(f, s, k) for k, f in enumerate(cases) for s in (2.0, 3.0)]
    got = [sampled_tame_ratio(f, s, samples=15, seed=k).hex()
           for f, s, k in runs]
    monkeypatch.setattr(norms, "_field_entries", field_entries_reference)
    assert got == [sampled_tame_ratio(f, s, samples=15, seed=k).hex()
                   for f, s, k in runs]
