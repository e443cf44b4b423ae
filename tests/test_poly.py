import math
import random

import pytest

from bnfsim import poly as P
from bnfsim.exact import GaussRat
from bnfsim.poly import Monomial, Polynomial, poisson_bracket


def rand_poly(rnd, nterms=6, nmodes=4, maxdeg=4, dim=1, exact=False):
    terms = {}
    for _ in range(nterms):
        deg = rnd.randint(1, maxdeg)
        kx = rnd.randint(0, deg)
        xi, eta = {}, {}
        for _ in range(kx):
            m = tuple(rnd.randint(-nmodes, nmodes) or 1 for _ in range(dim))
            xi[m] = xi.get(m, 0) + 1
        for _ in range(deg - kx):
            m = tuple(rnd.randint(-nmodes, nmodes) or 1 for _ in range(dim))
            eta[m] = eta.get(m, 0) + 1
        if exact:
            c = GaussRat(rnd.randint(-9, 9), rnd.randint(-9, 9))
        else:
            c = complex(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
        terms[Monomial(xi, eta)] = c
    return Polynomial(terms)


def test_monomial_basics():
    m = Monomial({(1,): 2}, {(3,): 1})
    assert m.degree == 3
    assert m.momentum == (-1,)
    assert m.tail_degree(2) == 1
    assert m.tail_degree(0.5) == 3
    assert not m.is_action()
    assert Monomial({(2,): 1}, {(2,): 1}).is_action()


def test_flip_matches_constructed_monomial():
    rnd = random.Random(3)
    for dim in (1, 2):
        for mono in rand_poly(rnd, nterms=20, dim=dim).terms:
            built = Monomial(mono.eta, mono.xi)
            flipped = mono.flip()
            assert flipped == built and hash(flipped) == hash(built)
            assert (flipped.degree, flipped.momentum) \
                == (built.degree, built.momentum)
            assert flipped.flip() == mono


def test_add_and_scale():
    p = P.xi(1) + P.xi(1, 2.0)
    assert p.coeff(Monomial({(1,): 1})) == 3.0
    q = p - p
    assert not q


def test_product_example():
    # (xi_1)(eta_1) = the action monomial
    assert (P.xi(1) * P.eta(1)).terms == P.action(1).terms


def test_cap_drop_logged():
    I1 = Polynomial(P.action(1).terms, degree_cap=2)
    prod = I1 * I1
    assert not prod.terms
    assert prod.dropped == pytest.approx(1.0)


def test_prune_threshold():
    big = P.xi(1, 1.0)
    tiny = P.xi(2, 1e-16)
    p = big + tiny
    assert len(p) == 1  # relative threshold 1e-14 removes the dust


def test_bracket_diagonal_rotation():
    # {omega xi1 eta1, xi1} = i omega xi1
    h0 = P.quadratic_diagonal({1: 2.5})
    out = poisson_bracket(h0, P.xi(1))
    assert out.terms == {Monomial({(1,): 1}): 2.5j}


def test_bracket_cross_example():
    # {xi1 eta2, xi2 eta1} = i (I1 - I2), frozen hand expansion
    f = P.monomial(1.0, xi={1: 1}, eta={2: 1})
    g = P.monomial(1.0, xi={2: 1}, eta={1: 1})
    out = poisson_bracket(f, g)
    expect = P.action(1, 1j) + P.action(2, -1j)
    assert out.allclose(expect, 0.0)


def test_bracket_diagonal_action_exact():
    # {H0, xi^k eta^l} = i omega.(k-l) xi^k eta^l with coefficient built in
    # the same mode-by-mode accumulation order the bracket uses.
    rnd = random.Random(7)
    for _ in range(30):
        freqs = {j: rnd.uniform(0.5, 3.0) for j in range(1, 5)}
        h0 = P.quadratic_diagonal(freqs)
        xi = {(j,): rnd.randint(0, 2) for j in range(1, 5)}
        eta = {(j,): rnd.randint(0, 2) for j in range(1, 5)}
        xi = {m: e for m, e in xi.items() if e}
        eta = {m: e for m, e in eta.items() if e}
        if not xi and not eta:
            continue
        c = complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
        mono = Monomial(xi, eta)
        out = poisson_bracket(h0, P.Polynomial({mono: c}))
        expect = 0.0
        for j in sorted(freqs):
            expect = expect + 1j * (freqs[j] * xi.get((j,), 0)) * c
            expect = expect + 1j * (-freqs[j] * eta.get((j,), 0)) * c
        got = out.coeff(mono)
        if expect == 0:
            assert not out or abs(got) < 1e-15
        else:
            assert got == expect


def test_bracket_antisymmetry_jacobi_leibniz_float():
    rnd = random.Random(3)
    for _ in range(25):
        f = rand_poly(rnd)
        g = rand_poly(rnd)
        h = rand_poly(rnd)
        scale = max(f.l1() * g.l1(), 1.0)
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).l1() <= 1e-12 * scale
        jac = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        assert jac.l1() <= 1e-10 * max(f.l1() * g.l1() * h.l1(), 1.0)
        leib = poisson_bracket(f, g * h) - (poisson_bracket(f, g) * h + g * poisson_bracket(f, h))
        assert leib.l1() <= 1e-12 * max(f.l1() * g.l1() * h.l1(), 1.0)


def test_bracket_identities_exact_mode():
    rnd = random.Random(11)
    for _ in range(10):
        f = rand_poly(rnd, nterms=4, maxdeg=3, exact=True)
        g = rand_poly(rnd, nterms=4, maxdeg=3, exact=True)
        h = rand_poly(rnd, nterms=3, maxdeg=3, exact=True)
        assert not (poisson_bracket(f, g) + poisson_bracket(g, f))
        assert not (poisson_bracket(f, poisson_bracket(g, h))
                    + poisson_bracket(g, poisson_bracket(h, f))
                    + poisson_bracket(h, poisson_bracket(f, g)))
        assert not (poisson_bracket(f, g * h)
                    - (poisson_bracket(f, g) * h + g * poisson_bracket(f, h)))


def test_bracket_momentum_conserved():
    rnd = random.Random(5)
    for _ in range(10):
        f = rand_poly(rnd, dim=2).momentum_filter()
        g = rand_poly(rnd, dim=2).momentum_filter()
        br = poisson_bracket(f, g)
        assert br.is_zero_momentum()


def test_modulus():
    p = P.xi(1, -2.0) + P.eta(2, 3j)
    m = p.modulus()
    assert m.coeff(Monomial({(1,): 1})) == 2.0
    assert m.coeff(Monomial({}, {(2,): 1})) == 3.0
    assert m.modulus().terms == m.terms  # idempotent


def test_reality_flag():
    p = P.monomial(1 + 2j, xi={1: 2}, eta={2: 1}) + P.monomial(1 - 2j, xi={2: 1}, eta={1: 2})
    assert p.reality_defect() == 0.0
    q = p + P.monomial(0.5j, xi={3: 1}, eta={3: 1})
    assert q.reality_defect() > 0.4
    # operations preserving the flag
    assert (p * p).reality_defect() <= 1e-14
    assert poisson_bracket(p, p * p).reality_defect() <= 1e-12


def test_tail_split():
    p = (P.monomial(1.0, xi={1: 1, 5: 2})      # tail degree 2 at N=4
         + P.monomial(2.0, xi={5: 2, 6: 1})    # tail degree 3
         + P.action(2))                        # tail degree 0
    ts = p.tail_split(4)
    assert ts.cutoff_n == 4
    assert len(ts.low) == 2 and len(ts.high) == 1
    assert (ts.low + ts.high).allclose(p, 0.0)
    # tail degrees: every high term >= 3, every low term <= 2
    assert all(m.tail_degree(4) >= 3 for m in ts.high.terms)
    assert all(m.tail_degree(4) <= 2 for m in ts.low.terms)


def test_momentum_filter_1d():
    p = P.monomial(1.0, xi={1: 1, 2: 1}, eta={3: 1}) + P.monomial(1.0, xi={1: 1}, eta={3: 1})
    q = p.momentum_filter()
    assert len(q) == 1
    assert next(iter(q.terms)).momentum == (0,)


def test_momentum_filter_2d():
    good = P.monomial(1.0, xi={(1, 0): 1, (0, 1): 1}, eta={(1, 1): 1})
    bad = P.monomial(1.0, xi={(1, 0): 2}, eta={(1, 1): 1})
    assert (good + bad).momentum_filter().terms == good.terms


def test_homogeneous_parts_and_degrees():
    p = P.xi(1) + P.action(2) + P.monomial(1.0, xi={1: 3})
    assert p.degrees() == [1, 2, 3]
    assert p.homogeneous_part(2).terms == P.action(2).terms
    assert p.min_degree() == 1 and p.max_degree() == 3


def test_serialization_roundtrip_bit_exact():
    rnd = random.Random(0)
    for dim in (1, 2):
        p = rand_poly(rnd, nterms=25, dim=dim)
        for hexfloat in (False, True):
            text = P.to_text(p, hexfloat=hexfloat)
            q = P.from_text(text)
            assert q.terms == p.terms
    # canonical ordering: serialization is unique
    a = P.xi(1) + P.eta(2)
    b = P.eta(2) + P.xi(1)
    assert P.to_text(a) == P.to_text(b)


def test_derivatives():
    p = P.monomial(2.0, xi={1: 2}, eta={2: 1})
    dx = p.d_xi(1)
    assert dx.terms == {Monomial({(1,): 1}, {(2,): 1}): 4.0}
    de = p.d_eta(2)
    assert de.terms == {Monomial({(1,): 2}): 2.0}
    assert not p.d_xi(3)


def test_evaluate():
    p = P.action(1) + P.monomial(1.0, xi={2: 2})
    v = p.evaluate({1: 1 + 1j, 2: 2.0}, {1: 1 - 1j, 2: 2.0})
    assert v == pytest.approx((1 + 1j) * (1 - 1j) + 4.0)
    assert p.evaluate_real_slice({1: 1 + 1j, 2: 0.0}) == pytest.approx(2.0)
