import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfsim import birkhoff as B
from bnfsim import cli
from bnfsim import poly as P
from bnfsim.dynamics import build_model_hamiltonian
from bnfsim.exact import GaussRat
from bnfsim.norms import majorant_norm
from bnfsim.poly import poisson_bracket
from bnfsim.resonance import normal_form_membership, omega_dot, term_divisors
from bnfsim.spectra import FrequencyTable

from helpers import (Monomial, action, add_reference, allclose,
                     bracket_overflow_reference, conj_flip, d_eta, d_xi, eta,
                     evaluate, evaluate_real_slice, filter_reference,
                     majorant_norm_reference, momentum, monomial_reference,
                     momentum_filter, mono_mul, net_exponents, poly_of,
                     poisson_bracket_reference, product, prune_reference,
                     quadratic_diagonal_reference, reality_defect_reference,
                     repr_reference, scale_reference, tail_degree,
                     tail_split_reference, term_key_reference, terms,
                     to_text_reference, xi)
from test_birkhoff import TRANSPORT_CFG


def rand_poly(rnd, nterms=6, nmodes=4, maxdeg=4, dim=1, exact=False):
    acc = {}
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
        acc[Monomial(xi, eta)] = c
    return poly_of(acc)


def test_monomial_basics():
    m = Monomial({(1,): 2}, {(3,): 1})
    assert m.degree == 3
    assert (m.xi, m.eta) == ((((1,), 2),), (((3,), 1),))
    # the key is the tuple (degree, xi, eta), ordered as such
    assert m == (3, m.xi, m.eta) and hash(m) == hash((3, m.xi, m.eta))
    assert Monomial({1: 1}, {2: 1}) < Monomial({2: 1}, {1: 1}) < m
    assert Monomial() == (0, (), ()) and repr(Monomial()) == "1"
    with pytest.raises(ValueError, match="positive"):
        Monomial([(1, -1)])
    assert momentum(m) == (-1,)
    assert tail_degree(m, 2) == 1
    assert tail_degree(m, 0.5) == 3
    assert momentum(Monomial()) == () and tail_degree(Monomial(), 0) == 0


def test_flip_matches_constructed_monomial():
    rnd = random.Random(3)
    for dim in (1, 2):
        for mono in terms(rand_poly(rnd, nterms=20, dim=dim)):
            built = Monomial(mono.eta, mono.xi)
            flipped = mono.flip()
            assert flipped == built and hash(flipped) == hash(built)
            assert (flipped.degree, momentum(flipped)) \
                == (built.degree, momentum(built))
            assert flipped.flip() == mono


def test_add_and_scale():
    p = xi(1) + xi(1, 2.0)
    assert p.terms.get(Monomial({(1,): 1}), 0.0) == 3.0
    q = p - p
    assert not q


def test_product_example():
    # (xi_1)(eta_1) = the action monomial
    assert product(xi(1), eta(1)).terms == action(1).terms


def test_bracket_overflow_matches_pair_sum():
    # oracle: walk every term pair over the cap and sum |c_f c_g| e_f e_g
    # over the modes it contracts
    def pair_sum(f, g, cap):
        mass = 0.0
        g_terms = terms(g).items()
        for mf, cf in terms(f).items():
            for mg, cg in g_terms:
                if mf.degree + mg.degree - 2 <= cap:
                    continue
                gxi, geta = dict(mg.xi), dict(mg.eta)
                for m, ef in mf.eta:
                    mass += abs(cf * cg) * ef * gxi.get(m, 0)
                for m, ef in mf.xi:
                    mass += abs(cf * cg) * ef * geta.get(m, 0)
        return mass

    rnd = random.Random(17)
    for dim in (1, 2):
        for _ in range(10):
            f = rand_poly(rnd, nterms=8, nmodes=2, maxdeg=4, dim=dim)
            g = rand_poly(rnd, nterms=8, nmodes=2, maxdeg=4, dim=dim)
            for cap in (1, 2, 3, 4):
                want = pair_sum(f, g, cap)
                assert P.bracket_overflow(f, g, cap) \
                    == pytest.approx(want, rel=1e-12, abs=1e-300)
                capped = poisson_bracket(f, g, cap)
                assert capped == poisson_bracket(f, g).truncate_above(cap)


def bracket_operands():
    """Operand pairs over 1-d and 2-d modes: random complex coefficients,
    real floats, pure imaginary ones with signed-zero real parts, and
    empty operands."""
    rnd = random.Random(23)
    out = []
    for dim in (1, 2):
        for _ in range(10):
            f = rand_poly(rnd, nterms=rnd.randint(1, 25), nmodes=3,
                          maxdeg=5, dim=dim)
            g = rand_poly(rnd, nterms=rnd.randint(1, 25), nmodes=3,
                          maxdeg=5, dim=dim)
            out.append((f, g))
        imag = poly_of({m: complex(rnd.choice((0.0, -0.0)), c.imag)
                        for m, c in f.terms.items()})
        real = poly_of({m: -abs(c.real) for m, c in g.terms.items()})
        out += [(imag, g), (f, real), (real, real), (imag, imag),
                (P.zero(), g), (f, P.zero())]
    return out


def caps_for(f, g):
    top = f.max_degree() + g.max_degree() - 2
    low = f.min_degree() + g.min_degree() - 2
    # uncapped, the top degree pair exactly at the cap and just over it,
    # and every pair over it
    return (None, top, top - 1, low - 1, 3)


def test_array_bracket_matches_the_pair_loop():
    # the same terms, coefficient bits (signed zeros too) and dict order
    for f, g in bracket_operands():
        for cap in caps_for(f, g):
            got = poisson_bracket(f, g, cap)
            want = poisson_bracket_reference(f, g, cap)
            assert P.to_text(got, hexfloat=True) \
                == P.to_text(want, hexfloat=True)
            assert list(got.terms) == list(want.terms)
            assert [(m.degree, momentum(m)) for m in terms(got)] \
                == [(m.degree, momentum(m)) for m in terms(want)]


def test_array_bracket_exact_coefficients():
    rnd = random.Random(29)
    for _ in range(10):
        f = rand_poly(rnd, nterms=6, maxdeg=4, exact=True)
        g = rand_poly(rnd, nterms=6, maxdeg=4, exact=True)
        for cap in (None, 3):
            got = poisson_bracket(f, g, cap)
            want = poisson_bracket_reference(f, g, cap)
            assert list(got.terms.items()) == list(want.terms.items())


def test_bracket_overflow_and_pair_counts_match_the_pair_loop():
    for f, g in bracket_operands():
        for cap in caps_for(f, g)[1:]:
            assert P.bracket_overflow(f, g, cap).hex() \
                == float(bracket_overflow_reference(f, g, cap)).hex()
            g_terms = terms(g)
            over = sum(mf.degree + mg.degree - 2 > cap
                       for mf in terms(f) for mg in g_terms)
            assert P.pair_counts(f, g, cap) \
                == (len(f) * len(g) - over, over)


def test_entry_queries_match_the_monomial_references():
    # is_zero_momentum, tail_split and the membership flags read the
    # exponent entries; the references walk each Monomial.  The empty and
    # the constant polynomial have no modes at all.
    rnd = random.Random(37)
    cases = [P.zero(), poly_of({Monomial(): 1.5}),
             poly_of({Monomial(): GaussRat(2, -1)})]
    for dim in (1, 2):
        for exact in (False, True):
            for _ in range(6):
                p = rand_poly(rnd, nterms=rnd.randint(1, 20), nmodes=3,
                              maxdeg=5, dim=dim, exact=exact)
                even = poly_of({mono_mul(m, m.flip()): c
                                for m, c in terms(p).items()})
                cases += [p, momentum_filter(p), even, even + p]
    assert {c.is_zero_momentum() for c in cases} == {True, False}
    flags = set()
    for p in cases:
        assert p.is_zero_momentum() \
            == all(not any(momentum(m)) for m in terms(p))
        modes = {m for mono in terms(p) for m, _ in mono.xi + mono.eta}
        table = FrequencyTable({m: rnd.uniform(0.5, 3.0) for m in modes})
        for N in (0.5, 1, 2, 2.5, 3):
            high = [tail_degree(m, N) > 2 for m in terms(p)]
            ts = p.tail_split(N)
            assert list(ts.low.terms.items()) == [
                t for t, h in zip(p.terms.items(), high) if not h]
            assert list(ts.high.terms.items()) == [
                t for t, h in zip(p.terms.items(), high) if h]
            want = [abs(omega_dot(table, net_exponents(m))) <= 1.0 / N
                    and tail_degree(m, N) <= 2 for m in terms(p)]
            assert normal_form_membership(p, table, 1.0, 1.0, N) == want
            flags.update(want)
    assert flags == {True, False}


def test_terms_survive_pickle_and_deepcopy():
    # pickle and deepcopy carry the entries; the copy's terms view is
    # built from them, plain (degree, xi, eta) tuples equal to the original's
    rnd = random.Random(41)
    f, g = rand_poly(rnd, nterms=12, dim=2), rand_poly(rnd, nterms=12, dim=2)
    for p in (f, rand_poly(rnd, exact=True), poisson_bracket(f, g),
              P.quadratic_diagonal({1: 2.5, 2: 0.5}), P.zero()):
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            # repr keeps the coefficients' bits, signed zeros too
            assert q == p and repr(list(q.terms.items())) \
                == repr(list(p.terms.items()))
            assert all(type(m) is tuple for m in q.terms)
            assert [(m.degree, m.xi, m.eta) for m in terms(q)] \
                == [(m.degree, m.xi, m.eta) for m in terms(p)]
            assert_entries(q, p.terms)


def test_float_coefficients_are_stored_as_complex():
    # an int or a float coefficient reads back as complex, and the
    # bracket of float-built operands is the pair loop's to the bit
    f = P.monomial(-2.0, xi={1: 2}, eta={2: 1}) + P.monomial(3, eta={1: 1})
    g = P.monomial(0.5, xi={2: 1}, eta={1: 1}) + action(1, -1.5)
    for p in (f, g, f.scale(-1), f + g, product(f, g)):
        assert {type(c) for c in p.terms.values()} == {complex}
    assert f.terms.get(Monomial({(1,): 2}, {(2,): 1}), 0.0) == -2.0
    for a, b in ((f, g), (g, f), (f, f), (f, -g)):
        got, want = poisson_bracket(a, b), poisson_bracket_reference(a, b)
        assert P.to_text(got, hexfloat=True) \
            == P.to_text(want, hexfloat=True)
        assert list(got.terms) == list(want.terms)
    # conjugation reads complex coefficients (and GaussRat ones) alike
    assert f.reality_defect() == 3.0
    assert action(1, -1.5).reality_defect() == 0.0


def assert_entries(p, want: dict):
    """p holds the terms of `want`, in its order and to the bit (signed
    zeros too), and its entries are the ones that dict converts to."""
    assert list(p.terms) == list(want)
    assert all(type(m) is tuple for m in p.terms)
    got, vals = list(p.terms.values()), list(want.values())
    assert [type(c) for c in got] == [type(c) for c in vals]
    if p.coef.dtype == object:
        assert got == vals
    else:
        assert np.array_equal(np.array(got, dtype=complex).view(np.int64),
                              np.array(vals, dtype=complex).view(np.int64))
    q = poly_of(want)
    assert p.modes == q.modes and (not q or p.coef.dtype == q.coef.dtype)
    for name in ("t", "col", "e", "deg"):
        assert np.array_equal(getattr(p, name), getattr(q, name)), name


def term_corpus():
    """The polynomials the term operations are checked on."""
    system = cli.build_system(TRANSPORT_CFG, 0)
    res = B.normalize(system.table, system.P,
                      cli.resolved_params(TRANSPORT_CFG))
    dd = build_model_hamiltonian("nls_dd", d=2, jmax=4, kappa=0.1)
    rnd = random.Random(53)
    actions = (P.quadratic_diagonal({1: 2.5, 2: -0.5})
               + P.monomial(0.5j, xi={1: 2}, eta={1: 2})
               + P.monomial(1 - 1j, xi={1: 1, 2: 1}, eta={1: 1}))
    small = [rand_poly(rnd, nterms=15, nmodes=3, maxdeg=5, dim=dim,
                       exact=exact) for dim in (1, 2) for exact in (0, 1)]
    cases = [(system.P, system.table), (dd.P, dd.table)]
    cases += [(chi, system.table) for chi in res.generators]
    for p in small + [actions, actions + conj_flip(actions), P.zero(),
                      poly_of({Monomial(): 1.5}),
                      poly_of({Monomial(): GaussRat(2, -1)})]:
        modes = {m for mono in terms(p) for m, _ in mono.xi + mono.eta}
        cases.append((p, FrequencyTable({m: rnd.uniform(-3.0, 3.0)
                                         for m in modes})))
    return cases


def test_constructors_build_the_terms_of_the_dict_path():
    # monomial and quadratic_diagonal build their entries directly; the
    # Monomial dict path they replaced gives the same terms, order, modes
    # and bits, and both prune a zero frequency or coefficient
    rnd = random.Random(61)
    freqs = [{1: 2.5, 2: 0.0, 3: -0.5}, {2: 0.0}, {},
             {(0, 1): 1.0, (1, 0): 0.0, (-1, 0): 2.0},
             {1: GaussRat(1, 2), 3: GaussRat(0), 2: GaussRat(-1)}]
    for dim in (1, 2):
        for _ in range(10):
            modes = {tuple(rnd.randint(-3, 3) for _ in range(dim))
                     for _ in range(rnd.randint(1, 8))}
            freqs.append({m if dim == 2 else m[0]:
                          rnd.choice([0.0, rnd.uniform(-3.0, 3.0)])
                          for m in modes})
    pairs = [(P.quadratic_diagonal(f), quadratic_diagonal_reference(f))
             for f in freqs]
    for coeff in (1.5, 3, -2j, 0.0, complex(-0.0, 1.0), GaussRat(2, -1)):
        for dim in (1, 2):
            for _ in range(4):
                xs, es = ({tuple(rnd.randint(-2, 2) for _ in range(dim)):
                           rnd.randint(0, 3)
                           for _ in range(rnd.randint(0, 3))}
                          for _ in range(2))
                pairs += [(P.monomial(coeff, xs, es),
                           monomial_reference(coeff, xs, es)),
                          (P.monomial(coeff, list(xs.items()), es),
                           monomial_reference(coeff, list(xs.items()), es))]
    pairs += [(P.monomial(2.0), monomial_reference(2.0)),
              (xi(2, 0.5), monomial_reference(0.5, {2: 1})),
              (action((1, -1)), monomial_reference(1.0, {(1, -1): 1},
                                                     {(1, -1): 1}))]
    assert any(not got and want.terms == {} for got, want in pairs)
    for got, want in pairs:
        assert_entries(got, dict(want.terms))
        assert got.modes == want.modes
        if got.coef.dtype != object:
            assert P.to_text(got, hexfloat=True) \
                == P.to_text(want, hexfloat=True)
    for make in (P.monomial, monomial_reference):
        with pytest.raises(ValueError, match="positive"):
            make(1.0, {1: 2}, {2: -1})


def test_text_form_and_membership_keys_match_the_monomial_references():
    # to_text sorts and writes the entries, from_text reads straight into
    # them, and the membership keys are joined from the same tokens
    for p, _ in term_corpus():
        xi, eta = P.term_texts(p)
        assert [x + "|" + y for x, y in zip(xi, eta)] \
            == [term_key_reference(m) for m in terms(p)]
        if p.coef.dtype == object:
            continue
        for hexfloat in (False, True):
            text = P.to_text(p, hexfloat=hexfloat)
            assert text == to_text_reference(p, hexfloat)
            assert_entries(P.from_text(text), dict(sorted(p.terms.items())))
    with pytest.raises(ValueError, match="positive"):
        P.from_text("1.0 0.0 | 1:2 | 2:0\n")
    with pytest.raises(ValueError, match="twice"):
        P.from_text("1.0 0.0 | 1:1 2:1 |\n2.0 0.0 | 2:1 1:1 |\n")


def test_term_operations_match_the_dict_references():
    # every operation equals the dict code it replaced, term order and
    # coefficient bits included
    rnd = random.Random(59)
    cases = term_corpus()
    for p, table in cases:
        assert_entries(p, dict(p.terms))
        exact = p.coef.dtype == object
        # construction prunes dust, zeros and cancellations
        d = dict(p.terms)
        if d and not exact:
            m0 = p.modes[0] if p.modes else (1,)
            d[Monomial({m0: 7})] = 1e-15 * max(abs(c) for c in d.values())
            d[Monomial({}, {m0: 5})] = 0
        assert_entries(poly_of(d), prune_reference(d))
        # sums: with itself, its negative, a part of itself and others
        half = p.filter([rnd.random() < 0.5 for _ in range(len(p))])
        scales = ((-1, GaussRat(2, 1)) if exact
                  else (-1, 1.0 / 3, 1j, 0.3 - 0.7j, 3))
        for a in scales:
            assert_entries(p.scale(a), scale_reference(p, a))
        others = [p, -p, half, half.scale(scales[1]), P.zero()]
        others += [q for q, _ in cases if len(p) + len(q) < 1000
                   and (q.coef.dtype == object) == exact]
        for q in others:
            assert_entries(p + q, add_reference(p, q))
            assert_entries(q + p, add_reference(q, p))
        # masks
        for r in p.degrees() + [7]:
            assert_entries(p.homogeneous_part(r),
                           filter_reference(p, lambda m: m.degree == r))
            assert_entries(p.truncate_above(r),
                           filter_reference(p, lambda m: m.degree <= r))
        for N in (0.5, 1, 2, 3, 5):
            got = p.tail_split(N)
            low, high = tail_split_reference(p, N)
            assert_entries(got.low, low)
            assert_entries(got.high, high)
        # l1, the reality defect and the divisors, as float bits
        assert p.l1().hex() == math.fsum(abs(c) for c in p.terms.values()).hex()
        if not exact:
            assert p.reality_defect().hex() \
                == float(reality_defect_reference(p)).hex()
        assert [d.hex() for d in term_divisors(p, table)] == [
            omega_dot(table, net_exponents(m)).hex() for m in terms(p)]
        # the two meters of the normal form
        for s, R in ((2.0, 1.0), (4.0, 0.5)):
            assert majorant_norm(p, s, R).hex() \
                == majorant_norm_reference(p, s, R).hex()
    assert {p.reality_defect() == 0.0 for p, _ in cases} == {True, False}
    # the transport P, then its generators, share the transport table
    transport_P, *generators = [p for p, t in cases if t is cases[0][1]]
    for chi in generators:
        for cap in caps_for(chi, transport_P)[1:]:
            assert P.bracket_overflow(chi, transport_P, cap).hex() \
                == float(bracket_overflow_reference(chi, transport_P,
                                                    cap)).hex()


def test_prune_threshold():
    big = xi(1, 1.0)
    tiny = xi(2, 1e-16)
    p = big + tiny
    assert len(p) == 1  # relative threshold 1e-14 removes the dust


def test_bracket_diagonal_rotation():
    # {omega xi1 eta1, xi1} = i omega xi1
    h0 = P.quadratic_diagonal({1: 2.5})
    out = poisson_bracket(h0, xi(1))
    assert out.terms == {Monomial({(1,): 1}): 2.5j}


def test_bracket_cross_example():
    # {xi1 eta2, xi2 eta1} = i (I1 - I2), frozen hand expansion
    f = P.monomial(1.0, xi={1: 1}, eta={2: 1})
    g = P.monomial(1.0, xi={2: 1}, eta={1: 1})
    out = poisson_bracket(f, g)
    expect = action(1, 1j) + action(2, -1j)
    assert allclose(out, expect, 0.0)


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
        out = poisson_bracket(h0, poly_of({mono: c}))
        expect = 0.0
        for j in sorted(freqs):
            expect = expect + 1j * (freqs[j] * xi.get((j,), 0)) * c
            expect = expect + 1j * (-freqs[j] * eta.get((j,), 0)) * c
        got = out.terms.get(mono, 0.0)
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
        leib = poisson_bracket(f, product(g, h)) - (
            product(poisson_bracket(f, g), h)
            + product(g, poisson_bracket(f, h)))
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
        assert not (poisson_bracket(f, product(g, h))
                    - (product(poisson_bracket(f, g), h)
                       + product(g, poisson_bracket(f, h))))


def test_bracket_momentum_conserved():
    rnd = random.Random(5)
    for _ in range(10):
        f = momentum_filter(rand_poly(rnd, dim=2))
        g = momentum_filter(rand_poly(rnd, dim=2))
        br = poisson_bracket(f, g)
        assert br.is_zero_momentum()


def test_reality_flag():
    p = P.monomial(1 + 2j, xi={1: 2}, eta={2: 1}) + P.monomial(1 - 2j, xi={2: 1}, eta={1: 2})
    assert p.reality_defect() == 0.0
    q = p + P.monomial(0.5j, xi={3: 1}, eta={3: 1})
    assert q.reality_defect() > 0.4
    # operations preserving the flag
    assert product(p, p).reality_defect() <= 1e-14
    assert poisson_bracket(p, product(p, p)).reality_defect() <= 1e-12


def test_tail_split():
    p = (P.monomial(1.0, xi={1: 1, 5: 2})      # tail degree 2 at N=4
         + P.monomial(2.0, xi={5: 2, 6: 1})    # tail degree 3
         + action(2))                        # tail degree 0
    ts = p.tail_split(4)
    assert ts.cutoff_n == 4
    assert len(ts.low) == 2 and len(ts.high) == 1
    assert allclose(ts.low + ts.high, p, 0.0)
    # tail degrees: every high term >= 3, every low term <= 2
    assert all(tail_degree(m, 4) >= 3 for m in terms(ts.high))
    assert all(tail_degree(m, 4) <= 2 for m in terms(ts.low))


def test_tail_reference_reads_the_ball_at_radius_sqrt_16388():
    # sqrt(16388)^2 rounds below 16388, and the ball of that radius still
    # holds the shell of (128, 2): the reference agrees with the package
    r = math.sqrt(16388)
    assert r * r < 16388
    inside, outside = Monomial({(128, 2): 3}), Monomial({(128, 3): 3})
    mixed = Monomial({(128, 2): 1}, {(0, 1): 1})
    p = poly_of({inside: 1.0, outside: 2.0, mixed: 3.0})
    want = {inside: 0, outside: 3, mixed: 0}
    assert {m: tail_degree(m, r) for m in terms(p)} == want
    assert dict(zip(p.terms, p.tail_degrees(r).tolist())) == want
    low, high = tail_split_reference(p, r)
    assert outside in high and inside in low and len(low) == 2
    ts = p.tail_split(r)
    assert_entries(ts.low, low)
    assert_entries(ts.high, high)


def test_momentum_filter_1d():
    p = P.monomial(1.0, xi={1: 1, 2: 1}, eta={3: 1}) + P.monomial(1.0, xi={1: 1}, eta={3: 1})
    q = momentum_filter(p)
    assert len(q) == 1
    assert momentum(next(iter(terms(q)))) == (0,)


def test_momentum_filter_2d():
    good = P.monomial(1.0, xi={(1, 0): 1, (0, 1): 1}, eta={(1, 1): 1})
    bad = P.monomial(1.0, xi={(1, 0): 2}, eta={(1, 1): 1})
    assert momentum_filter(good + bad).terms == good.terms


def test_homogeneous_parts_and_degrees():
    p = xi(1) + action(2) + P.monomial(1.0, xi={1: 3})
    assert p.degrees() == [1, 2, 3]
    assert p.homogeneous_part(2).terms == action(2).terms
    assert p.min_degree() == 1 and p.max_degree() == 3


@st.composite
def term_maps(draw):
    """{Monomial: coefficient} mappings of up to 8 terms over 1-d or 2-d
    modes, the constant among them: complex coefficients, signed zeros
    among their parts, or exact GaussRat ones, none small enough to prune."""
    dim = draw(st.integers(1, 2))
    side = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * dim),
                           st.integers(1, 3), max_size=3)
    keys = draw(st.lists(st.builds(Monomial, side, side), unique=True,
                         max_size=8))
    if draw(st.booleans()):
        coef = st.builds(GaussRat, st.integers(-5, 5),
                         st.integers(-5, 5)).filter(bool)
    else:
        part = st.floats(-4.0, 4.0)
        coef = st.builds(complex, part, part).filter(lambda c: abs(c) > 0.5)
    return {k: draw(coef) for k in keys}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(term_maps(), term_maps(), st.randoms(use_true_random=False))
def test_equality_matches_the_dict_comparison(mapping, other, rnd):
    # __eq__ compares the entries in canonical order; the comparison of the
    # {Monomial: coefficient} terms it replaced is the reference
    a = poly_of(mapping)
    assert len(a.terms) == len(a) == len(mapping)
    assert all(type(k) is tuple and k == m and hash(k) == hash(m)
               for k, m in zip(a.terms, mapping))
    assert repr(a) == repr_reference(a)
    items = list(mapping.items())
    rnd.shuffle(items)
    extra = (9,) * len(a.modes[0]) if a.modes else (9,)
    wide = sorted(a.modes + [extra])  # a mode no term uses
    same = [poly_of(dict(items)),
            P.Polynomial.from_entries(wide, *P.exponent_entries(a, wide),
                                      a.coef)]
    c = items[0][1] if items else 1.5
    differ = [poly_of({**mapping, Monomial({extra: 1}): c})]
    if items:
        # the same entries over other modes, the same rank order
        moved = [tuple(x + 10 for x in m) for m in a.modes]
        differ.append(P.Polynomial.from_entries(moved, a.t, a.col, a.e,
                                                a.coef))
        m, c = items[0]
        off = c + 1 if isinstance(c, GaussRat) \
            else complex(np.nextafter(c.real, math.inf), c.imag)
        differ.append(poly_of({**mapping, m: off}))
    for b in same + differ + [poly_of(other), P.zero()]:
        assert (a == b) == (terms(a) == terms(b))
        assert (b == a) == (terms(b) == terms(a))
        assert (a != b) == (terms(a) != terms(b))
    assert all(a == b for b in same) and not any(a == b for b in differ)
    for x in (0, 1.5, None, "a", mapping, a.terms):
        assert (a == x) is False and (a != x) is True


def test_equality_of_the_empty_and_the_constant_polynomial():
    cases = [P.zero(), poly_of({}), P.monomial(0.0),
             poly_of({Monomial(): 1.5}), P.monomial(1.5), P.monomial(1.5 + 0j),
             P.monomial(-1.5), poly_of({Monomial(): GaussRat(2, -1)}),
             P.monomial(GaussRat(2, -1)), P.monomial(GaussRat(2)),
             poly_of({Monomial(): 1.5, Monomial({1: 1}): 1.0})]
    for a in cases:
        assert repr(a) == repr_reference(a)
        for b in cases:
            assert (a == b) == (terms(a) == terms(b))
    assert P.zero() == poly_of({}) == P.monomial(0.0)
    assert P.monomial(1.5) == poly_of({Monomial(): 1.5}) != P.zero()


def test_serialization_roundtrip_bit_exact():
    rnd = random.Random(0)
    for dim in (1, 2):
        p = rand_poly(rnd, nterms=25, dim=dim)
        for hexfloat in (False, True):
            text = P.to_text(p, hexfloat=hexfloat)
            q = P.from_text(text)
            assert q.terms == p.terms
    # canonical ordering: serialization is unique
    a = xi(1) + eta(2)
    b = eta(2) + xi(1)
    assert P.to_text(a) == P.to_text(b)


def test_derivatives():
    p = P.monomial(2.0, xi={1: 2}, eta={2: 1})
    dx = d_xi(p, 1)
    assert dx.terms == {Monomial({(1,): 1}, {(2,): 1}): 4.0}
    de = d_eta(p, 2)
    assert de.terms == {Monomial({(1,): 2}): 2.0}
    assert not d_xi(p, 3)


def test_evaluate():
    p = action(1) + P.monomial(1.0, xi={2: 2})
    v = evaluate(p, {1: 1 + 1j, 2: 2.0}, {1: 1 - 1j, 2: 2.0})
    assert v == pytest.approx((1 + 1j) * (1 - 1j) + 4.0)
    assert evaluate_real_slice(p, {1: 1 + 1j, 2: 0.0}) == pytest.approx(2.0)
