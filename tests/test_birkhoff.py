import math
import random

import numpy as np
import pytest

from bnfsim import birkhoff as B
from bnfsim import cli, dynamics, poly
from bnfsim.fields import eta_gradient_table, value_table
from bnfsim.poly import poisson_bracket
from bnfsim.spectra import FrequencyTable

from helpers import (Monomial, evaluate, evaluate_real_slice, fit_A,
                     nu_homogeneous, poly_of, tail_degree, terms, xi)


def table(omegas: dict) -> FrequencyTable:
    return FrequencyTable({(j,): float(w) for j, w in omegas.items()})


def demo_hamiltonian(kappa=0.1):
    """Two modes, omega = (1, sqrt(2)), a small real quartic coupling."""
    t = table({1: 1.0, 2: math.sqrt(2)})
    P = (poly.monomial(kappa, xi={1: 2}, eta={2: 1})
         + poly.monomial(kappa, xi={2: 1}, eta={1: 2})
         + poly.monomial(kappa, xi={1: 1, 2: 1}, eta={1: 1, 2: 1})
         + poly.monomial(kappa, xi={1: 2}, eta={2: 2})
         + poly.monomial(kappa, xi={2: 2}, eta={1: 2}))
    return t, P


# -- parameter formulas ---------------------------------------------------


def test_parameter_formulas_exact():
    assert B.nstar(1, 1.0, 0.01) == 10
    assert B.nstar(1, 1.0, 1.0 / 16.0) == 4
    assert B.sstar(2, 1.0) == 10.0
    r = B.rstar_radius(1.0, 1, 10, 1.0, 1.0)
    assert r == 0.0015328310048810096  # 1 / (240 e)
    assert r == pytest.approx(1.0 / (240.0 * math.e), rel=1e-15)
    with pytest.raises(ValueError):
        B.nstar(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        B.rstar_radius(1.0, 1, 10, 1.0, 0.0)


def test_fit_A_quartic():
    from bnfsim.norms import majorant_norm
    P = poly.monomial(0.7, xi={1: 2}, eta={2: 2})
    nu = nu_homogeneous(P, 2.0)
    A = fit_A(P, 2.0, radii=(0.25, 0.5, 1.0))
    assert A == pytest.approx(nu)  # max of nu * R at R = 1
    assert majorant_norm(P, 2.0, 0.5) <= A * 0.25 + 1e-15


def test_params_validation_and_auto():
    p = B.NormalFormParams(r_star=1, gamma=1.0, alpha=1.0, N="auto", s=5.0)
    assert p.degree_cap == 3
    r = p.resolved(amplitude=0.01 / 8.0)
    assert r.N == 10
    with pytest.raises(ValueError, match="amplitude"):
        p.resolved()
    with pytest.raises(ValueError, match="s:"):
        B.NormalFormParams(r_star=2, gamma=1.0, alpha=1.0, N="auto",
                           s=3.0).resolved(amplitude=0.1)
    with pytest.raises(ValueError, match="N:"):
        B.NormalFormParams(r_star=1, gamma=1.0, alpha=1.0, N=0)
    concrete = B.NormalFormParams(r_star=2, gamma=0.5, alpha=1.0, N=4)
    assert concrete.resolved() is concrete
    assert concrete.threshold == 0.125


# -- homological solver ---------------------------------------------------


def test_solve_homological_examples():
    t = table({1: 1.0, 2: math.sqrt(2)})
    f0 = poly.zero()
    chi, z = B.solve_homological(f0, t, 0.1, 1.0, 1)
    assert not chi and not z
    f_res = poly.monomial(0.5, xi={1: 1}, eta={1: 1})
    chi, z = B.solve_homological(f_res, t, 0.1, 1.0, 1)
    assert not chi and z == f_res
    f_off = poly.monomial(1.0, xi={1: 1}, eta={2: 1})
    chi, z = B.solve_homological(f_off, t, 0.1, 1.0, 1)
    assert not z
    c = chi.terms.get(Monomial({(1,): 1}, {(2,): 1}), 0.0)
    assert c == pytest.approx(1.0 / (1j * (1.0 - math.sqrt(2))))


def test_solve_homological_boundary_is_resonant():
    t = table({1: 1.0})
    f = poly.monomial(2.0, xi={1: 3})  # divisor exactly 3 = gamma/N^alpha
    chi, z = B.solve_homological(f, t, 3.0, 1.0, 1)
    assert not chi and z == f


def test_solve_homological_tail_precondition():
    t = table({j: float(j) for j in range(1, 9)})
    f = poly.monomial(1.0, xi={5: 2, 6: 1})
    with pytest.raises(ValueError, match=r"tail degree > 2 in homological "
                       r"input: xi\[5\]\^2 xi\[6\]\^1$"):
        B.solve_homological(f, t, 1.0, 1.0, 4)


def test_homological_identity_random():
    rnd = random.Random(3)
    from tests.test_poly import rand_poly
    from bnfsim.resonance import normal_form_membership
    for trial in range(25):
        nmodes = rnd.randint(2, 8)
        t = table({j: rnd.uniform(0.3, 4.0)
                   for j in range(-nmodes, nmodes + 1) if j != 0})
        f = rand_poly(rnd, nterms=rnd.randint(1, 10), nmodes=nmodes,
                      maxdeg=6)
        N = rnd.randint(max(1, nmodes - 2), nmodes)
        f = f.filter([tail_degree(m, N) <= 2 for m in terms(f)])
        if not f:
            continue
        gamma = 10 ** rnd.uniform(-3, 0)
        chi, z = B.solve_homological(f, t, gamma, 1.0, N)
        h0 = poly.quadratic_diagonal({m: t.omega_of(m) for m in t.modes()})
        res = (poisson_bracket(h0, chi) + z - f).l1()
        assert res <= 1e-12 * max(f.l1(), 1e-300)
        assert all(normal_form_membership(z, t, gamma, 1.0, N))


# -- Lie transform --------------------------------------------------------


def test_lie_transform_identity_and_rejects():
    g = poly.monomial(1.0, xi={1: 2}, eta={2: 1})
    assert B.lie_transform(g, poly.zero(), 6) == (g, 0.0)
    quad = poly.monomial(1.0, xi={1: 1}, eta={1: 1})
    with pytest.raises(ValueError, match="chi"):
        B.lie_transform(g, quad, 6)


def test_lie_transform_geometric_oracle():
    # chi = xi^2 eta has flow xi(t) = xi0 / (1 - i t xi0); its Lie series
    # on g = xi is the geometric sum xi (1 + i xi + (i xi)^2 + ...)
    chi = poly.monomial(1.0, xi={1: 2}, eta={1: 1})
    g = xi(1)
    out, _ = B.lie_transform(g, chi, 5)
    expect = poly.zero()
    for n in range(5):
        expect = expect + poly.monomial(1j ** n, xi={1: n + 1})
    assert (out - expect).l1() <= 1e-12
    z0 = 0.1 + 0.05j
    series_val = evaluate(out, {1: z0}, {})
    flow_val = z0 / (1 - 1j * z0)
    assert abs(series_val - flow_val) <= 2 * abs(z0) ** 6


def test_lie_transform_inverse_below_cap():
    rnd = random.Random(8)
    from tests.test_poly import rand_poly
    for _ in range(6):
        g = rand_poly(rnd, nterms=6, nmodes=3, maxdeg=4)
        chi = rand_poly(rnd, nterms=4, nmodes=3, maxdeg=4)
        chi = chi.filter(chi.deg >= 3)
        if not chi or not g:
            continue
        cap = 6
        back, _ = B.lie_transform(B.lie_transform(g, chi, cap)[0], -chi, cap)
        diff = back - g.truncate_above(cap)
        assert diff.l1() <= 1e-10 * max(1.0, g.l1())


def test_lie_transform_overflow_logged():
    # the series is xi (1 + i xi - xi^2 - i xi^3 + ...); under cap 3 the
    # one term dropped is g_3 = -i xi^4, of mass 1
    chi = poly.monomial(1.0, xi={1: 2}, eta={1: 1})
    g = xi(1)
    out, overflow = B.lie_transform(g, chi, 3)
    assert overflow == pytest.approx(1.0)
    assert out.max_degree() <= 3


def test_lie_transform_counts_term_pairs():
    # g_0..g_3 = xi^1..xi^4 (up to factors) each meet chi's one term under
    # cap 5; g_4 brackets to degree 6 and is skipped, which ends the series
    chi = poly.monomial(1.0, xi={1: 2}, eta={1: 1})
    series = B.lie_transform(xi(1), chi, 5)
    assert (series.pairs, series.over_cap) == (4, 1)
    assert B.lie_transform(xi(1), poly.zero(), 5).pairs == 0


# -- normalize -------------------------------------------------------------


def test_normalize_trivial_cases():
    t = table({1: 1.0, 2: math.sqrt(2)})
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, poly.zero(), prm)
    assert not res.Z and not res.f_final and not res.remainder_tail
    assert all(not chi for chi in res.generators)

    t1 = table({1: 1.3})
    P = poly.monomial(0.25, xi={1: 2}, eta={1: 2})
    res = B.normalize(t1, P, B.NormalFormParams(r_star=2, gamma=0.1,
                                                alpha=1.0, N=1))
    assert (res.Z - P).l1() <= 1e-14
    assert all(not chi for chi in res.generators)
    assert res.f_final.l1() <= 1e-14
    assert res.membership_ok()


def test_normalize_single_term_oracle():
    # one non-resonant quartic: chi kills it in one stroke, Z stays empty
    t = table({1: 1.0, 2: math.sqrt(2)})
    P = poly.monomial(0.3, xi={1: 3}, eta={2: 1})
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, P, prm)
    assert res.Z.l1() <= 1e-14
    div = 3.0 - math.sqrt(2)
    c = res.generators[1].terms.get(Monomial({(1,): 3}, {(2,): 1}), 0.0)
    assert c == pytest.approx(0.3 / (1j * div))
    assert res.f_final.l1() <= 1e-12
    assert not res.generators[0]


def test_normalize_mixed_keeps_resonant():
    t = table({1: 1.0, 2: math.sqrt(2)})
    act = poly.monomial(0.4, xi={1: 2}, eta={1: 2})
    off = poly.monomial(0.2, xi={1: 3}, eta={2: 1})
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, act + off, prm)
    assert (res.Z - act).l1() <= 1e-12
    assert res.f_final.l1() <= 1e-10
    assert res.membership_ok()
    assert res.ledger.check()


def conjugation_identity_error(t, P, res):
    """l1 gap in lie(H0+P) = H0 + Z + carry + tail-remainder."""
    h0 = poly.quadratic_diagonal({m: t.omega_of(m) for m in t.modes()})
    cap = res.params.degree_cap
    lhs = B.lie_compose(h0 + P.truncate_above(cap), res.generators, cap)
    rhs = h0 + res.Z + res.f_final + res.remainder_tail
    return (lhs - rhs).l1()


def test_normalize_conjugation_identity():
    rnd = random.Random(17)
    from tests.test_poly import rand_poly
    t = table({j: rnd.uniform(0.5, 3.0)
               for j in range(-4, 5) if j != 0})
    for mode in (B.DEGREE_BY_DEGREE, B.BLOCK):
        for trial in range(4):
            P = rand_poly(rnd, nterms=8, nmodes=4, maxdeg=5)
            P = P.filter(P.deg >= 3)
            if not P:
                continue
            prm = B.NormalFormParams(r_star=3, gamma=0.2, alpha=1.0, N=3,
                                     mode=mode)
            res = B.normalize(t, P, prm)
            err = conjugation_identity_error(t, P, res)
            assert err <= 1e-10 * max(1.0, P.l1()), (mode, trial, err)
            assert res.membership_ok()
            assert res.ledger.check()


def test_normalize_demo_model():
    kappa = 0.1
    t, P = demo_hamiltonian(kappa)
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, P, prm)
    # cubic generator removes the two cubic terms, quartic step the rest
    assert res.generators[0].degrees() == [3]
    assert res.generators[1].degrees() == [4]
    # hand-computed resonant quartics: the original action term plus the
    # cubic-stage correction (1/2){chi_3, f_3} = (kappa^2/d)(xi1^2 eta1^2
    # - 4 I1 I2) with d = 2 - sqrt(2)
    d = 2.0 - math.sqrt(2.0)
    c_cross = res.Z.terms.get(
        Monomial({(1,): 1, (2,): 1}, {(1,): 1, (2,): 1}), 0.0)
    c_sq = res.Z.terms.get(Monomial({(1,): 2}, {(1,): 2}), 0.0)
    assert c_cross == pytest.approx(kappa - 4.0 * kappa ** 2 / d, rel=1e-12)
    assert c_sq == pytest.approx(kappa ** 2 / d, rel=1e-12)
    assert conjugation_identity_error(t, P, res) <= 1e-12
    assert res.membership_ok()


def test_normalize_momentum_conservation():
    # zero-momentum quartic on three modes: xi1 xi3 eta2^2 and flips
    t = table({1: 1.0, 2: 1.7, 3: 2.9})
    P = (poly.monomial(0.2, xi={1: 1, 3: 1}, eta={2: 2})
         + poly.monomial(0.2, xi={2: 2}, eta={1: 1, 3: 1})
         + poly.monomial(0.1, xi={1: 1, 2: 1}, eta={1: 1, 2: 1}))
    assert P.is_zero_momentum()
    prm = B.NormalFormParams(r_star=2, gamma=0.05, alpha=1.0, N=3)
    res = B.normalize(t, P, prm)
    assert res.Z.is_zero_momentum()
    assert all(chi.is_zero_momentum() for chi in res.generators)
    assert res.f_final.is_zero_momentum()


def test_normalize_order_four(monkeypatch):
    # the theorem's order r at r = 4: a normal form through degree 6 on the
    # 1-d torus, where P and every bracket keep zero momentum
    system = dynamics.build_model_hamiltonian("nls_dd", d=1, jmax=5,
                                              kappa=0.5)
    assert system.P.is_zero_momentum()
    solve, solves = B.solve_homological, []

    def recorded(f, *args):
        chi, z = solve(f, *args)
        solves.append((f, chi, z))
        return chi, z
    monkeypatch.setattr(B, "solve_homological", recorded)
    prm = B.NormalFormParams(r_star=4, gamma=0.05, alpha=1.0, N=3)
    res = B.normalize(system.table, system.P, prm)
    assert res.membership_ok()
    assert 3 <= res.Z.min_degree() and res.Z.max_degree() == 6
    for i, chi in enumerate(res.generators):
        assert not chi or chi.degrees() == [i + 3]
    assert res.generators[3]
    assert res.Z.is_zero_momentum()
    assert all(chi.is_zero_momentum() for chi in res.generators)
    assert len(solves) == 4
    for f, chi, z in solves:
        h0 = poly.quadratic_diagonal(
            {m: system.table.omega_of(m) for m in f.modes})
        res_l1 = (poisson_bracket(h0, chi) + z - f).l1()
        assert res_l1 <= 1e-12 * max(f.l1(), 1e-300)


def test_remainder_scales_with_the_order():
    # H(Phi(z)) - (H0 + Z)(z) on states over the modes |j| <= N, of size
    # eps: the first term the normal form leaves has degree r* + 4 (the
    # quartic has no odd degrees), so the log-log slope is 6 at r* = 2 and
    # 8 at r* = 4 (measured within 0.1 of both over 8 directions each)
    system = dynamics.build_model_hamiltonian("nls_dd", d=1, jmax=5,
                                              kappa=0.5)
    layout = system.modes()
    h0 = poly.quadratic_diagonal(system.table.omega)
    H = value_table(h0 + system.P, layout)
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    low = np.array([abs(m[0]) <= 3 for m in layout])
    sizes = [0.2, 0.1, 0.05]
    for r_star in (2, 4):
        prm = B.NormalFormParams(r_star=r_star, gamma=0.05, alpha=1.0, N=3)
        res = B.normalize(system.table, system.P, prm)
        K = value_table(h0 + res.Z, layout)
        plan = B.transport_plan(res.generators, layout, "forward")
        for _ in range(2):
            d = (rng.standard_normal(len(layout))
                 + 1j * rng.standard_normal(len(layout))) * low
            d /= np.linalg.norm(d)
            gap = [abs(H.eval(B.apply_transport(plan, eps * d))
                       - K.eval(eps * d)) for eps in sizes]
            slope = np.polyfit(np.log(sizes), np.log(gap), 1)[0]
            assert abs(slope - (r_star + 4)) <= 0.3, (r_star, slope)


def test_normalize_tail_remainder_transported():
    # modes beyond N enter cubically: the term goes to the tail remainder
    t = table({j: float(j) + 0.1 for j in range(1, 6)})
    tail_cubic = poly.monomial(0.3, xi={3: 1, 4: 1}, eta={5: 1})
    low = poly.monomial(0.2, xi={1: 2}, eta={1: 1, 2: 1})
    prm = B.NormalFormParams(r_star=2, gamma=0.05, alpha=1.0, N=2)
    res = B.normalize(t, tail_cubic + low, prm)
    assert res.remainder_tail.terms.get(
        Monomial({(3,): 1, (4,): 1}, {(5,): 1}), 0.0) == pytest.approx(0.3)
    assert res.ledger.tail_cubic_mass[0] > 0
    assert conjugation_identity_error(t, tail_cubic + low, res) <= 1e-12
    for mono in terms(res.Z):
        assert tail_degree(mono, 2) <= 2


def test_normalize_rejects_low_degree():
    t = table({1: 1.0})
    with pytest.raises(ValueError, match="P"):
        B.normalize(t, xi(1), B.NormalFormParams(
            r_star=1, gamma=0.1, alpha=1.0, N=1))


# -- canonicity and state transport ---------------------------------------


def rand_quadratic(rnd, modes):
    p = poly.zero()
    for _ in range(4):
        a, b = rnd.choice(modes), rnd.choice(modes)
        kind = rnd.randrange(3)
        c = complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
        if kind == 0:
            xd = {a: 1}
            xd[b] = xd.get(b, 0) + 1
            p = p + poly.monomial(c, xi=xd)
        elif kind == 1:
            p = p + poly.monomial(c, xi={a: 1}, eta={b: 1})
        else:
            ed = {a: 1}
            ed[b] = ed.get(b, 0) + 1
            p = p + poly.monomial(c, eta=ed)
    return p


def test_canonicity_through_cap():
    t, P = demo_hamiltonian(0.1)
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, P, prm)
    cap = prm.degree_cap
    rnd = random.Random(23)
    for _ in range(5):
        F = rand_quadratic(rnd, [1, 2])
        G = rand_quadratic(rnd, [1, 2])
        FT = B.lie_compose(F, res.generators, cap)
        GT = B.lie_compose(G, res.generators, cap)
        lhs = poisson_bracket(FT, GT)
        rhs = B.lie_compose(poisson_bracket(F, G), res.generators, cap)
        diff = lhs - rhs
        for d in range(0, cap):
            assert diff.homogeneous_part(d).l1() <= 1e-10


def transform(x, generators, layout, direction="forward", tol=1e-12):
    return B.apply_transport(
        B.transport_plan(generators, layout, direction, tol), np.asarray(x))


def test_transform_state_identity_and_flow_oracle():
    assert transform([0.1 + 0.2j], [], [(1,)]) == [0.1 + 0.2j]
    zeros = [poly.zero(), poly.zero()]
    assert transform([0.1], zeros, [(1,)]) == [0.1]
    # chi = xi^2 eta: xi(1) = xi0 / (1 - i xi0)
    chi = poly.monomial(1.0, xi={1: 2}, eta={1: 1})
    z0 = 0.08 + 0.03j
    out = transform([z0], [chi], [(1,)], "forward", tol=1e-13)
    assert abs(out[0] - z0 / (1 - 1j * z0)) <= 1e-11
    back = transform(out, [chi], [(1,)], "inverse", tol=1e-13)
    assert abs(back[0] - z0) <= 1e-11


def test_transport_plan_rejects_modes_outside_the_layout():
    chi = poly.monomial(1.0, xi={1: 2}, eta={2: 1})
    with pytest.raises(ValueError, match=r"layout: .* \[\(2,\)\]"):
        B.transport_plan([chi], [(1,)])
    # the plan keeps the layout it is given, wider than the generators' own
    plan = B.transport_plan([chi], [(1,), (2,), (3,)])
    assert plan.steps[0].eval(np.array([0.1, 0.2, 0.3])).shape == (3,)


def test_transform_state_matches_function_composition():
    t, P = demo_hamiltonian(0.12)
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, P, prm)
    rnd = random.Random(4)
    z = {(1,): 0.01 * complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
         (2,): 0.01 * complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))}
    F = poly.monomial(1.0, xi={1: 1}, eta={2: 1}) \
        + poly.monomial(1.0, xi={2: 1}, eta={1: 1})
    # uncapped copies: the composed series must be accurate well past the
    # normalization cap for the pointwise comparison to be tight
    gens = [poly_of(chi.terms) for chi in res.generators]
    lhs = evaluate_real_slice(B.lie_compose(F, gens, 8), z)
    layout = [(1,), (2,)]
    pt = transform([z[m] for m in layout], res.generators, layout,
                   "forward", tol=1e-13)
    rhs = evaluate_real_slice(F, dict(zip(layout, pt)))
    assert abs(lhs - rhs) <= 1e-10


def test_transform_roundtrip_and_displacement_scaling():
    t, P = demo_hamiltonian(0.15)
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    res = B.normalize(t, P, prm)
    rnd = random.Random(9)
    layout = [(1,), (2,)]
    disp = []
    for size in (0.1, 0.05, 0.025):
        z = []
        for j in (1, 2):
            ph = rnd.uniform(0, 2 * math.pi)
            z.append(size / math.sqrt(2.0) * complex(math.cos(ph),
                                                     math.sin(ph)))
        fwd = transform(z, res.generators, layout, "forward")
        back = transform(fwd, res.generators, layout, "inverse")
        rt = np.max(np.abs(back - z))
        assert rt <= 1e-9
        disp.append(np.max(np.abs(fwd - z)))
    s1 = math.log(disp[0] / disp[1]) / math.log(2.0)
    s2 = math.log(disp[1] / disp[2]) / math.log(2.0)
    assert abs(s1 - 2.0) <= 0.2 and abs(s2 - 2.0) <= 0.2


# -- batched transport --------------------------------------------------------


# the benchmark's transport system: nls1d_dirichlet, jmax 6, a 441-term P
TRANSPORT_CFG = {
    "model": "nls1d_dirichlet", "jmax": 6, "kappa": 0.25,
    "potential.family": "nls_cosine",
    "potential.params": {"R": 0.5, "sigma": 0.4, "kmax": 9},
    "potential.seed": 3, "r_star": 2, "gamma": 0.002, "N": 6, "s": 4.0}


def reference_flow(table, sign, x0, tol):
    """One state through a time-1 flow as before batching: RK4 from 64
    steps, doubling up to 8192, on a row-product field with bincount."""
    n = len(x0)

    def field(x):
        G = np.concatenate([x, np.conj(x), [1.0]])
        vals = table.coeff * np.prod(G[table.vidx], axis=1)
        return (np.bincount(table.out, vals.real, minlength=n)
                + 1j * np.bincount(table.out, vals.imag, minlength=n))

    def run(steps):
        h = 1.0 / steps
        x = x0.astype(complex)
        for _ in range(steps):
            k1 = 1j * sign * field(x)
            k2 = 1j * sign * field(x + 0.5 * h * k1)
            k3 = 1j * sign * field(x + 0.5 * h * k2)
            k4 = 1j * sign * field(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    prev, steps = run(64), 128
    for _ in range(7):
        cur = run(steps)
        if np.max(np.abs(cur - prev)) <= tol * (1.0 + np.max(np.abs(cur))):
            return cur
        prev, steps = cur, 2 * steps
    raise ArithmeticError("reference flow did not converge")


def test_batched_transport_matches_per_frame_reference():
    system = cli.build_system(TRANSPORT_CFG, 0)
    res = B.normalize(system.table, system.P, cli.resolved_params(
        TRANSPORT_CFG))
    layout = system.modes()
    plan = B.transport_plan(res.generators, layout, "inverse")
    assert plan.steps
    # the first run of the transport workload: eps 0.1, T = 0.2 eps^-2
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cli.stream_seed(0, "initial", 0), spawn_key=(0,)))
    z0 = dynamics.initial_state(layout, 0.1, 4.0, rng)
    traj = dynamics.integrate(system, z0, 20.0, 0.01, stride=50)
    frames = traj.states
    assert frames.shape == (41, 6)
    got = B.apply_transport(plan, frames)
    want = frames.astype(complex)
    for table in plan.steps:
        want = np.array([reference_flow(table, plan.sign, x, plan.tol)
                         for x in want])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # a single state is a batch of one
    one = B.apply_transport(plan, frames[7])
    assert one.shape == (6,)
    assert np.max(np.abs(one - got[7])) <= 1e-15 * np.max(np.abs(want))


def test_unit_flow_rows_meet_tolerance_in_a_mixed_batch():
    # chi = xi^2 eta: xi(1) = xi0 / (1 - i xi0); amplitudes 1e-4 to 0.36
    table = eta_gradient_table(poly.monomial(1.0, xi={1: 2}, eta={1: 1}),
                               [(1,)])
    z0 = np.array([[1e-4], [0.01 + 0.02j], [-0.15j], [0.3 + 0.2j], [0.0]])
    tol = 1e-12
    out = B._unit_flow(table, 1.0, z0, tol)
    exact = z0 / (1.0 - 1j * z0)
    for row, want, x0 in zip(out, exact, z0):
        assert abs(row[0] - want[0]) <= tol * (1.0 + abs(want[0]))
        alone = B._unit_flow(table, 1.0, x0[None], tol)
        assert abs(alone[0, 0] - row[0]) <= 1e-15 * abs(want[0])
    # the zero row passes at once; the other needs err == 0 and never does
    with pytest.raises(ArithmeticError):
        B._unit_flow(table, 1.0, z0[[4, 1]], 0.0)


def test_normalize_ledgers_P_above_cap():
    system = cli.build_system(TRANSPORT_CFG, 0)
    assert len(system.P.terms) == 441
    assert system.P.min_degree() == 4
    # r_star 1 caps the series at degree 3: all of the quartic P is cut
    prm = B.NormalFormParams(r_star=1, gamma=0.002, alpha=1.0, N=6, s=4.0)
    res = B.normalize(system.table, system.P, prm)
    assert not res.Z and not res.f_final
    assert res.ledger.overflow_mass[0] == math.fsum(
        abs(c) for c in system.P.terms.values())
