"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single verdict line; thresholds and model setups are
frozen here on purpose (they are the contract, not tuning knobs).
"""

import cmath
import math
import random
import time

import numpy as np

from bnfsim import poly as P
from bnfsim.birkhoff import (NormalFormParams, apply_transport, lie_compose,
                             normalize, nstar, rstar_radius,
                             solve_homological, sstar, transport_plan)
from bnfsim.dynamics import (actions, build_model_hamiltonian,
                             drift_experiment, initial_state, integrate,
                             norm_s)
from bnfsim.exact import GaussRat
from bnfsim.fields import eta_gradient_table
from bnfsim.poly import poisson_bracket
from bnfsim.resonance import (DivisorQuery, PATTERN_NONE,
                              enumerate_near_resonances, measure_scan)
from bnfsim.spectra import (FrequencyTable, expansion_fit, sample_potential,
                            sturm_liouville)

from helpers import (Monomial, enumerate_brute_force, keys, poly_of, product,
                     tail_degree, terms)


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = "criterion %02d %-28s %s  %s" % (num, name,
                                            "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def demo_system():
    return build_model_hamiltonian("demo_2mode", kappa=0.1)


def demo_normal_form():
    sysm = demo_system()
    params = NormalFormParams(r_star=2, gamma=0.4, alpha=1.0, N=2, s=4.0)
    return sysm, normalize(sysm.table, sysm.P, params)


# -- 1: homological identity ------------------------------------------------


def test_criterion_01_homological_identity():
    t0 = time.monotonic()
    rnd = random.Random(4101)
    gamma, alpha, n = 0.1, 1.0, 3
    thr = gamma / n ** alpha
    modes = [(j,) for j in range(-4, 5) if j != 0]
    head = [m for m in modes if abs(m[0]) <= n]
    tail = [m for m in modes if abs(m[0]) > n]
    worst = 0.0
    for _ in range(200):
        om = {m: rnd.choice((-1, 1)) * rnd.uniform(0.3, 4.0) for m in modes}
        table = FrequencyTable(om)
        h0 = P.quadratic_diagonal(om)
        acc = {}
        for _ in range(rnd.randint(3, 10)):
            deg = rnd.randint(3, 6)
            ntail = rnd.randint(0, 2)
            legs = ([rnd.choice(tail) for _ in range(ntail)]
                    + [rnd.choice(head) for _ in range(deg - ntail)])
            xi, eta = {}, {}
            for leg in legs:
                side = xi if rnd.random() < 0.5 else eta
                side[leg] = side.get(leg, 0) + 1
            acc[Monomial(xi, eta)] = complex(rnd.uniform(-2, 2),
                                             rnd.uniform(-2, 2))
        f = poly_of(acc)
        chi, Z = solve_homological(f, table, gamma, alpha, n)
        resid = (poisson_bracket(h0, chi) + Z - f).l1()
        worst = max(worst, resid / max(f.l1(), 1e-300))
        for mono in terms(Z):
            div = sum(om[m] * (dict(mono.xi).get(m, 0)
                               - dict(mono.eta).get(m, 0)) for m in modes)
            assert abs(div) <= thr
            assert tail_degree(mono, n) <= 2
    dt = time.monotonic() - t0
    verdict(1, "homological identity", worst <= 1e-12 and dt < 10.0,
            "max rel residual %.2e, %.1fs" % (worst, dt))


# -- 2: bracket algebra -----------------------------------------------------


def rand_poly(rnd, nterms, maxdeg=3, nmodes=3, exact=False):
    acc = {}
    for _ in range(nterms):
        deg = rnd.randint(1, maxdeg)
        kx = rnd.randint(0, deg)
        xi, eta = {}, {}
        for i in range(deg):
            m = (rnd.randint(-nmodes, nmodes) or 1,)
            side = xi if i < kx else eta
            side[m] = side.get(m, 0) + 1
        if exact:
            c = GaussRat(rnd.randint(-9, 9), rnd.randint(-9, 9))
        else:
            c = complex(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
        acc[Monomial(xi, eta)] = c
    return poly_of(acc)


def test_criterion_02_bracket_algebra():
    t0 = time.monotonic()
    rnd = random.Random(4102)
    worst = 0.0
    for _ in range(100):
        f = rand_poly(rnd, 4)
        g = rand_poly(rnd, 4)
        h = rand_poly(rnd, 3)
        scale = max(1.0, f.l1()) * max(1.0, g.l1()) * max(1.0, h.l1())
        anti = (poisson_bracket(f, g) + poisson_bracket(g, f)).l1()
        jac = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g))).l1()
        leib = (poisson_bracket(f, product(g, h))
                - product(poisson_bracket(f, g), h)
                - product(g, poisson_bracket(f, h))).l1()
        worst = max(worst, anti / scale, jac / scale, leib / scale)
    # exact-rational mode: identically zero
    exact_ok = True
    for _ in range(10):
        f = rand_poly(rnd, 3, exact=True)
        g = rand_poly(rnd, 3, exact=True)
        h = rand_poly(rnd, 2, exact=True)
        exact_ok = exact_ok and not (poisson_bracket(f, g)
                                     + poisson_bracket(g, f))
        exact_ok = exact_ok and not (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g)))
    dt = time.monotonic() - t0
    verdict(2, "bracket algebra", worst <= 1e-12 and exact_ok and dt < 30.0,
            "max rel defect %.2e, exact mode zero, %.1fs" % (worst, dt))


# -- 3: canonicity at truncation order --------------------------------------


def test_criterion_03_canonicity():
    sysm, res = demo_normal_form()
    cap = res.params.degree_cap
    gens = [poly_of(chi.terms) for chi in res.generators]
    rnd = random.Random(4103)
    worst = 0.0
    for _ in range(6):
        F = rand_poly(rnd, 3, maxdeg=2, nmodes=2)
        G = rand_poly(rnd, 3, maxdeg=2, nmodes=2)
        lhs = poisson_bracket(lie_compose(F, gens, 2 * cap),
                              lie_compose(G, gens, 2 * cap))
        rhs = lie_compose(poisson_bracket(F, G), gens, 2 * cap)
        diff = lhs - rhs
        err = sum(abs(c) for m, c in terms(diff).items()
                  if m.degree <= cap - 1)
        worst = max(worst, err)
    # forward then inverse state transport at ||z||_s = 0.05
    rng = np.random.default_rng(np.random.SeedSequence(4103))
    layout = sysm.modes()
    z = initial_state(layout, 0.05, 4.0, rng)
    y = apply_transport(transport_plan(res.generators, layout, "forward"), z)
    back = apply_transport(
        transport_plan(res.generators, layout, "inverse"), y)
    rt = math.sqrt(sum(abs(b - a) ** 2 for a, b in zip(z, back)))
    verdict(3, "canonicity", worst <= 1e-10 and rt <= 1e-9,
            "bracket defect %.2e, roundtrip %.2e" % (worst, rt))


# -- 4: resonance enumeration oracle equivalence -----------------------------


def test_criterion_04_enumeration_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(np.random.SeedSequence(4104))
    for _ in range(20):
        om = {(j,): float(rng.choice((-1, 1)) * rng.uniform(0.3, 4.0))
              for j in range(1, 7)}
        gamma = float(rng.uniform(0.05, 0.6))
        for jmax in (2, 3, 4, 5, 6):
            table = FrequencyTable(
                {m: w for m, w in om.items() if abs(m[0]) <= jmax})
            for r in (1, 2, 3):
                q = DivisorQuery(omega=table, r=r, N=min(3, jmax),
                                 gamma=gamma, alpha=1.0, jmax=jmax)
                a = enumerate_near_resonances(q)
                b = enumerate_brute_force(q)
                assert a.complete and b.complete
                assert keys(a) == keys(b), (jmax, r)
    dt = time.monotonic() - t0
    verdict(4, "enumeration equivalence", dt < 60.0,
            "20 tables x 15 configs, %.1fs" % dt)


# -- 5: spectral exactness ----------------------------------------------------


def test_criterion_05_spectral_exactness():
    flat = sturm_liouville({}, "dirichlet", jmax=20)
    j = np.arange(1, 21, dtype=float)
    flat_err = float(np.max(np.abs(flat.lams - j ** 2)))

    samp = sample_potential("nls_cosine",
                            {"R": 0.3, "sigma": 0.7, "kmax": 12}, seed=7)
    r1 = sturm_liouville(samp, "dirichlet", jmax=10)
    shifted = dict(samp.coeffs)
    shifted[0] = 0.7
    r2 = sturm_liouville(shifted, "dirichlet", jmax=10)
    shift_err = float(np.max(np.abs(r2.lams - r1.lams - 0.7)))

    ra = sturm_liouville(samp, "dirichlet", jmax=24, basis_size=256)
    rb = sturm_liouville(samp, "dirichlet", jmax=24, basis_size=512)
    fa = expansion_fit(ra.lams, samp.mass)
    fb = expansion_fit(rb.lams, samp.mass)
    stable = (math.isfinite(fa.c1) and math.isfinite(fa.c2)
              and abs(fb.c1 - fa.c1) <= 0.05 * abs(fa.c1)
              and abs(fb.c2 - fa.c2) <= 0.05 * abs(fa.c2))
    verdict(5, "spectral exactness",
            flat_err <= 1e-10 and shift_err <= 1e-10 and stable,
            "V=0 err %.1e, shift err %.1e, fit drift %.1f%%/%.1f%%"
            % (flat_err, shift_err, 100 * abs(fb.c1 - fa.c1) / abs(fa.c1),
               100 * abs(fb.c2 - fa.c2) / abs(fa.c2)))


# -- 6: transform displacement scaling ---------------------------------------


def test_criterion_06_displacement_scaling():
    sysm, res = demo_normal_form()
    rng = np.random.default_rng(np.random.SeedSequence(4106))
    sizes = [0.1, 0.05, 0.025]
    direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    layout = sysm.modes()
    plan = transport_plan(res.generators, layout, "forward")
    disp = []
    for rho in sizes:
        z = initial_state(layout, rho, 4.0, rng)
        y = apply_transport(plan, z)
        disp.append(norm_s(y - z, layout, 4.0))
    slope = float(np.polyfit(np.log(sizes), np.log(disp), 1)[0])
    verdict(6, "displacement scaling", abs(slope - 2.0) <= 0.2,
            "slope %.3f" % slope)


# -- 7: tail-remainder scaling ------------------------------------------------


def _fft_grid(K: int):
    G = 4 * K + 1
    f = np.fft.fftfreq(G, 1.0 / G).astype(int)
    kx, ky = np.meshgrid(f, f, indexing="ij")
    return G, np.sqrt(kx ** 2 + ky ** 2)


def _triple(a, b, c):
    # T_j = sum_{k1+k2-k3=j} a_{k1} b_{k2} conj(c_{k3}); the grid is wide
    # enough (G = 4K+1) that wrapped frequencies stay out of |j| <= K
    G = a.shape[0]
    return np.fft.fft2(np.fft.ifft2(a) * np.fft.ifft2(b)
                       * np.conj(np.fft.ifft2(c))) * G ** 4


def _tail_field(Z, low, hat, c0):
    """Hamiltonian field of the >=3-tail-legs part of the flat quartic."""
    b = np.where(low, Z, 0.0)
    h = np.where(hat, Z, 0.0)
    out = np.where(hat, _triple(h, h, b) + 2.0 * _triple(h, b, h)
                   + _triple(h, h, h), 0.0)
    out += np.where(low, _triple(h, h, h), 0.0)
    return 2.0 * c0 * out


def test_criterion_07_tail_remainder_scaling():
    # the FFT evaluator must agree with the assembled model exactly
    sysm = build_model_hamiltonian("nls_dd", d=2, jmax=3, kappa=1.0)
    layout = sysm.modes()
    tab = eta_gradient_table(sysm.P.tail_split(1).high, layout)
    G, rad = _fft_grid(3)
    inside = rad <= 3 + 1e-9
    low = inside & (rad <= 1 + 1e-9)
    hat = inside & ~(rad <= 1 + 1e-9)
    rng = np.random.default_rng(np.random.SeedSequence(4107))
    Z = np.zeros((G, G), complex)
    zv = []
    for m in layout:
        v = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        Z[m[0], m[1]] = v
        zv.append(v)
    F1 = tab.eval(np.array(zv))
    F2 = _tail_field(Z, low, hat, (2 * math.pi) ** -2)
    agree = max(abs(F1[i] - F2[m[0], m[1]]) for i, m in enumerate(layout))
    assert agree <= 1e-12

    # measured sup over a concentration family on the sphere R = 0.5
    K, R = 72, 0.5
    c0 = (2 * math.pi) ** -2
    G, rad = _fft_grid(K)
    inside = rad <= K + 1e-9
    slopes = {}
    for s in (3.0, 4.0):
        ws = (1.0 + rad) ** (2 * s)
        vals = []
        for n in (4, 8, 16):
            low = inside & (rad <= n + 1e-9)
            hat = inside & ~(rad <= n + 1e-9)
            band = hat & (rad <= 2 * n + 1e-9)
            best = 0.0
            for beta in (0.7, 0.9, 0.97):
                for q in (0.0, -2.0, -4.0, -6.0, -8.0):
                    z = np.zeros((G, G))
                    z[low] = (1.0 + rad[low]) ** -(s + 0.5)
                    z[band] = (1.0 + rad[band]) ** q
                    hp = z.copy()
                    hp[low] = 0.0
                    lp = z.copy()
                    lp[hat] = 0.0
                    nl = math.sqrt(float(np.sum(2 * ws * lp ** 2)))
                    nt = math.sqrt(float(np.sum(2 * ws * hp ** 2)))
                    z = ((math.sqrt(1 - beta ** 2) * R / nl) * lp
                         + (beta * R / nt) * hp).astype(complex)
                    F = _tail_field(z, low, hat, c0)
                    best = max(best, math.sqrt(
                        float(np.sum(2 * ws * np.abs(F) ** 2))))
            vals.append(best)
        slopes[s] = float(np.polyfit(np.log([4, 8, 16]), np.log(vals), 1)[0])
    ok = all(abs(slopes[s] + (s - 1.0)) <= 0.3 for s in (3.0, 4.0))
    verdict(7, "tail-remainder scaling", ok,
            "slopes s=3: %.3f (want -2.0), s=4: %.3f (want -3.0)"
            % (slopes[3.0], slopes[4.0]))


# -- 8: action-drift scaling ---------------------------------------------------


def test_criterion_08_action_drift_scaling():
    t0 = time.monotonic()
    pot = sample_potential("nls_cosine", {"R": 0.5, "sigma": 0.4, "kmax": 9},
                           seed=3)
    sysm = build_model_hamiltonian("nls1d_dirichlet", jmax=9, kappa=0.25,
                                   potential=pot)
    # (r-NR) verification: no divisor of order <= r+2 falls below gamma/N
    probe = enumerate_near_resonances(DivisorQuery(
        omega=sysm.table, r=2, N=9, gamma=1e9, alpha=1.0, jmax=9.0))
    dmin = min(abs(d) for d in probe.divisor.tolist() if abs(d) > 0)
    gamma = 0.5 * dmin * 9.0
    hits = enumerate_near_resonances(DivisorQuery(
        omega=sysm.table, r=2, N=9, gamma=gamma, alpha=1.0, jmax=9.0))
    assert not len(hits.divisor)

    eps_list = [0.2, 0.1, 0.05]
    rows = drift_experiment(sysm, None, eps_list, [12345], r=2, s=4.0,
                            dt=0.0045, stride=50).rows
    finals = {}
    for row in rows:
        finals[row.eps] = row
    escapes = sum(r.escaped for r in finals.values())
    drifts = [finals[e].max_weighted_action_drift for e in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(drifts), 1)[0])
    dt = time.monotonic() - t0
    verdict(8, "action-drift scaling",
            slope >= 2.5 and escapes == 0 and dt < 600.0,
            "slope %.3f, escapes %d, %.0fs" % (slope, escapes, dt))


# -- 9: pattern theorems at desk scale -----------------------------------------


def test_criterion_09_pattern_theorems():
    # periodic NLW: the paired mode trades action inside the pair, so the
    # individual action moves while the pair sum J hardly does
    pot = sample_potential(
        "nlw_periodic", {"R": 0.1, "sigma": 1.0, "kmax": 6, "mass_span": 1.0},
        seed=2)
    sysm = build_model_hamiltonian("nlw_periodic", jmax=3, kappa=1.0,
                                   potential=pot)
    eps = 0.1
    layout = sysm.modes()
    z = {m: 0.0 for m in layout}
    z[(2,)] = 1.0
    z[(-2,)] = 0.75 * cmath.exp(1j * math.pi / 3)
    z[(1,)] = 0.2
    z[(-1,)] = 0.15
    z[(3,)] = 0.05
    z[(-3,)] = 0.04
    x = np.array([z[m] for m in layout])
    x = x * eps / norm_s(x, layout, 1.0)
    traj = integrate(sysm.H, x, eps ** -2.0, 0.02, stride=20)
    a = actions(traj.states)
    p, q = layout.index((2,)), layout.index((-2,))
    dI = float(np.max(np.abs(a[:, p] - a[0, p])))
    dJ = float(np.max(np.abs(a[:, p] + a[:, q] - a[0, p] - a[0, q])))
    ratio = dI / dJ

    # x-independent d-dim NLS: the normal form depends on actions only
    pot2 = sample_potential("convolution_d",
                            {"R": 0.5, "kmax": 2, "d": 2, "decay": 2.0},
                            seed=9)
    sys2 = build_model_hamiltonian("nls_dd", d=2, jmax=2, kappa=0.1,
                                   potential=pot2)
    res = normalize(sys2.table, sys2.P,
                    NormalFormParams(r_star=2, gamma=1e-8, alpha=1.0, N=2,
                                     s=6.0))
    action_only = (res.Z.terms and res.membership_ok()
                   and all(dict(m.xi) == dict(m.eta) for m in terms(res.Z)))
    verdict(9, "pattern theorems", ratio >= 10.0 and bool(action_only),
            "I/J drift ratio %.1f, Z actions-only over %d terms"
            % (ratio, len(res.Z.terms)))


# -- 10: Monte Carlo measure trend ----------------------------------------------


def test_criterion_10_measure_trend():
    t0 = time.monotonic()
    q = DivisorQuery(omega=None, r=3, N=2, gamma=1e-4, alpha=1.0, jmax=4.0)
    est = measure_scan("convolution_d",
                       {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0},
                       q, [1e-4, 1e-5, 1e-6, 1e-7], 100, seed=2026)
    fr = [e.fraction for e in est]
    mono = all(a >= b for a, b in zip(fr, fr[1:]))
    last = est[-1]
    exempt = set(map(str, last.pattern_histogram)) - {PATTERN_NONE}
    structural = exempt <= {"SHELL", "PAIR_TAIL"}
    # the candidate search finishes under the default node_cap
    complete = all(e.complete for e in est)
    dt = time.monotonic() - t0
    verdict(10, "measure trend",
            mono and last.fraction <= 0.05 and structural and complete
            and dt < 300.0,
            "fractions %s, residual patterns %s, complete=%s, %.0fs"
            % (["%.2f" % f for f in fr], sorted(exempt), complete, dt))


# -- 11: parameter formulas -------------------------------------------------------


def test_criterion_11_parameter_formulas():
    ok = (nstar(1, 1.0, 0.01) == 10
          and nstar(1, 1.0, 1.0 / 16.0) == 4
          and nstar(2, 1.0, 0.01) == 3
          and sstar(2, 1.0) == 10.0
          and sstar(1, 1.0) == 4.0
          and rstar_radius(1.0, 1, 10, 1.0, 1.0)
          == 0.0015328310048810096)
    verdict(11, "parameter formulas", ok, "closed forms exact")
