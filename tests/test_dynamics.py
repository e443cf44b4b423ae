import dataclasses
import math
import random

import numpy as np
import pytest

from bnfsim import birkhoff as B
from bnfsim import dynamics as D
from bnfsim import poly
from bnfsim.fields import eta_gradient_table, eval_kernel, value_table
from bnfsim.modes import mode_abs, weight
from bnfsim.spectra import sample_potential, sturm_liouville

from helpers import (Monomial, QuadratureFieldReference,
                     action_groups_reference, conj_flip, evaluate_real_slice,
                     hamiltonian_flow_field, integrate_reference,
                     merge_quartic_reference, momentum, terms, total_momentum,
                     write_drift_csv_reference)


def rand_state(rnd, modes, scale=0.3):
    return {m: scale * complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
            for m in modes}


# -- model construction: quadrature oracles --------------------------------


def quad_grid(n=512):
    x = (np.arange(n) + 0.5) * (math.pi / n)
    return x, math.pi / n


def test_nls1d_single_mode_coefficient():
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=1, kappa=0.3)
    c = sys1.P.terms.get(Monomial({(1,): 2}, {(1,): 2}), 0.0)
    # psi = sqrt(2) xi phi_1, integral of phi_1^4 = 3/(2 pi)
    assert c == pytest.approx(0.3 * 4.0 * 3.0 / (2.0 * math.pi), rel=1e-12)
    assert sys1.table.omega_of(1) == pytest.approx(1.0, abs=1e-10)


def test_nls1d_matches_direct_quadrature():
    rnd = random.Random(5)
    for potential in (None, {1: 0.4, 2: -0.2}):
        sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=4,
                                         kappa=0.7, potential=potential)
        res = sturm_liouville(D._as_sample(potential), "dirichlet", 4)
        x, w = quad_grid()
        rows = D._basis_rows(res, x)
        z = rand_state(rnd, sys1.modes())
        psi = math.sqrt(2.0) * sum(
            z[(j,)] * rows[j - 1] for j in range(1, 5))
        direct = 0.7 * float(np.sum(np.abs(psi) ** 4)) * w
        val = evaluate_real_slice(sys1.P, z)
        assert complex(val).real == pytest.approx(direct, rel=1e-10)
        assert abs(complex(val).imag) <= 1e-12 * abs(direct)


def test_nlw_matches_direct_quadrature():
    rnd = random.Random(7)
    sys1 = D.build_model_hamiltonian("nlw_dirichlet", jmax=4, kappa=1.2,
                                     mass=0.5, potential={2: 0.3})
    res = sturm_liouville(D._as_sample({2: 0.3}, 0.5), "dirichlet", 4)
    x, w = quad_grid()
    rows = D._basis_rows(res, x)
    z = rand_state(rnd, sys1.modes())
    u = sum((2.0 * sys1.table.omega_of(j)) ** -0.5
            * 2.0 * z[(j,)].real * rows[j - 1] for j in range(1, 5))
    direct = 1.2 * float(np.sum(u ** 4)) * w
    val = complex(evaluate_real_slice(sys1.P, z))
    assert val.real == pytest.approx(direct, rel=1e-10)


def test_nlw_mass_scaling_of_quartic():
    # four A^(-1/2) legs: coefficient of xi_1^4 scales as (lambda_1+m)^(-1)
    c = {}
    for mass in (0.5, 3.0):
        sys1 = D.build_model_hamiltonian("nlw_dirichlet", jmax=2, kappa=1.0,
                                         mass=mass)
        c[mass] = sys1.P.terms.get(Monomial({(1,): 4}, {}), 0.0)
    assert c[0.5] * (1.0 + 0.5) == pytest.approx(c[3.0] * (1.0 + 3.0),
                                                 rel=1e-10)


def test_nlw_periodic_parity_and_quadrature():
    rnd = random.Random(11)
    sys1 = D.build_model_hamiltonian("nlw_periodic", jmax=2, kappa=0.8,
                                     mass=0.7, potential={1: 0.1})
    # odd number of odd-extended (j > 0) legs integrates to zero on the torus
    for mono in terms(sys1.P):
        n_odd = 0
        for m, e in mono.xi + mono.eta:
            if m[0] > 0:
                n_odd += e
        assert n_odd % 2 == 0
    # torus-grid quadrature oracle with explicitly extended eigenfunctions
    n = 1024
    xt = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    wt = 2.0 * math.pi / n
    dres = sturm_liouville({1: 0.1}, "dirichlet", 2)
    nres = sturm_liouville({1: 0.1}, "neumann", 3)
    drows = D._basis_rows(dres, np.abs(xt))
    nrows = D._basis_rows(nres, np.abs(xt))
    z = rand_state(rnd, sys1.modes())
    u = np.zeros(n)
    for m in sys1.modes():
        j = m[0]
        if j > 0:
            phi = np.sign(xt) * drows[j - 1] / math.sqrt(2.0)
        else:
            phi = nrows[-j] / math.sqrt(2.0)
        u = u + (2.0 * sys1.table.omega_of(m)) ** -0.5 \
            * 2.0 * z[m].real * phi
    direct = 0.8 * float(np.sum(u ** 4)) * wt
    val = complex(evaluate_real_slice(sys1.P, z))
    assert val.real == pytest.approx(direct, rel=1e-9)
    assert sys1.grouping == D.PAIRS


def test_nls_dd_zero_momentum_and_value():
    rnd = random.Random(13)
    sys1 = D.build_model_hamiltonian("nls_dd", d=2, jmax=2, kappa=0.5)
    assert sys1.P.is_zero_momentum()
    assert sys1.P.terms.get(Monomial({(0, 0): 2}, {(0, 0): 2}), 0.0) \
        == pytest.approx(0.5 / (2.0 * math.pi) ** 2, rel=1e-14)
    n = 24
    xs = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    z = rand_state(rnd, sys1.modes(), scale=0.4)
    psi = np.zeros_like(X, dtype=complex)
    for (kx, ky), v in z.items():
        psi += v * np.exp(1j * (kx * X + ky * Y)) / (2.0 * math.pi)
    direct = 0.5 * float(np.sum(np.abs(psi) ** 4)) * (2.0 * math.pi / n) ** 2
    val = complex(evaluate_real_slice(sys1.P, z))
    assert val.real == pytest.approx(direct, rel=1e-10)
    assert sys1.grouping == D.SHELLS


def test_nls_coupled_frequencies_and_sign():
    rnd = random.Random(17)
    sys1 = D.build_model_hamiltonian("nls_coupled", jmax=2, kappa=0.6,
                                     potential2={1: 0.2})
    assert sys1.table.omega_of(1) == pytest.approx(1.0, abs=1e-8)
    lam2 = sturm_liouville({1: 0.2}, "dirichlet", 2).lams
    assert sys1.table.omega_of(-1) == pytest.approx(-lam2[0], rel=1e-12)
    x, w = quad_grid()
    r1 = D._basis_rows(sturm_liouville({}, "dirichlet", 2), x)
    r2 = D._basis_rows(sturm_liouville({1: 0.2}, "dirichlet", 2), x)
    z = rand_state(rnd, sys1.modes())
    psi = z[(1,)] * r1[0] + z[(2,)] * r1[1]
    phi = z[(-1,)] * r2[0] + z[(-2,)] * r2[1]
    direct = -0.6 * float(np.sum(np.abs(psi) ** 2 * np.abs(phi) ** 2)) * w
    val = complex(evaluate_real_slice(sys1.P, z))
    assert val.real == pytest.approx(direct, rel=1e-10)


NLS_POTENTIAL = sample_potential(
    "nls_cosine", {"R": 0.5, "sigma": 0.4, "kmax": 9}, 3)


MODEL_SIZES = [
    ("nls1d_dirichlet", dict(jmax=9, kappa=0.25, potential=NLS_POTENTIAL),
     2025),
    ("nls1d_dirichlet", dict(jmax=6, kappa=0.25, potential=NLS_POTENTIAL),
     441),
    ("nlw_dirichlet", dict(jmax=5, kappa=1.2, mass=0.5, potential={2: 0.3}),
     371),
    ("nlw_periodic", dict(jmax=3, kappa=0.8, mass=0.7, potential={1: 0.1}),
     1196),
    ("nls_coupled", dict(jmax=4, kappa=0.6, potential2={1: 0.2}), 256),
    ("nls_dd", dict(d=2, jmax=3, kappa=0.1), 2893),
]


@pytest.mark.parametrize("model, params, terms", MODEL_SIZES)
def test_model_term_counts(model, params, terms):
    assert len(D.build_model_hamiltonian(model, **params).P) == terms


@pytest.mark.parametrize("model, params, terms", MODEL_SIZES)
def test_quadrature_field_matches_compiled_tables(model, params, terms):
    sys1 = D.build_model_hamiltonian(model, **params)
    layout = sys1.modes()
    quad = sys1.quadrature_field()
    field = eta_gradient_table(sys1.P, layout)
    value = value_table(sys1.P, layout)
    rng = np.random.default_rng(np.random.SeedSequence(71))
    for _ in range(5):
        x = 0.3 * (rng.standard_normal(len(layout))
                   + 1j * rng.standard_normal(len(layout)))
        F = field.eval(x)
        assert np.max(np.abs(quad.eval(x) - F)) <= 1e-12 * np.max(np.abs(F))
        # P itself: the field's weight times the grid sum of the legs'
        # product
        z = np.concatenate([x, np.conj(x)])
        L = [(leg.weights * z[leg.vars]) @ leg.rows for leg in quad.legs]
        v = value.eval(x)
        assert abs(quad.weight * np.sum(np.prod(L, axis=0)) - v) \
            <= 1e-12 * abs(v)


@pytest.mark.parametrize("model, params, terms", MODEL_SIZES)
def test_quadrature_field_matches_the_reference_to_the_bit(model, params,
                                                           terms):
    quad = D.build_model_hamiltonian(model, **params).quadrature_field()
    ref = QuadratureFieldReference(quad)
    rng = np.random.default_rng(np.random.SeedSequence(72))
    for _ in range(3):
        x = 0.3 * (rng.standard_normal(quad.field_of_legs.shape[0])
                   + 1j * rng.standard_normal(quad.field_of_legs.shape[0]))
        assert np.array_equal(quad.eval(x), ref.eval(x))


@pytest.mark.parametrize("model, params, terms",
                         [m for m in MODEL_SIZES if m[0] != "nls_dd"])
def test_finer_quadrature_grid_gives_the_same_quartic(model, params, terms):
    # nls_dd is left out: its grid is fixed by jmax and takes no quad_n
    sys1 = D.build_model_hamiltonian(model, **params)
    # the field's weight is +-kappa * pi / n on the default n-point
    # midpoint grid
    w1 = sys1.quadrature_field().weight
    n = round(math.pi * abs(params["kappa"] / w1))
    sys2 = D.build_model_hamiltonian(model, quad_n=2 * n, **params)
    assert set(sys2.P.terms) == set(sys1.P.terms)
    big = max(abs(c) for c in sys1.P.terms.values())
    assert max(abs(sys2.P.terms[m] - c) for m, c in sys1.P.terms.items()) \
        <= 1e-13 * big
    assert sys2.quadrature_field().weight == w1 / 2


def test_nlw_dirichlet_takes_the_drawn_mass_of_an_nlw_periodic_sample():
    pot = sample_potential("nlw_periodic", {"R": 0.1, "sigma": 1.0, "kmax": 6,
                                            "mass_span": 1.0}, 2)
    lams = sturm_liouville(pot, "dirichlet", 3).lams
    for kw in ({}, {"mass": 3.0}):
        t = D.build_model_hamiltonian("nlw_dirichlet", jmax=3, potential=pot,
                                      **kw).table
        assert [t.omega_of(j) for j in (1, 2, 3)] == \
            [math.sqrt(lam + pot.mass) for lam in lams.tolist()]


def test_nlw_periodic_takes_mass_beside_an_nls_cosine_sample():
    pot = sample_potential("nls_cosine", {"R": 0.1, "sigma": 1.0, "kmax": 6},
                           2)
    for mass in (0.5, 3.0):
        got = D.build_model_hamiltonian("nlw_periodic", jmax=2, mass=mass,
                                        potential=pot).table.omega
        want = D.build_model_hamiltonian("nlw_periodic", jmax=2, mass=mass,
                                         potential=pot.coeffs).table.omega
        assert got == want


def test_build_model_validation():
    with pytest.raises(ValueError, match="model"):
        D.build_model_hamiltonian("heat_equation")


# -- flow field -------------------------------------------------------------


def test_flow_field_linear_rotation():
    H = poly.monomial(2.5, xi={1: 1}, eta={1: 1})
    out = hamiltonian_flow_field(H, [0.2 + 0.1j])
    assert out[0] == pytest.approx(-1j * 2.5 * (0.2 + 0.1j))


def test_flow_field_rejects_complex_hamiltonian():
    H = poly.monomial(1.0 + 0.5j, xi={1: 2}, eta={2: 1})
    with pytest.raises(ValueError, match="H:"):
        hamiltonian_flow_field(H, [0.1, 0.1])


def test_flow_field_finite_difference():
    rnd = random.Random(23)
    q = poly.monomial(0.4, xi={1: 2}, eta={2: 1}) \
        + poly.monomial(-0.2, xi={1: 1, 2: 1}, eta={1: 1})
    H = q + conj_flip(q)
    assert H.reality_defect() <= 1e-14
    z = rand_state(rnd, [(1,), (2,)])
    F = hamiltonian_flow_field(H, [z[(1,)], z[(2,)]])
    h = 1e-5

    def hval(st):
        return complex(evaluate_real_slice(H, st)).real

    for k, m in enumerate(((1,), (2,))):
        dq = dict(z)
        dq[m] = z[m] + h / math.sqrt(2.0)
        dq2 = dict(z)
        dq2[m] = z[m] - h / math.sqrt(2.0)
        dh_dq = (hval(dq) - hval(dq2)) / (2.0 * h)
        dp = dict(z)
        dp[m] = z[m] + 1j * h / math.sqrt(2.0)
        dp2 = dict(z)
        dp2[m] = z[m] - 1j * h / math.sqrt(2.0)
        dh_dp = (hval(dp) - hval(dp2)) / (2.0 * h)
        # Hamilton's equations in (q, p): qdot = dH/dp, pdot = -dH/dq
        assert dh_dp == pytest.approx(math.sqrt(2.0) * F[k].real, abs=1e-6)
        assert dh_dq == pytest.approx(-math.sqrt(2.0) * F[k].imag, abs=1e-6)


# -- integrator -------------------------------------------------------------


def test_integrate_linear_exact_actions():
    H = poly.quadratic_diagonal({(1,): 1.0, (2,): math.sqrt(2.0)})
    z0 = np.array([0.3 + 0.1j, -0.2j])
    traj = D.integrate(H, z0, 1.0, 0.01)
    for st in traj.states[[0, -1]]:
        assert abs(abs(st[0]) - abs(z0[0])) <= 1e-13
        assert abs(abs(st[1]) - abs(z0[1])) <= 1e-13
    final = traj.states[-1]
    assert abs(final[0] - z0[0] * np.exp(-1j * 1.0)) <= 1e-4
    assert abs(final[1] - z0[1] * np.exp(-1j * math.sqrt(2.0))) <= 1e-4
    assert max(abs(e - traj.energies[0]) for e in traj.energies) <= 1e-14


def test_integrate_second_order_energy():
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.4)
    z0 = [0.4, 0.3j]
    errs = []
    for dt in (0.02, 0.01):
        traj = D.integrate(sys1.H, z0, 2.0, dt)
        errs.append(max(abs(e - traj.energies[0]) for e in traj.energies))
    ratio = errs[0] / errs[1]
    assert 2.8 <= ratio <= 6.0
    assert errs[1] > 0.0


def test_integrate_reversibility():
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.3)
    z0 = np.array([0.35 + 0.05j, 0.1 - 0.25j])
    fwd = D.integrate(sys1.H, z0, 1.0, 0.01, tol=1e-13)
    back = D.integrate(sys1.H, fwd.states[-1], -1.0, -0.01, tol=1e-13)
    assert np.max(np.abs(back.states[-1] - z0)) <= 1e-9


def test_integrate_reports_deepest_halving():
    # dissipative xi' = -|xi|^2 xi from 10: the field is stiffest at the
    # start, so the first half of the step needs the deepest halving
    H = poly.monomial(-0.5j, xi={1: 2}, eta={1: 2})
    with np.errstate(over="ignore", invalid="ignore"):
        full = D.integrate(H, [10.0], 0.1, 0.1)
        first = D.integrate(H, [10.0], 0.05, 0.05)
    assert first.halvings >= 2
    assert full.halvings == first.halvings + 1


def test_midpoint_step_stops_on_overflow():
    class Blowup:
        calls = 0

        def eval(self, x):
            self.calls += 1
            return x * 1e300

        def kernel(self):
            return eval_kernel(self.eval, 1)

    nl = Blowup()
    step, _ = D._midpoint_rule(np.zeros(1), nl, 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        x1, ok, evals = step(np.array([1e10 + 0j]), 1.0)
    assert not ok
    assert evals == nl.calls <= 3


def _dissipative():
    return poly.monomial(-0.5j, xi={1: 2}, eta={1: 2})


@pytest.mark.parametrize("case", ["nls1d", "nls_coupled", "nlw_dirichlet",
                                  "nlw_periodic", "demo_2mode", "halving",
                                  "backward", "stride"])
def test_integrate_matches_the_reference_step_to_the_bit(case):
    # the fast step keeps every floating-point operation on the state, so
    # frames, energies and counts equal those of the reference step exactly
    nls1d = D.build_model_hamiltonian("nls1d_dirichlet", jmax=9, kappa=0.25,
                                      potential=NLS_POTENTIAL)
    z9 = D.initial_state(nls1d.modes(), 0.2, 4.0,
                         np.random.default_rng(np.random.SeedSequence(5)))
    demo = D.build_model_hamiltonian("demo_2mode", kappa=0.4).H
    coupled = D.build_model_hamiltonian("nls_coupled", jmax=3, kappa=0.5)
    z6 = D.initial_state(coupled.modes(), 0.3, 2.0,
                         np.random.default_rng(np.random.SeedSequence(9)))
    # the wave models pass one leg object four times: factors [[0, 0, 0]]
    wave = {model: D.build_model_hamiltonian(model, **params)
            for model, params, _ in MODEL_SIZES if model.startswith("nlw")}
    zw = {model: D.initial_state(sysw.modes(), 0.3, 2.0,
                                 np.random.default_rng(
                                     np.random.SeedSequence(11)))
          for model, sysw in wave.items()}
    H, x0, T, dt, stride = {
        # QuadratureField, one eta leg
        "nls1d": (nls1d, z9, 0.9, 0.0045, 1),
        # QuadratureField, two eta legs
        "nls_coupled": (coupled, z6, 1.0, 0.01, 1),
        # QuadratureField, one leg of multiplicity four
        "nlw_dirichlet": (wave["nlw_dirichlet"], zw["nlw_dirichlet"], 1.0,
                          0.01, 1),
        "nlw_periodic": (wave["nlw_periodic"], zw["nlw_periodic"], 1.0,
                         0.01, 1),
        # FieldTable
        "demo_2mode": (demo, [0.4, 0.3j], 2.0, 0.01, 1),
        "halving": (_dissipative(), [10.0], 0.1, 0.1, 1),
        "backward": (demo, [0.35 + 0.05j, 0.1 - 0.25j], -1.0, -0.01, 1),
        "stride": (nls1d, z9, 1.0, 0.0045, 7),
    }[case]
    if case.startswith("nlw"):
        assert H.quadrature_field().factors == [[0, 0, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        fast = D.integrate(H, x0, T, dt, stride=stride)
        ref = integrate_reference(H, x0, T, dt, stride=stride)
    assert fast.times == ref.times
    assert np.array_equal(fast.states, ref.states)
    assert fast.energies == ref.energies
    assert (fast.evals, fast.halvings) == (ref.evals, ref.halvings)
    if case == "halving":
        assert fast.halvings >= 2


def test_midpoint_step_leaves_the_field_output_alone():
    # a field may hand back an array it keeps; the step must not write it
    class Keeps:
        def __init__(self, nl):
            self.nl, self.kept = nl, []

        def eval(self, x):
            F = self.nl.eval(x)
            self.kept.append((F, F.copy()))
            return F

        def kernel(self):
            return eval_kernel(self.eval, len(self.nl.field_of_legs))

    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=9, kappa=0.25,
                                     potential=NLS_POTENTIAL)
    omv, nl, _ = sys1.flow_parts
    z0 = D.initial_state(sys1.modes(), 0.2, 4.0,
                         np.random.default_rng(np.random.SeedSequence(5)))
    keeps = Keeps(nl)
    step, _ = D._midpoint_rule(omv, keeps, 1e-12)
    x1, ok, evals = step(z0, 0.0045)
    assert ok and evals == len(keeps.kept) >= 2
    assert all(np.array_equal(F, copy) for F, copy in keeps.kept)


def test_integrate_leaves_x0_alone_and_owns_its_states():
    # the step runs in place on work arrays of its own run: not on the
    # caller's x0, and not on the states of an earlier run
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=6, kappa=0.25,
                                     potential=NLS_POTENTIAL)
    z0 = D.initial_state(sys1.modes(), 0.2, 4.0,
                         np.random.default_rng(np.random.SeedSequence(5)))
    kept = z0.copy()
    first = D.integrate(sys1, z0, 0.5, 0.01, stride=10)
    assert np.array_equal(z0, kept)
    states = first.states.copy()
    second = D.integrate(sys1, 0.5 * z0, 0.5, 0.01, stride=10)
    assert np.array_equal(first.states, states)
    for traj in (first, second):
        assert traj.states.flags.owndata
        assert not np.shares_memory(traj.states, z0)
    assert not np.shares_memory(first.states, second.states)
    assert not np.array_equal(first.states, second.states)


def test_integrate_counts_field_evaluations():
    # purely quadratic H: the first evaluation (of a zero field) already
    # confirms convergence, so every step costs exactly one
    H = poly.quadratic_diagonal({(1,): 1.0, (2,): 0.5})
    traj = D.integrate(H, [0.1, 0.2j], 1.0, 0.1, stride=3)
    assert traj.steps == 10
    assert traj.evals == traj.steps
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.4)
    traj = D.integrate(sys1.H, [0.4, 0.3j], 1.0, 0.05)
    assert traj.evals > traj.steps


def test_integrate_system_matches_polynomial():
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=9, kappa=0.25,
                                     potential=NLS_POTENTIAL)
    z0 = D.initial_state(sys1.modes(), 0.2, 4.0,
                         np.random.default_rng(np.random.SeedSequence(5)))
    quad = D.integrate(sys1, z0, 2.0, 0.01, stride=20)
    table = D.integrate(sys1.H, z0, 2.0, 0.01, stride=20)
    assert quad.times == table.times
    assert np.max(np.abs(quad.states - table.states)) <= 1e-10
    assert quad.energies == pytest.approx(table.energies, rel=1e-12)
    # a state has one entry per mode of the system, no more and no less
    for x0 in (np.append(z0, 0.1), z0[:-1], z0[None]):
        with pytest.raises(ValueError, match="x0"):
            D.integrate(sys1, x0, 0.1, 0.01)


def test_integrate_stride_and_validation():
    H = poly.quadratic_diagonal({(1,): 1.0})
    traj = D.integrate(H, [0.1], 1.0, 0.1, stride=3)
    assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert traj.states.shape == (5, 1)
    with pytest.raises(ValueError, match="dt"):
        D.integrate(H, [0.1], 1.0, -0.1)


def test_momentum_conserved_zero_momentum_model():
    sys1 = D.build_model_hamiltonian("nls_dd", d=1, jmax=2, kappa=0.8)
    rnd = random.Random(31)
    modes = sys1.modes()
    z0 = np.array(list(rand_state(rnd, modes, scale=0.25).values()))
    mom0 = total_momentum(z0, modes)
    traj = D.integrate(sys1.H, z0, 5.0, 0.02, stride=50)
    momT = total_momentum(traj.states[-1], modes)
    assert momT[0] == pytest.approx(mom0[0], abs=1e-10)
    e = traj.energies
    assert max(abs(v - e[0]) for v in e) <= 5e-6


# -- observables ------------------------------------------------------------


def test_norm_s_definition():
    z = np.array([0.3 + 0.4j, -0.2j])
    manual = math.sqrt(2 * weight((1,), 2.0) * 0.25
                       + 2 * weight((2,), 2.0) * 0.04)
    assert D.norm_s(z, [(1,), (2,)], 2.0) == pytest.approx(manual, rel=1e-14)
    # a block gives one norm per row
    rows = D.norm_s(np.array([z, 2 * z]), [(1,), (2,)], 2.0)
    assert rows == pytest.approx([manual, 2 * manual], rel=1e-14)


def test_initial_state_profile_and_norm():
    rng = np.random.default_rng(7)
    modes = [(j,) for j in range(1, 6)]
    z = D.initial_state(modes, 0.05, 3.0, rng)
    assert D.norm_s(z, modes, 3.0) == pytest.approx(0.05, rel=1e-12)
    mags = np.abs(z)
    assert all(a > b for a, b in zip(mags, mags[1:]))
    z2 = D.initial_state(modes, 0.05, 3.0, np.random.default_rng(7))
    assert np.array_equal(z, z2)
    with pytest.raises(ValueError, match="profile"):
        D.initial_state(modes, 0.05, 3.0, rng, profile="delta")


def test_action_groups():
    per = D.build_model_hamiltonian("nlw_periodic", jmax=2, mass=0.5)
    groups = D.action_groups(per)
    labels = [g[0] for g in groups]
    assert labels == ["J_0", "J_1", "J_2"]
    assert sorted(per.modes()[i] for i in groups[1][1]) == [(-1,), (1,)]
    dd = D.build_model_hamiltonian("nls_dd", d=2, jmax=2, kappa=0.1)
    glab = [g[0] for g in D.action_groups(dd)]
    assert glab == ["J_M0", "J_M1", "J_M2", "J_M4"]
    shell2 = dict((g[0], g[1]) for g in D.action_groups(dd))["J_M2"]
    assert sorted(dd.modes()[i] for i in shell2) == [
        (-1, -1), (-1, 1), (1, -1), (1, 1)]


@pytest.mark.parametrize("model,params", [
    ("nlw_periodic", {"jmax": 4}), ("nls_coupled", {"jmax": 3}),
    ("nls1d_dirichlet", {"jmax": 4}), ("nls_dd", {"d": 1, "jmax": 4}),
    ("nls_dd", {"d": 2, "jmax": 3}), ("nls_dd", {"d": 3, "jmax": 2}),
    ("nls_dd", {"d": 3, "jmax": math.sqrt(6)})])
def test_action_groups_match_the_reference(model, params):
    # the J groups are the groups of the exceptional patterns; labels,
    # members and weights are the ones the per-grouping loops gave
    system = D.build_model_hamiltonian(model, **params)
    got = [(label, members, base.hex())
           for label, members, base in D.action_groups(system)]
    assert got == [(label, members, base.hex()) for label, members, base
                   in action_groups_reference(system)]


def test_torus_distance_zero_iff_match():
    modes = [(1,), (2,)]
    a = np.array([0.04, 0.01])
    assert D.torus_distance(a, a.copy(), modes, 2.0) == 0.0
    b = np.array([0.05, 0.01])
    assert D.torus_distance(a, b, modes, 2.0) > 0.0
    # a block of actions gives one distance per row
    rows = D.torus_distance(np.array([a, b, a]), a, modes, 2.0)
    assert rows[0] == rows[2] == 0.0 and rows[1] > 0.0


# -- drift experiment -------------------------------------------------------


def test_drift_zero_nonlinearity():
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=3, kappa=0.0)
    rows = D.drift_experiment(sys1, None, [0.1], [5], r=2, s=3.0,
                              c=0.5, dt=0.02, stride=25).rows
    assert rows[-1].max_weighted_action_drift <= 1e-12
    assert rows[-1].max_weighted_J_drift <= 1e-12
    assert rows[-1].torus_dist <= 1e-9
    assert all(r.escaped == 0 for r in rows)
    assert abs(rows[-1].H - rows[0].H) <= 1e-12


def test_drift_runs_report_the_deepest_halving_and_summed_counts(
        monkeypatch):
    # halvings is a depth, so the runs give their deepest; evaluations and
    # steps add up
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.2)
    runs, depths, real = [], iter([3, 1]), D.integrate

    def integrate(*args, **kwargs):
        runs.append(dataclasses.replace(real(*args, **kwargs),
                                        halvings=next(depths)))
        return runs[-1]

    monkeypatch.setattr(D, "integrate", integrate)
    out = D.drift_experiment(sys1, None, [0.08], [3, 4], r=1, s=2.0,
                             dt=0.05, stride=20)
    assert (out.halvings, out.evals, out.steps) == (
        3, sum(t.evals for t in runs), sum(t.steps for t in runs))


def test_drift_deterministic_and_transported():
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.2)
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    nf = B.normalize(sys1.table, sys1.P, prm)
    kw = dict(eps_list=[0.08], seeds=[3], r=1, s=2.0, c=1.0, dt=0.05,
              stride=20)
    runs = D.drift_experiment(sys1, nf, **kw)
    assert runs == D.drift_experiment(sys1, nf, **kw)
    rows1 = runs.rows
    assert rows1[0].t == 0.0
    assert rows1[0].max_weighted_action_drift == 0.0
    # in normalized coordinates the torus distance stays near its initial 0
    assert all(r.torus_dist <= 0.05 for r in rows1)
    assert rows1[-1].norm_s > 0.0
    # running suprema never decrease
    sups = [r.max_weighted_action_drift for r in rows1]
    assert all(b >= a for a, b in zip(sups, sups[1:]))


def test_drift_csv_matches_the_per_column_writer(tmp_path):
    # float and int eps, numpy scalars and an escaped row: the floats are
    # exactly the float fields, the header exactly the DriftRow fields
    f64 = np.float64
    rows = [D.DriftRow("demo_2mode", 0.05, 1, 0.0, 0.1 + 0.2, 1 / 3, 0.0,
                       0.0, 0.0, 0),
            D.DriftRow("nls_dd", 2, np.int64(7), f64(2.5), f64(-1e-300),
                       f64(0.1), f64(1e17), 5e-324, float("inf"), 1),
            D.DriftRow("nlw_periodic", f64(0.025), 0, 12, 3, 1, 0, 0, 0,
                       np.int64(1))]
    rows += D.drift_experiment(D.build_model_hamiltonian(
        "demo_2mode", kappa=0.2), None, [0.05], [1], r=1, s=2.0, dt=0.05,
        stride=10).rows
    D.write_drift_csv(rows, tmp_path / "got.csv")
    write_drift_csv_reference(rows, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.split(b"\n")[0].decode() == ",".join(
        f.name for f in dataclasses.fields(D.DriftRow))


def test_drift_csv_roundtrip(tmp_path):
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.2)
    rows = D.drift_experiment(sys1, None, [0.05], [1], r=1, s=2.0,
                              dt=0.05, stride=10).rows
    path = tmp_path / "drift.csv"
    D.write_drift_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(D.DRIFT_COLUMNS)
    parts = lines[-1].split(",")
    assert parts[0] == "demo_2mode"
    assert float(parts[3]) == rows[-1].t
    assert float(parts[6]) == rows[-1].max_weighted_action_drift
    traj = D.integrate(sys1.H, [0.05, 0.0], 1.0, 0.1, stride=5)
    fpath = tmp_path / "frames.csv"
    D.write_frames_csv(sys1, traj, fpath, eps=0.05, seed=1)
    flines = fpath.read_text().strip().split("\n")
    assert flines[0] == "model,eps,seed,t,mode,I"
    assert len(flines) == 1 + len(traj.times) * len(traj.layout)


# -- drift observables against the per-frame dict reference ------------------


def ref_norm_s(state, s):
    return math.sqrt(math.fsum(2.0 * weight(m, s) * abs(complex(v)) ** 2
                               for m, v in state.items()))


def ref_actions(state):
    return {m: abs(complex(v)) ** 2 for m, v in state.items()}


def ref_torus_distance(acts, ref, s1):
    tot = 0.0
    for m in set(acts) | set(ref):
        da = math.sqrt(max(acts.get(m, 0.0), 0.0))
        db = math.sqrt(max(ref.get(m, 0.0), 0.0))
        tot += weight(m, s1) * (da - db) ** 2
    return math.sqrt(tot)


def ref_drift(system, nf, eps_list, seeds, r, s, c, dt, stride):
    """The drift observables computed frame by frame on {mode: complex}
    dicts, with the profile-sobolev initial data built the same way."""
    layout = system.modes()
    groups = [(label, [layout[i] for i in idx], base)
              for label, idx, base in D.action_groups(system)]
    wvec = np.array([base ** (2.0 * s) for _, _, base in groups])
    plan = None
    if nf is not None and nf.generators:
        plan = B.transport_plan(nf.generators, layout, "inverse")

    def group_actions(acts):
        return np.array([math.fsum(acts.get(m, 0.0) for m in members)
                         for _, members, _ in groups])

    rows = []
    for ei, eps in enumerate(eps_list):
        for seed in seeds:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(ei,)))
            rho = np.array([(1.0 + mode_abs(m)) ** (-(s + 1.0))
                            for m in layout])
            theta = rng.uniform(0.0, 2.0 * math.pi, size=len(layout))
            z0 = {m: complex(v)
                  for m, v in zip(layout, rho * np.exp(1j * theta))}
            nrm = ref_norm_s(z0, s)
            z0 = {m: v * (eps / nrm) for m, v in z0.items()}
            traj = D.integrate(system, [z0[m] for m in layout],
                               c * eps ** (-float(r)), dt, stride=stride)
            ys = traj.states
            if plan is not None:
                ys = B.apply_transport(plan, ys)
            ref = ref_actions(dict(zip(layout, ys[0])))
            acts0 = ref_actions(dict(zip(layout, traj.states[0])))
            j0 = group_actions(acts0)
            sup_i = sup_j = 0.0
            escaped = 0
            for i, t in enumerate(traj.times):
                st = dict(zip(layout, traj.states[i]))
                acts = ref_actions(st)
                sup_i = max(sup_i, max(weight(m, s) * abs(acts[m] - acts0[m])
                                       for m in acts))
                jvec = group_actions(acts)
                sup_j = max(sup_j, float(np.max(wvec * np.abs(jvec - j0))))
                nsz = ref_norm_s(st, s)
                if nsz > 2.0 * eps:
                    escaped = 1
                dist = ref_torus_distance(
                    ref_actions(dict(zip(layout, ys[i]))), ref, s)
                rows.append(D.DriftRow(system.model, eps, seed, t,
                                       traj.energies[i], nsz, sup_i, sup_j,
                                       dist, escaped))
    return rows


def nlw_periodic_normal_form():
    pot = sample_potential("nlw_periodic", {"R": 0.1, "sigma": 1.0, "kmax": 6,
                                            "mass_span": 1.0}, seed=2)
    system = D.build_model_hamiltonian("nlw_periodic", jmax=2, kappa=1.0,
                                       potential=pot)
    return system, B.normalize(system.table, system.P, B.NormalFormParams(
        r_star=2, gamma=0.05, alpha=1.0, N=2, s=4.0))


def nls_dd_normal_form():
    system = D.build_model_hamiltonian("nls_dd", d=2, jmax=2, kappa=0.1)
    return system, B.normalize(system.table, system.P, B.NormalFormParams(
        r_star=2, gamma=1e-8, alpha=1.0, N=2, s=6.0))


@pytest.mark.parametrize("case", ["drift", "nlw_periodic", "nls_dd",
                                  "escape"])
def test_drift_observables_match_the_dict_reference(case):
    if case == "drift":
        # the benchmark's drift system on a shorter horizon, no normal form
        system = D.build_model_hamiltonian(
            "nls1d_dirichlet", jmax=9, kappa=0.25, potential=NLS_POTENTIAL)
        nf, kw = None, dict(eps_list=[0.2, 0.1], seeds=[4, 9], r=2, s=4.0,
                            c=0.02, dt=0.0045, stride=50)
    elif case == "nlw_periodic":
        system, nf = nlw_periodic_normal_form()
        kw = dict(eps_list=[0.1, 0.05], seeds=[2], r=2, s=4.0, c=0.1,
                  dt=0.02, stride=25)
    elif case == "nls_dd":
        system, nf = nls_dd_normal_form()
        kw = dict(eps_list=[0.1], seeds=[1, 6], r=2, s=6.0, c=0.05,
                  dt=0.02, stride=25)
    else:
        # a strong coupling at a large amplitude: norm_s passes 2 eps
        system = D.build_model_hamiltonian("demo_2mode", kappa=5.0)
        nf, kw = None, dict(eps_list=[8.0], seeds=[2, 5], r=1, s=3.0,
                            c=20.0, dt=0.002, stride=25)
    assert nf is None or nf.generators[-1]
    got = D.drift_experiment(system, nf, **kw).rows
    want = ref_drift(system, nf, **kw)
    assert len(got) == len(want) > 2 * len(kw["eps_list"])
    assert any(w.torus_dist > 0.0 for w in want)
    if case == "escape":
        assert 0 < sum(w.escaped for w in want) < len(want)
    for g, w in zip(got, want):
        # the reference sums the torus distance in set order, the array
        # form exactly rounded: only its last bit may move
        assert abs(g.torus_dist - w.torus_dist) <= 1e-15 * w.torus_dist
        assert g == D.DriftRow(**{**vars(w), "torus_dist": g.torus_dist})


@pytest.mark.parametrize("modes", [[(m,) for m in range(-3, 4)],
                                   [(a, b) for a in (-1, 0, 1)
                                    for b in (0, 1)]])
def test_merge_quartic_matches_the_grouped_keys(modes):
    # repeated variables, repeated tuples and every xi/eta split
    rng = np.random.default_rng(np.random.SeedSequence(43))
    tuples = rng.integers(0, 2 * len(modes), size=(400, 4))
    values = rng.standard_normal(400)
    got = D._merge_quartic(modes, tuples, values, 0.7)
    want = merge_quartic_reference(modes, tuples, values, 0.7)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [(m.degree, momentum(m)) for m in terms(got)] \
        == [(m.degree, momentum(m)) for m in terms(want)]
