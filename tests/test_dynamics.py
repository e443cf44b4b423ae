import math
import random

import numpy as np
import pytest

from bnfsim import birkhoff as B
from bnfsim import dynamics as D
from bnfsim import poly
from bnfsim.fields import eta_gradient_table, value_table
from bnfsim.modes import weight
from bnfsim.poly import Monomial
from bnfsim.spectra import sample_potential, sturm_liouville


def rand_state(rnd, modes, scale=0.3):
    return {m: scale * complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
            for m in modes}


# -- model construction: quadrature oracles --------------------------------


def quad_grid(n=512):
    x = (np.arange(n) + 0.5) * (math.pi / n)
    return x, math.pi / n


def test_nls1d_single_mode_coefficient():
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=1, kappa=0.3)
    c = sys1.P.coeff(Monomial({(1,): 2}, {(1,): 2}))
    # psi = sqrt(2) xi phi_1, integral of phi_1^4 = 3/(2 pi)
    assert c == pytest.approx(0.3 * 4.0 * 3.0 / (2.0 * math.pi), rel=1e-12)
    assert sys1.table.omega_of(1) == pytest.approx(1.0, abs=1e-10)


def test_nls1d_matches_direct_quadrature():
    rnd = random.Random(5)
    for potential in (None, {1: 0.4, 2: -0.2}):
        sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=4,
                                         kappa=0.7, potential=potential)
        res = sys1.meta["spectral"]
        x, w = quad_grid()
        rows = D._basis_rows(res, x)
        z = rand_state(rnd, sys1.modes())
        psi = math.sqrt(2.0) * sum(
            z[(j,)] * rows[j - 1] for j in range(1, 5))
        direct = 0.7 * float(np.sum(np.abs(psi) ** 4)) * w
        val = sys1.P.evaluate_real_slice(z)
        assert complex(val).real == pytest.approx(direct, rel=1e-10)
        assert abs(complex(val).imag) <= 1e-12 * abs(direct)


def test_nlw_matches_direct_quadrature():
    rnd = random.Random(7)
    sys1 = D.build_model_hamiltonian("nlw_dirichlet", jmax=4, kappa=1.2,
                                     mass=0.5, potential={2: 0.3})
    res = sys1.meta["spectral"]
    x, w = quad_grid()
    rows = D._basis_rows(res, x)
    z = rand_state(rnd, sys1.modes())
    u = sum((2.0 * sys1.table.omega_of(j)) ** -0.5
            * 2.0 * z[(j,)].real * rows[j - 1] for j in range(1, 5))
    direct = 1.2 * float(np.sum(u ** 4)) * w
    val = complex(sys1.P.evaluate_real_slice(z))
    assert val.real == pytest.approx(direct, rel=1e-10)


def test_nlw_mass_scaling_of_quartic():
    # four A^(-1/2) legs: coefficient of xi_1^4 scales as (lambda_1+m)^(-1)
    c = {}
    for mass in (0.5, 3.0):
        sys1 = D.build_model_hamiltonian("nlw_dirichlet", jmax=2, kappa=1.0,
                                         mass=mass)
        c[mass] = sys1.P.coeff(Monomial({(1,): 4}, {}))
    assert c[0.5] * (1.0 + 0.5) == pytest.approx(c[3.0] * (1.0 + 3.0),
                                                 rel=1e-10)


def test_nlw_periodic_parity_and_quadrature():
    rnd = random.Random(11)
    sys1 = D.build_model_hamiltonian("nlw_periodic", jmax=2, kappa=0.8,
                                     mass=0.7, potential={1: 0.1})
    # odd number of odd-extended (j > 0) legs integrates to zero on the torus
    for mono in sys1.P.terms:
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
    val = complex(sys1.P.evaluate_real_slice(z))
    assert val.real == pytest.approx(direct, rel=1e-9)
    assert sys1.grouping == D.PAIRS


def test_nls_dd_zero_momentum_and_value():
    rnd = random.Random(13)
    sys1 = D.build_model_hamiltonian("nls_dd", d=2, jmax=2, kappa=0.5)
    assert sys1.P.is_zero_momentum()
    assert sys1.P.coeff(Monomial({(0, 0): 2}, {(0, 0): 2})) \
        == pytest.approx(0.5 / (2.0 * math.pi) ** 2, rel=1e-14)
    n = 24
    xs = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    z = rand_state(rnd, sys1.modes(), scale=0.4)
    psi = np.zeros_like(X, dtype=complex)
    for (kx, ky), v in z.items():
        psi += v * np.exp(1j * (kx * X + ky * Y)) / (2.0 * math.pi)
    direct = 0.5 * float(np.sum(np.abs(psi) ** 4)) * (2.0 * math.pi / n) ** 2
    val = complex(sys1.P.evaluate_real_slice(z))
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
    val = complex(sys1.P.evaluate_real_slice(z))
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
        # P itself: quad_weight times the grid sum of the legs' product
        z = np.concatenate([x, np.conj(x)])
        L = [(leg.weights * z[leg.vars]) @ leg.rows for leg in sys1.legs]
        v = value.eval(x)
        assert abs(sys1.quad_weight * np.sum(np.prod(L, axis=0)) - v) \
            <= 1e-12 * abs(v)


@pytest.mark.parametrize("model, params, terms",
                         [m for m in MODEL_SIZES if m[0] != "nls_dd"])
def test_finer_quadrature_grid_gives_the_same_quartic(model, params, terms):
    # nls_dd is left out: its grid is fixed by jmax and takes no quad_n
    sys1 = D.build_model_hamiltonian(model, **params)
    # quad_weight = +-kappa * pi / n on the default n-point midpoint grid
    n = round(math.pi * abs(params["kappa"] / sys1.quad_weight))
    sys2 = D.build_model_hamiltonian(model, quad_n=2 * n, **params)
    assert set(sys2.P.terms) == set(sys1.P.terms)
    big = max(abs(c) for c in sys1.P.terms.values())
    assert max(abs(sys2.P.terms[m] - c) for m, c in sys1.P.terms.items()) \
        <= 1e-13 * big
    assert sys2.quad_weight == sys1.quad_weight / 2


def test_build_model_validation():
    with pytest.raises(ValueError, match="model"):
        D.build_model_hamiltonian("heat_equation")


# -- flow field -------------------------------------------------------------


def test_flow_field_linear_rotation():
    H = poly.monomial(2.5, xi={1: 1}, eta={1: 1})
    out = D.hamiltonian_flow_field(H, {1: 0.2 + 0.1j})
    assert out[(1,)] == pytest.approx(-1j * 2.5 * (0.2 + 0.1j))


def test_flow_field_rejects_complex_hamiltonian():
    H = poly.monomial(1.0 + 0.5j, xi={1: 2}, eta={2: 1})
    with pytest.raises(ValueError, match="H:"):
        D.hamiltonian_flow_field(H, {1: 0.1, 2: 0.1})


def test_flow_field_finite_difference():
    rnd = random.Random(23)
    q = poly.monomial(0.4, xi={1: 2}, eta={2: 1}) \
        + poly.monomial(-0.2, xi={1: 1, 2: 1}, eta={1: 1})
    H = q + q.conj_flip()
    assert H.reality_defect() <= 1e-14
    z = rand_state(rnd, [(1,), (2,)])
    F = D.hamiltonian_flow_field(H, z)
    h = 1e-5

    def hval(st):
        return complex(H.evaluate_real_slice(st)).real

    for m in ((1,), (2,)):
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
        assert dh_dp == pytest.approx(math.sqrt(2.0) * F[m].real, abs=1e-6)
        assert dh_dq == pytest.approx(-math.sqrt(2.0) * F[m].imag, abs=1e-6)


# -- integrator -------------------------------------------------------------


def test_integrate_linear_exact_actions():
    H = poly.quadratic_diagonal({(1,): 1.0, (2,): math.sqrt(2.0)})
    z0 = {1: 0.3 + 0.1j, 2: -0.2j}
    traj = D.integrate(H, z0, 1.0, 0.01)
    for i in (0, len(traj.times) - 1):
        st = traj.state_dict(i)
        assert abs(abs(st[(1,)]) - abs(z0[1])) <= 1e-13
        assert abs(abs(st[(2,)]) - abs(z0[2])) <= 1e-13
    final = traj.state_dict(len(traj.times) - 1)
    assert abs(final[(1,)] - z0[1] * np.exp(-1j * 1.0)) <= 1e-4
    assert abs(final[(2,)] - z0[2] * np.exp(-1j * math.sqrt(2.0))) <= 1e-4
    assert max(abs(e - traj.energies[0]) for e in traj.energies) <= 1e-14


def test_integrate_second_order_energy():
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.4)
    z0 = {1: 0.4, 2: 0.3j}
    errs = []
    for dt in (0.02, 0.01):
        traj = D.integrate(sys1.H, z0, 2.0, dt)
        errs.append(max(abs(e - traj.energies[0]) for e in traj.energies))
    ratio = errs[0] / errs[1]
    assert 2.8 <= ratio <= 6.0
    assert errs[1] > 0.0


def test_integrate_reversibility():
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.3)
    z0 = {1: 0.35 + 0.05j, 2: 0.1 - 0.25j}
    fwd = D.integrate(sys1.H, z0, 1.0, 0.01, tol=1e-13)
    zT = fwd.state_dict(len(fwd.times) - 1)
    back = D.integrate(sys1.H, zT, -1.0, -0.01, tol=1e-13)
    z1 = back.state_dict(len(back.times) - 1)
    for m in z1:
        assert abs(z1[m] - complex(z0[m[0]])) <= 1e-9


def test_integrate_reports_deepest_halving():
    # dissipative xi' = -|xi|^2 xi from 10: the field is stiffest at the
    # start, so the first half of the step needs the deepest halving
    H = poly.monomial(-0.5j, xi={1: 2}, eta={1: 2})
    with np.errstate(over="ignore", invalid="ignore"):
        full = D.integrate(H, {1: 10.0}, 0.1, 0.1)
        first = D.integrate(H, {1: 10.0}, 0.05, 0.05)
    assert first.halvings >= 2
    assert full.halvings == first.halvings + 1


def test_midpoint_step_stops_on_overflow():
    class Blowup:
        calls = 0

        def eval(self, x):
            self.calls += 1
            return x * 1e300

    nl = Blowup()
    with np.errstate(over="ignore", invalid="ignore"):
        x1, ok, evals = D._midpoint_step(np.array([1e10 + 0j]), 1.0,
                                         np.zeros(1), nl, 1e-12)
    assert not ok
    assert evals == nl.calls <= 3


def test_integrate_counts_field_evaluations():
    # purely quadratic H: the first evaluation (of a zero field) already
    # confirms convergence, so every step costs exactly one
    H = poly.quadratic_diagonal({(1,): 1.0, (2,): 0.5})
    traj = D.integrate(H, {1: 0.1, 2: 0.2j}, 1.0, 0.1, stride=3)
    assert traj.steps == 10
    assert traj.evals == traj.steps
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.4)
    traj = D.integrate(sys1.H, {1: 0.4, 2: 0.3j}, 1.0, 0.05)
    assert traj.evals > traj.steps


def test_integrate_system_matches_polynomial():
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=9, kappa=0.25,
                                     potential=NLS_POTENTIAL)
    z0 = D.initial_state(sys1.modes(), 0.2, 4.0,
                         np.random.default_rng(np.random.SeedSequence(5)))
    quad = D.integrate(sys1, z0, 2.0, 0.01, stride=20)
    table = D.integrate(sys1.H, z0, 2.0, 0.01, stride=20)
    assert quad.times == table.times
    assert np.max(np.abs(np.array(quad.states) - np.array(table.states))) \
        <= 1e-10
    assert quad.energies == pytest.approx(table.energies, rel=1e-12)
    # a system integrates on its own modes only
    with pytest.raises(ValueError, match="z0"):
        D.integrate(sys1, {**z0, (10,): 0.1}, 0.1, 0.01)


def test_integrate_stride_and_validation():
    H = poly.quadratic_diagonal({(1,): 1.0})
    traj = D.integrate(H, {1: 0.1}, 1.0, 0.1, stride=3)
    assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    with pytest.raises(ValueError, match="dt"):
        D.integrate(H, {1: 0.1}, 1.0, -0.1)


def test_momentum_conserved_zero_momentum_model():
    sys1 = D.build_model_hamiltonian("nls_dd", d=1, jmax=2, kappa=0.8)
    rnd = random.Random(31)
    z0 = rand_state(rnd, sys1.modes(), scale=0.25)
    mom0 = D.total_momentum(z0)
    traj = D.integrate(sys1.H, z0, 5.0, 0.02, stride=50)
    momT = D.total_momentum(traj.state_dict(len(traj.times) - 1))
    assert momT[0] == pytest.approx(mom0[0], abs=1e-10)
    e = traj.energies
    assert max(abs(v - e[0]) for v in e) <= 5e-6


# -- observables ------------------------------------------------------------


def test_norm_s_definition():
    z = {(1,): 0.3 + 0.4j, (2,): -0.2j}
    manual = math.sqrt(2 * weight((1,), 2.0) * 0.25
                       + 2 * weight((2,), 2.0) * 0.04)
    assert D.norm_s(z, 2.0) == pytest.approx(manual, rel=1e-14)


def test_initial_state_profile_and_norm():
    rng = np.random.default_rng(7)
    modes = [(j,) for j in range(1, 6)]
    z = D.initial_state(modes, 0.05, 3.0, rng)
    assert D.norm_s(z, 3.0) == pytest.approx(0.05, rel=1e-12)
    mags = [abs(z[m]) for m in modes]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    z2 = D.initial_state(modes, 0.05, 3.0, np.random.default_rng(7))
    assert z == z2
    with pytest.raises(ValueError, match="profile"):
        D.initial_state(modes, 0.05, 3.0, rng, profile="delta")


def test_action_groups():
    per = D.build_model_hamiltonian("nlw_periodic", jmax=2, mass=0.5)
    groups = D.action_groups(per)
    labels = [g[0] for g in groups]
    assert labels == ["J_0", "J_1", "J_2"]
    assert sorted(groups[1][1]) == [(-1,), (1,)]
    dd = D.build_model_hamiltonian("nls_dd", d=2, jmax=2, kappa=0.1)
    glab = [g[0] for g in D.action_groups(dd)]
    assert glab == ["J_M0", "J_M1", "J_M2", "J_M4"]
    shell2 = dict((g[0], g[1]) for g in D.action_groups(dd))["J_M2"]
    assert sorted(shell2) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_torus_distance_zero_iff_match():
    a = {(1,): 0.04, (2,): 0.01}
    assert D.torus_distance(a, dict(a), 2.0) == 0.0
    b = {(1,): 0.05, (2,): 0.01}
    assert D.torus_distance(a, b, 2.0) > 0.0


# -- drift experiment -------------------------------------------------------


def test_drift_zero_nonlinearity():
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=3, kappa=0.0)
    rows = D.drift_experiment(sys1, None, [0.1], [5], r=2, s=3.0,
                              c=0.5, dt=0.02, stride=25)
    assert rows[-1].max_weighted_action_drift <= 1e-12
    assert rows[-1].max_weighted_J_drift <= 1e-12
    assert rows[-1].torus_dist <= 1e-9
    assert all(r.escaped == 0 for r in rows)
    assert abs(rows[-1].H - rows[0].H) <= 1e-12


def test_drift_deterministic_and_transported():
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.2)
    prm = B.NormalFormParams(r_star=2, gamma=0.1, alpha=1.0, N=2)
    nf = B.normalize(sys1.table, sys1.P, prm)
    kw = dict(eps_list=[0.08], seeds=[3], r=1, s=2.0, c=1.0, dt=0.05,
              stride=20)
    rows1 = D.drift_experiment(sys1, nf, **kw)
    rows2 = D.drift_experiment(sys1, nf, **kw)
    assert rows1 == rows2
    assert rows1[0].t == 0.0
    assert rows1[0].max_weighted_action_drift == 0.0
    # in normalized coordinates the torus distance stays near its initial 0
    assert all(r.torus_dist <= 0.05 for r in rows1)
    assert rows1[-1].norm_s > 0.0
    # running suprema never decrease
    sups = [r.max_weighted_action_drift for r in rows1]
    assert all(b >= a for a, b in zip(sups, sups[1:]))


def test_drift_csv_roundtrip(tmp_path):
    sys1 = D.build_model_hamiltonian("demo_2mode", kappa=0.2)
    rows = D.drift_experiment(sys1, None, [0.05], [1], r=1, s=2.0,
                              dt=0.05, stride=10)
    path = tmp_path / "drift.csv"
    D.write_drift_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(D.DRIFT_COLUMNS)
    parts = lines[-1].split(",")
    assert parts[0] == "demo_2mode"
    assert float(parts[3]) == rows[-1].t
    assert float(parts[6]) == rows[-1].max_weighted_action_drift
    traj = D.integrate(sys1.H, {1: 0.05}, 1.0, 0.1, stride=5)
    fpath = tmp_path / "frames.csv"
    D.write_frames_csv(sys1, traj, fpath, eps=0.05, seed=1)
    flines = fpath.read_text().strip().split("\n")
    assert flines[0] == "model,eps,seed,t,mode,I"
    assert len(flines) == 1 + len(traj.times) * len(traj.layout)
