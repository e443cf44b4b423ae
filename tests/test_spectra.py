import math
import random

import numpy as np
import pytest

from bnfsim import resonance as R
from bnfsim import spectra as S

import helpers


def test_flat_potential_dirichlet_exact():
    res = S.sturm_liouville({}, "dirichlet", jmax=20, basis_size=80)
    assert np.max(np.abs(res.lams - np.arange(1, 21) ** 2)) <= 1e-10


def test_flat_potential_neumann():
    res = S.sturm_liouville({}, "neumann", jmax=10, basis_size=60)
    assert np.max(np.abs(res.lams - np.arange(10) ** 2)) <= 1e-10


def test_mathieu_regression():
    # V = 0.1 cos(2x) is the Mathieu operator with q = 0.05; the Dirichlet
    # ground state is b_1(q) = 1 - q - q^2/8 + q^3/64 - ...
    res = S.sturm_liouville({2: 0.1}, "dirichlet", jmax=3, basis_size=64)
    series = 1 - 0.05 - 0.05 ** 2 / 8 + 0.05 ** 3 / 64
    assert res.lams[0] == pytest.approx(series, abs=5e-8)
    assert res.lams[0] == pytest.approx(0.9496894489640348, abs=1e-12)
    # Neumann counterpart a_1(q) = 1 + q - q^2/8 - q^3/64 ...
    resn = S.sturm_liouville({2: 0.1}, "neumann", jmax=3, basis_size=64)
    assert resn.lams[1] == pytest.approx(1 + 0.05 - 0.05 ** 2 / 8 - 0.05 ** 3 / 64, abs=5e-8)


def test_constant_shift_identity():
    samp = S.sample_potential("nls_cosine", {"R": 0.2, "sigma": 1.0, "kmax": 12}, seed=5)
    r1 = S.sturm_liouville(samp, "dirichlet", jmax=10)
    shifted = dict(samp.coeffs)
    shifted[0] = 0.7
    r2 = S.sturm_liouville(shifted, "dirichlet", jmax=10)
    assert np.max(np.abs(r2.lams - r1.lams - 0.7)) <= 1e-10


def test_refinement_guard_raises():
    # a potential with substantial high-frequency content and a tiny basis
    with pytest.raises(S.SpectralError):
        S.sturm_liouville({11: 5.0}, "dirichlet", jmax=8, basis_size=12)


def test_sampling_deterministic_and_enveloped():
    params = {"R": 0.4, "sigma": 0.8, "kmax": 15}
    a = S.sample_potential("nls_cosine", params, seed=11)
    b = S.sample_potential("nls_cosine", params, seed=11)
    c = S.sample_potential("nls_cosine", params, seed=12)
    assert a.coeffs == b.coeffs
    assert a.coeffs != c.coeffs
    for k, v in a.coeffs.items():
        assert abs(v) <= helpers.envelope(a, k) + 1e-15
    m = S.sample_potential("nlw_periodic", dict(params, mass_span=0.5), seed=1)
    assert 0.0 <= m.mass <= 0.5


def test_convolution_sampling_symmetric():
    params = {"R": 1.0, "decay": 3.0, "d": 2, "kmax": 3}
    s = S.sample_potential("convolution_d", params, seed=2)
    for k, v in s.coeffs.items():
        assert s.coeffs[tuple(-c for c in k)] == v
        assert abs(v) <= helpers.envelope(s, k) + 1e-15


def test_samples_pinned():
    # coefficients of the scalar-draw sampler, one uniform per call
    conv = S.sample_potential(
        "convolution_d", {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0}, 12345)
    assert len(conv.coeffs) == 49
    assert conv.coeffs[(-4, 0)] == -0.010906559101313213
    assert conv.coeffs[(0, 0)] == -0.23357897170922903
    assert conv.coeffs[(1, 2)] == conv.coeffs[(-1, -2)] == \
        -0.005553817681713773
    assert conv.coeffs[(3, -1)] == -0.006285324349437578
    nlw = S.sample_potential(
        "nlw_periodic", {"R": 0.1, "sigma": 1.0, "kmax": 6, "mass_span": 1.0},
        12345)
    assert nlw.coeffs[1] == -0.010030747168236034
    assert nlw.coeffs[4] == 0.00032282169019275884
    assert nlw.coeffs[6] == -4.144128402094982e-05
    assert nlw.mass == 0.5983087535871898


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("master", [0, 7])
@pytest.mark.parametrize("decay", [2.0, 1.5])
@pytest.mark.parametrize("kmax", [0, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_convolution_columns_match_the_per_seed_tables(d, kmax, decay,
                                                       master):
    # the scan's one array of draws is, bit for bit, the stack of one
    # sample_potential and convolution_frequencies table per seed, and each
    # draw is the one-mode-at-a-time draw it replaced (R 0.7, so the
    # multiply rounds; decay 1.5 is a non-integer power)
    params = {"R": 0.7, "kmax": kmax, "d": d, "decay": decay}
    seeds = R.sample_seeds(master, 100)
    samples = [S.sample_potential("convolution_d", params, s) for s in seeds]
    for smp, s in zip(samples, seeds):
        ref = helpers.convolution_sample_reference(params, s)
        assert list(smp.coeffs) == list(ref.coeffs) and smp == ref
        assert np.array_equal(bits(list(smp.coeffs.values())),
                              bits(list(ref.coeffs.values())))
    half, V = S.convolution_draws(params, seeds)
    assert V.shape == (len(half), 100)
    assert np.array_equal(bits(V), bits([[smp.coeffs[k] for smp in samples]
                                         for k in half]))
    for jmax in (kmax, 2.5):
        modes, W = S.convolution_columns(params, seeds, jmax)
        assert list(modes) == S.convolution_frequencies(d, None, jmax).modes()
        ref = np.column_stack([S.convolution_frequencies(d, smp, jmax)
                               .vector(modes) for smp in samples])
        assert np.array_equal(bits(W), bits(ref))


def test_galerkin_matrices_match_the_loop_reference():
    rnd = random.Random(17)
    for trial in range(40):
        m = rnd.randint(4, 79)
        ks = rnd.sample(range(12), rnd.randint(1, 6))
        coeffs = {k: rnd.uniform(-1.0, 1.0) for k in ks}
        for c in (coeffs, dict(reversed(coeffs.items()))):
            assert np.array_equal(S._dirichlet_matrix(c, m),
                                  helpers.dirichlet_matrix_reference(c, m))
            assert np.array_equal(S._neumann_matrix(c, m),
                                  helpers.neumann_matrix_reference(c, m))


def test_nlw_frequencies():
    t = S.nlw_frequencies({1: 1.0, 2: 4.0}, mass=0.25)
    assert t.omega_of(1) == pytest.approx(math.sqrt(1.25))
    assert t.omega_of(2) == pytest.approx(math.sqrt(4.25))
    with pytest.raises(S.SpectralError):
        S.nlw_frequencies({1: -2.0}, mass=1.0)


def test_convolution_frequencies_flat():
    t = S.convolution_frequencies(2, None, jmax=2)
    assert t.omega_of((1, 1)) == pytest.approx(2.0)
    assert t.omega_of((0, 0)) == 0.0
    assert ((2, 1) in t.omega) is False  # |k| = sqrt(5) > 2


def test_periodic_table_pairing():
    samp = S.sample_potential("nlw_periodic",
                              {"R": 0.1, "sigma": 1.0, "kmax": 10, "mass_span": 1.0},
                              seed=3)
    table, dres, _ = S.periodic_nlw_table(samp, jmax=5)
    assert len(table.modes()) == 11
    # high pairs nearly degenerate, but not exactly
    gap = abs(table.omega_of(5) - table.omega_of(-5))
    assert 0 < gap < 1e-4
    assert helpers.orthonormality_defect(dres.basis) < 1e-10


def test_localization_flat_and_sampled():
    res = S.sturm_liouville({}, "dirichlet", jmax=16, basis_size=64)
    assert helpers.check_localization(res.basis, 2).c_n == pytest.approx(1.0)
    samp = S.sample_potential("nls_cosine", {"R": 0.3, "sigma": 1.0, "kmax": 12}, seed=7)
    res2 = S.sturm_liouville(samp, "dirichlet", jmax=16)
    rep2 = helpers.check_localization(res2.basis, 2)
    rep3 = helpers.check_localization(res2.basis, 3)
    assert rep2.c_n < 2.0  # analytic potential: strong localization
    assert rep3.c_n < 4.0


def test_expansion_fit_constant_and_zero():
    lams = S.sturm_liouville({0: 0.3}, "dirichlet", jmax=24, basis_size=120).lams
    fit = S.expansion_fit(lams, mean_value=0.3)
    assert helpers.c0_defect(fit) <= 1e-10
    lams0 = S.sturm_liouville({}, "dirichlet", jmax=24, basis_size=120).lams
    fit0 = S.expansion_fit(lams0, mean_value=0.0)
    assert abs(fit0.c0) <= 1e-10


def test_expansion_fit_stability_under_jmax():
    samp = S.sample_potential("nls_cosine", {"R": 0.2, "sigma": 1.0, "kmax": 10}, seed=9)
    f16 = S.expansion_fit(S.sturm_liouville(samp, "dirichlet", jmax=16, basis_size=96).lams)
    f24 = S.expansion_fit(S.sturm_liouville(samp, "dirichlet", jmax=24, basis_size=120).lams)
    assert abs(f16.c0 - f24.c0) <= 1e-4


def test_eigenvalue_derivative_leading_term():
    # the resonant pairing is k = 2j (cos(2jx) against sin(jx)^2)
    r = helpers.eigenvalue_derivative_check({}, j=1, k=2, bc="dirichlet", jmax=12, basis_size=64)
    assert r.abs_error <= 1e-3 and r.leading_term == -0.5
    r = helpers.eigenvalue_derivative_check({}, j=2, k=4, bc="dirichlet", jmax=12, basis_size=64)
    assert r.abs_error <= 1e-3 and r.leading_term == -0.5
    # off-resonant pairs are flat at V ~ 0
    r = helpers.eigenvalue_derivative_check({}, j=3, k=1, bc="dirichlet", jmax=12, basis_size=64)
    assert abs(r.fd_derivative) <= 1e-3 and r.leading_term == 0.0
    # Neumann flips the sign
    r = helpers.eigenvalue_derivative_check({}, j=1, k=2, bc="neumann", jmax=12, basis_size=64)
    assert r.abs_error <= 1e-3 and r.leading_term == 0.5


def test_eigenvalue_derivative_fd_converges():
    samp = S.sample_potential("nls_cosine", {"R": 0.1, "sigma": 1.0, "kmax": 8}, seed=4)
    r1 = helpers.eigenvalue_derivative_check(samp, j=1, k=2, step=2e-3, jmax=10, basis_size=64)
    r2 = helpers.eigenvalue_derivative_check(samp, j=1, k=2, step=1e-3, jmax=10, basis_size=64)
    # second-order stencil: halving the step shrinks the fd truncation
    # error ~4x; compare against a tiny-step reference
    ref = helpers.eigenvalue_derivative_check(samp, j=1, k=2, step=1e-6, jmax=10, basis_size=64)
    e1 = abs(r1.fd_derivative - ref.fd_derivative)
    e2 = abs(r2.fd_derivative - ref.fd_derivative)
    if e1 > 1e-12:
        assert e2 <= e1 / 2.5


@pytest.mark.parametrize("bc,jmax", [("dirichlet", 9), ("dirichlet", 6),
                                     ("neumann", 6)])
def test_refinement_solve_takes_only_the_eigenvalues(bc, jmax):
    # the potential of the drift (jmax 9) and transport (jmax 6) benchmark
    # systems: the first solve is the eigh solve, and the refinement's
    # eigenvalues-only solve moves refinement_err by no more than either
    # solver's rounding, eps times the norm of the doubled matrix
    samp = S.sample_potential("nls_cosine",
                              {"R": 0.5, "sigma": 0.4, "kmax": 9}, seed=3)
    res = S.sturm_liouville(samp, bc, jmax)
    m = max(4 * jmax, 32)
    lams, vecs, _ = S._solve(samp.coeffs, bc, m)
    assert np.array_equal(res.lams, lams[:jmax])
    assert np.array_equal(res.basis.coeffs, vecs[:, :jmax])
    lams2 = S._solve(samp.coeffs, bc, 2 * m)[0]
    err = np.max(np.abs(lams[:jmax] - lams2[:jmax])
                 / np.maximum(1.0, np.abs(lams2[:jmax])))
    assert res.refinement_err <= 1e-8
    assert abs(res.refinement_err - err) <= \
        4 * np.finfo(float).eps * np.abs(lams2).max()
