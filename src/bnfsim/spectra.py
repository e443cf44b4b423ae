"""Potentials, Sturm-Liouville spectra and frequency tables.

The 1-d operators are -d^2/dx^2 + V on (0, pi) with Dirichlet or Neumann
conditions, discretized by a spectral Galerkin method in the sine or
cosine basis.  For a trigonometric-polynomial potential
V = v_0 + sum_k v_k cos(k x) the Galerkin matrix is exact and banded, so
eigenvalue accuracy is limited only by the basis truncation, which is
checked by re-solving at twice the basis size.

Mode labels follow the periodic convention: j > 0 are Dirichlet
eigenvalues, j <= 0 Neumann ones (via |j|), which together exhaust the
periodic spectrum of the even potential on the circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from .modes import as_mode, lattice_modes, mode_abs

NLW_PERIODIC = "nlw_periodic"
NLS_COSINE = "nls_cosine"
CONVOLUTION_D = "convolution_d"

FAMILIES = (NLW_PERIODIC, NLS_COSINE, CONVOLUTION_D)


class SpectralError(RuntimeError):
    pass


@dataclass
class PotentialSample:
    """A drawn potential: cosine (1-d) or lattice Fourier (d-dim) coefficients.

    `coeffs` maps k -> v_k.  For the 1-d families k is a positive int and
    V(x) = mass + sum_k v_k cos(k x); the zero-average part is V0.  For the
    convolution family k is a lattice tuple with v_{-k} = v_k.
    """
    family: str
    params: dict
    seed: int
    coeffs: dict
    mass: float = 0.0

    def envelope(self, k) -> float:
        """Bound guaranteed for |v_k| by the family's envelope."""
        p = self.params
        r = _param(p, "R")
        if self.family == CONVOLUTION_D:
            return 0.5 * r / (1.0 + mode_abs(k)) ** _param(p, "decay")
        return 0.5 * r * math.exp(-_param(p, "sigma") * abs(k))


def _param(params: dict, name: str, kind=float, default=None):
    """One sampling parameter, required unless it has a default; a
    ValueError names it."""
    if name not in params:
        if default is None:
            raise ValueError("potential.params: %s required" % name)
        return default
    try:
        return kind(params[name])
    except (TypeError, ValueError):
        raise ValueError("potential.params: %s expected a number"
                         % name) from None


def sample_potential(family: str, params: dict, seed: int) -> PotentialSample:
    """Draw a potential from one of the supported ensembles.

    nlw_periodic:  v_k = R exp(-sigma k) u_k, u_k ~ U[-1/2, 1/2], k = 1..kmax,
                   plus a mass m ~ U[0, mass_span].
    nls_cosine:    same cosine envelope, no mass term.
    convolution_d: v_k = R u_k / (1+|k|)^decay on the lattice |k| <= kmax,
                   symmetrized so v_{-k} = v_k (real even potential).
    """
    if family not in FAMILIES:
        raise ValueError("unknown potential family %r" % family)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = _param(params, "R")
    if family == CONVOLUTION_D:
        d = _param(params, "d", int)
        kmax = _param(params, "kmax", int)
        decay = _param(params, "decay")
        coeffs = {}
        for k in lattice_modes(d, kmax):
            if k in coeffs:
                continue
            u = rng.uniform(-0.5, 0.5)
            v = r * u / (1.0 + mode_abs(k)) ** decay
            coeffs[k] = v
            coeffs[tuple(-c for c in k)] = v
        return PotentialSample(family, dict(params), seed, coeffs)
    sigma = _param(params, "sigma")
    kmax = _param(params, "kmax", int)
    coeffs = {}
    for k in range(1, kmax + 1):
        u = rng.uniform(-0.5, 0.5)
        coeffs[k] = r * math.exp(-sigma * k) * u
    mass = 0.0
    if family == NLW_PERIODIC:
        mass = _param(params, "mass_span", default=1.0) * rng.uniform(0.0, 1.0)
    return PotentialSample(family, dict(params), seed, coeffs, mass)


# -- Galerkin assembly --------------------------------------------------


def _dirichlet_matrix(coeffs: Dict[int, float], m: int) -> np.ndarray:
    """Matrix of -d2/dx2 + sum v_k cos(kx) in the sine basis on (0, pi)."""
    h = np.zeros((m, m))
    idx = np.arange(1, m + 1)
    h[np.diag_indices(m)] = idx.astype(float) ** 2
    for k, v in coeffs.items():
        if k == 0:
            h[np.diag_indices(m)] += v
            continue
        for i in range(1, m + 1):
            # cos(kx) sin(ix) = [sin((i+k)x) + sin((i-k)x)] / 2
            j = i + k
            if j <= m:
                h[j - 1, i - 1] += 0.5 * v
            j = i - k
            if 1 <= j:
                h[j - 1, i - 1] += 0.5 * v
            j = k - i
            if 1 <= j <= m:
                h[j - 1, i - 1] -= 0.5 * v
    return 0.5 * (h + h.T)


def _neumann_matrix(coeffs: Dict[int, float], m: int) -> np.ndarray:
    """Same operator in the cosine basis cos(nx), n = 0..m-1."""
    h = np.zeros((m, m))
    idx = np.arange(m)
    h[np.diag_indices(m)] = idx.astype(float) ** 2
    norms = np.full(m, math.sqrt(2.0 / math.pi))
    norms[0] = math.sqrt(1.0 / math.pi)
    # sq[n] = integral over (0, pi) of cos(nx)^2
    sq = np.full(m, math.pi / 2)
    sq[0] = math.pi
    for k, v in coeffs.items():
        if k == 0:
            h[np.diag_indices(m)] += v
            continue
        for n in range(m):
            for target in (n + k, abs(n - k)):
                if target < m:
                    h[target, n] += v * 0.5 * norms[target] * norms[n] * sq[target]
    return 0.5 * (h + h.T)


@dataclass
class EigenBasis:
    """Eigenfunction coefficients in the trigonometric Galerkin basis.

    coeffs[:, j] are the components of the j-th eigenfunction on
    sin(kx), k = 1..M (Dirichlet) or cos(kx), k = 0..M-1 (Neumann),
    orthonormal on (0, pi).
    """
    bc: str
    coeffs: np.ndarray
    wavenumbers: np.ndarray

    def orthonormality_defect(self) -> float:
        g = self.coeffs.T @ self.coeffs
        return float(np.max(np.abs(g - np.eye(g.shape[0]))))


@dataclass
class SpectralResult:
    lams: np.ndarray
    basis: EigenBasis
    bc: str
    basis_size: int
    refinement_err: float


def _solve(coeffs, bc, m):
    if bc == "dirichlet":
        h = _dirichlet_matrix(coeffs, m)
        waven = np.arange(1, m + 1)
    elif bc == "neumann":
        h = _neumann_matrix(coeffs, m)
        waven = np.arange(m)
    else:
        raise ValueError("bc must be dirichlet or neumann")
    lams, vecs = np.linalg.eigh(h)
    return lams, vecs, waven


def _coeff_dict(potential) -> Dict[int, float]:
    if isinstance(potential, PotentialSample):
        return dict(potential.coeffs)
    if isinstance(potential, dict):
        return {int(k): float(v) for k, v in potential.items()}
    raise TypeError("potential must be a PotentialSample or {k: v_k} dict")


def sturm_liouville(potential, bc: str = "dirichlet", jmax: int = 16,
                    basis_size: Optional[int] = None, rel_tol: float = 1e-8,
                    check: bool = True) -> SpectralResult:
    """First jmax eigenvalues and eigenfunctions of -d2/dx2 + V0 on (0, pi).

    The potential's mean/mass term is *not* included; for models that carry
    one, shift the eigenvalues afterwards (the shift is exact).  With
    check=True the solve is repeated at twice the basis size and the
    relative eigenvalue movement must stay below rel_tol.
    """
    coeffs = _coeff_dict(potential)
    m = basis_size or max(4 * jmax, 32)
    if m < jmax + 2:
        raise ValueError("basis_size too small for jmax")
    lams, vecs, waven = _solve(coeffs, bc, m)
    err = 0.0
    if check:
        lams2, _, _ = _solve(coeffs, bc, 2 * m)
        num = np.abs(lams[:jmax] - lams2[:jmax])
        den = np.maximum(1.0, np.abs(lams2[:jmax]))
        err = float(np.max(num / den))
        if err > rel_tol:
            raise SpectralError(
                "Galerkin truncation not converged: rel err %.3e > %.0e "
                "(increase basis_size)" % (err, rel_tol))
    basis = EigenBasis(bc, vecs[:, :jmax].copy(), waven)
    return SpectralResult(lams[:jmax].copy(), basis, bc, m, err)


# -- frequency tables ---------------------------------------------------


@dataclass
class FrequencyTable:
    """Mode -> frequency map with the spectral data it came from."""
    model: str
    omega: dict
    meta: dict = field(default_factory=dict)

    def modes(self) -> list:
        return sorted(self.omega)

    def omega_of(self, j) -> float:
        return self.omega[as_mode(j)]

    def vector(self, modes) -> np.ndarray:
        return np.array([self.omega[as_mode(j)] for j in modes])


def nlw_frequencies(lams: dict, mass: float, model: str = "nlw") -> FrequencyTable:
    """omega_j = sqrt(lambda_j + m); rejects non-positive arguments."""
    omega = {}
    for j, l in lams.items():
        v = l + mass
        if v <= 0:
            raise SpectralError("lambda_%s + m = %g <= 0, omega undefined" % (j, v))
        omega[as_mode(j)] = math.sqrt(v)
    return FrequencyTable(model, omega, {"mass": mass})


def periodic_nlw_table(sample: PotentialSample, jmax: int,
                       basis_size: Optional[int] = None) -> tuple:
    """Frequencies for the periodic wave model: j > 0 Dirichlet, j <= 0 Neumann.

    Returns (FrequencyTable, {"dirichlet": SpectralResult, "neumann": ...}).
    """
    dres = sturm_liouville(sample, "dirichlet", jmax, basis_size)
    nres = sturm_liouville(sample, "neumann", jmax + 1, basis_size)
    lams = {}
    for j in range(1, jmax + 1):
        lams[(j,)] = float(dres.lams[j - 1])
    for j in range(0, jmax + 1):
        lams[(-j,)] = float(nres.lams[j])
    table = nlw_frequencies(lams, sample.mass, "nlw_periodic")
    return table, {"dirichlet": dres, "neumann": nres}


def convolution_frequencies(d: int, sample: Optional[PotentialSample],
                            jmax: float) -> FrequencyTable:
    """omega_k = |k|^2 + v_k on the lattice |k| <= jmax."""
    coeffs = sample.coeffs if sample is not None else {}
    omega = {}
    for k in lattice_modes(d, jmax):
        omega[k] = float(sum(c * c for c in k)) + float(coeffs.get(k, 0.0))
    return FrequencyTable("nls_dd", omega, meta={"d": d})


# -- diagnostics --------------------------------------------------------


@dataclass
class LocalizationReport:
    n: int
    c_n: float
    worst: tuple


def check_localization(basis: EigenBasis, n: int = 2) -> LocalizationReport:
    """Smallest C_n with |phi_j^k| <= C_n / (1 + min|k -+ j|)^n.

    j labels the eigenfunction (1-based for Dirichlet, 0-based Neumann),
    k the trigonometric wavenumber of the expansion coefficient.
    """
    coeffs = np.abs(basis.coeffs)
    waven = basis.wavenumbers
    offset = 1 if basis.bc == "dirichlet" else 0
    c_n = 0.0
    worst = (0, 0)
    for col in range(coeffs.shape[1]):
        j = col + offset
        dist = np.minimum(np.abs(waven - j), np.abs(waven + j))
        vals = coeffs[:, col] * (1.0 + dist) ** n
        i = int(np.argmax(vals))
        if vals[i] > c_n:
            c_n = float(vals[i])
            worst = (j, int(waven[i]))
    return LocalizationReport(n, c_n, worst)


@dataclass
class ExpansionFit:
    c0: float
    c1: float
    c2: float
    residual: float
    mean_value: float

    @property
    def c0_defect(self) -> float:
        return abs(self.c0 - self.mean_value)


def expansion_fit(lams: np.ndarray, mean_value: float = 0.0,
                  jmin: int = 3) -> ExpansionFit:
    """Least-squares fit lambda_j - j^2 ~ c0 + c1 j^-2 + c2 j^-4 (Dirichlet).

    The constant c0 is compared against the potential's mean value, which
    the exact spectral shift identity forces at leading order.
    """
    jmax = len(lams)
    if jmax < 12:
        raise ValueError("need at least 12 eigenvalues for a stable fit")
    j = np.arange(1, jmax + 1, dtype=float)
    sel = j >= jmin
    y = lams[sel] - j[sel] ** 2
    a = np.stack([np.ones(sel.sum()), j[sel] ** -2, j[sel] ** -4], axis=1)
    sol, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.sqrt(res[0] / sel.sum())) if res.size else 0.0
    return ExpansionFit(float(sol[0]), float(sol[1]), float(sol[2]), resid, mean_value)


@dataclass
class DerivativeCheck:
    j: int
    k: int
    bc: str
    fd_derivative: float
    leading_term: float
    abs_error: float
    step: float


def eigenvalue_derivative_check(potential, j: int, k: int, bc: str = "dirichlet",
                                step: float = 1e-5, jmax: Optional[int] = None,
                                basis_size: Optional[int] = None) -> DerivativeCheck:
    """Central finite difference of lambda_j along the cos(kx) coefficient.

    The leading term is -delta_{k,2j}/2 for Dirichlet eigenvalues and
    +delta_{k,2j}/2 for Neumann ones; corrections are exponentially small
    in the potential's analyticity width.  (The resonant pairing is k = 2j:
    differentiating lambda_j along cos(2j x) moves it by -+1/2, which is
    what the perturbative eigenvalue formulas actually use.)
    """
    coeffs = _coeff_dict(potential)
    jmax = jmax or (j + 8)
    idx = j - 1 if bc == "dirichlet" else j

    def lam(vk):
        c = dict(coeffs)
        c[k] = c.get(k, 0.0) + vk
        res = sturm_liouville(c, bc, jmax, basis_size, check=False)
        return float(res.lams[idx])

    fd = (lam(step) - lam(-step)) / (2 * step)
    lead = 0.0
    if k == 2 * j:
        lead = -0.5 if bc == "dirichlet" else 0.5
    return DerivativeCheck(j, k, bc, fd, lead, abs(fd - lead), step)
