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

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .modes import as_mode, lattice_modes, mode_abs, mode_abs2

NLW_PERIODIC = "nlw_periodic"
NLS_COSINE = "nls_cosine"
CONVOLUTION_D = "convolution_d"

FAMILIES = (NLW_PERIODIC, NLS_COSINE, CONVOLUTION_D)
REFINE_RTOL = 1e-8  # relative eigenvalue movement allowed at twice the basis

# the parameters the envelopes, the lattices and the exception rules read,
# range-checked
_RANGE = {"R": ("a number >= 0", lambda v: v >= 0),
          "b": ("a number >= 0", lambda v: v >= 0),
          "d": ("an integer >= 1", lambda v: v >= 1),
          "kmax": ("an integer >= 0", lambda v: v >= 0),
          "decay": ("a number > 0", lambda v: v > 0)}


class SpectralError(RuntimeError):
    pass


class MassError(SpectralError):
    """A mass m with lambda_j + m <= 0, where omega_j is undefined."""


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


def _param(params: dict, name: str, kind=float, default=None):
    """One sampling parameter, required unless it has a default: a number,
    not a bool, and of kind int an integer one (2.0 reads as 2); a
    ValueError names it."""
    if name not in params:
        if default is None:
            raise ValueError("potential.params: %s required" % name)
        return default
    what, ok = _RANGE.get(name, ("a number", lambda v: True))
    v = params[name]
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if number and isinstance(v, float) and v.is_integer() and kind is int:
        v = int(v)
    if number and (kind is float or isinstance(v, int)) and ok(v):
        return kind(v)
    raise ValueError("potential.params: %s expected %s" % (name, what))


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
    if family == CONVOLUTION_D:
        half, V = convolution_draws(params, [seed])
        coeffs = {}
        for k, v in zip(half, V[:, 0].tolist()):
            coeffs[k] = coeffs[tuple(-c for c in k)] = v
        return PotentialSample(family, dict(params), seed, coeffs)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = _param(params, "R")
    sigma = _param(params, "sigma")
    kmax = _param(params, "kmax", int)
    # the cosine draws, then nlw_periodic's mass draw, in one call
    low = [-0.5] * kmax + [0.0] * (family == NLW_PERIODIC)
    u = rng.uniform(low, np.add(low, 1.0)).tolist()
    coeffs = {k: r * math.exp(-sigma * k) * u[k - 1]
              for k in range(1, kmax + 1)}
    mass = _param(params, "mass_span", default=1.0) * u[-1] \
        if family == NLW_PERIODIC else 0.0
    return PotentialSample(family, dict(params), seed, coeffs, mass)


@functools.lru_cache(maxsize=64)
def _lattice(d: int, radius: float) -> tuple:
    """The modes of |k| <= radius (`lattice_modes`), their |k|^2 as a
    float64 column, and the half k <= -k, one mode of each pair +-k."""
    modes = lattice_modes(d, radius)
    abs2 = np.array([float(mode_abs2(k)) for k in modes])
    abs2.flags.writeable = False  # one array for every caller of the cache
    return modes, abs2, tuple(k for k in modes if k <= tuple(-c for c in k))


def convolution_draws(params: dict, seeds: Sequence[int]
                      ) -> Tuple[tuple, np.ndarray]:
    """The half k <= -k of |k| <= kmax and the convolution_d draws
    v_k = R u_k / (1+|k|)^decay on it, one column per seed: one uniform
    call on the seed's own stream, and per mode a Python-float envelope and
    one IEEE multiply and divide, so no column depends on the others."""
    r = _param(params, "R")
    d, kmax = _param(params, "d", int), _param(params, "kmax", int)
    decay = _param(params, "decay")
    half = _lattice(d, kmax)[2]
    env = np.array([(1.0 + mode_abs(k)) ** decay for k in half])
    U = np.array([np.random.default_rng(np.random.SeedSequence(s))
                  .uniform(-0.5, 0.5, len(half)) for s in seeds]).T
    return half, r * U / env[:, None]


# -- Galerkin assembly --------------------------------------------------


def _dirichlet_matrix(coeffs: Dict[int, float], m: int) -> np.ndarray:
    """Matrix of -d2/dx2 + sum v_k cos(kx) in the sine basis on (0, pi)."""
    h = np.zeros((m, m))
    i = np.arange(1, m + 1)
    h[np.diag_indices(m)] = i.astype(float) ** 2
    for k, v in coeffs.items():
        if k == 0:
            h[np.diag_indices(m)] += v
            continue
        # cos(kx) sin(ix) = [sin((i+k)x) + sin((i-k)x)] / 2, and
        # sin((i-k)x) = -sin((k-i)x): one add per rule, in the rule's bounds
        for j, ok, c in ((i + k, i + k <= m, 0.5 * v),
                         (i - k, i - k >= 1, 0.5 * v),
                         (k - i, (k - i >= 1) & (k - i <= m), -0.5 * v)):
            h[j[ok] - 1, i[ok] - 1] += c
    return 0.5 * (h + h.T)


def _neumann_matrix(coeffs: Dict[int, float], m: int) -> np.ndarray:
    """Same operator in the cosine basis cos(nx), n = 0..m-1."""
    h = np.zeros((m, m))
    n = np.arange(m)
    h[np.diag_indices(m)] = n.astype(float) ** 2
    norms = np.full(m, math.sqrt(2.0 / math.pi))
    norms[0] = math.sqrt(1.0 / math.pi)
    # sq[n] = integral over (0, pi) of cos(nx)^2
    sq = np.full(m, math.pi / 2)
    sq[0] = math.pi
    for k, v in coeffs.items():
        if k == 0:
            h[np.diag_indices(m)] += v
            continue
        # cos(kx) cos(nx) = [cos((n+k)x) + cos((n-k)x)] / 2; the two
        # targets meet only at n = 0, where they add in this order
        for target in (n + k, np.abs(n - k)):
            t, c = target[target < m], n[target < m]
            h[t, c] += v * 0.5 * norms[t] * norms[c] * sq[t]
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


@dataclass
class SpectralResult:
    lams: np.ndarray
    basis: EigenBasis
    bc: str
    refinement_err: float


def _operator(coeffs, bc, m):
    """The Galerkin matrix of size m and its basis wavenumbers."""
    if bc == "dirichlet":
        return _dirichlet_matrix(coeffs, m), np.arange(1, m + 1)
    if bc == "neumann":
        return _neumann_matrix(coeffs, m), np.arange(m)
    raise ValueError("bc must be dirichlet or neumann")


def _solve(coeffs, bc, m):
    h, waven = _operator(coeffs, bc, m)
    lams, vecs = np.linalg.eigh(h)
    return lams, vecs, waven


def _cosine_coeffs(p) -> Dict[int, float]:
    """{k: v_k} of a PotentialSample or a dict; a lattice key k is an error."""
    return {int(k): v for k, v in getattr(p, "coeffs", p).items()}


def sturm_liouville(potential, bc: str = "dirichlet", jmax: int = 16,
                    basis_size: Optional[int] = None) -> SpectralResult:
    """First jmax eigenvalues and eigenfunctions of -d2/dx2 + V0 on (0, pi).

    The potential's mean/mass term is *not* included; for models that carry
    one, shift the eigenvalues afterwards (the shift is exact).  The solve
    is repeated at twice the basis size and the relative eigenvalue
    movement must stay below REFINE_RTOL.
    """
    coeffs = _cosine_coeffs(potential)
    m = basis_size or max(4 * jmax, 32)
    if m < jmax + 2:
        raise ValueError("basis_size: must be >= %d, two more than the %d "
                         "eigenvalues solved for" % (jmax + 2, jmax))
    lams, vecs, waven = _solve(coeffs, bc, m)
    # the refinement only checks the eigenvalues
    lams2 = np.linalg.eigvalsh(_operator(coeffs, bc, 2 * m)[0])
    num = np.abs(lams[:jmax] - lams2[:jmax])
    den = np.maximum(1.0, np.abs(lams2[:jmax]))
    err = float(np.max(num / den))
    if err > REFINE_RTOL:
        raise SpectralError(
            "Galerkin truncation not converged: rel err %.3e > %.0e "
            "(increase basis_size)" % (err, REFINE_RTOL))
    basis = EigenBasis(bc, vecs[:, :jmax].copy(), waven)
    return SpectralResult(lams[:jmax].copy(), basis, bc, err)


# -- frequency tables ---------------------------------------------------


def mode_eigenvalues(*results: SpectralResult) -> dict:
    """Mode -> eigenvalue of the solved spectra, in their order: Dirichlet
    lams[j-1] is mode j >= 1, Neumann lams[j] is mode -j <= 0."""
    return {(j + 1,) if res.bc == "dirichlet" else (-j,): lam
            for res in results for j, lam in enumerate(res.lams.tolist())}


@dataclass
class FrequencyTable:
    """Mode -> frequency map."""
    omega: dict

    def modes(self) -> list:
        return sorted(self.omega)

    def omega_of(self, j) -> float:
        return self.omega[as_mode(j)]

    def vector(self, modes) -> np.ndarray:
        return np.array([self.omega[as_mode(j)] for j in modes])


def nlw_frequencies(lams: dict, mass: float) -> FrequencyTable:
    """omega_j = sqrt(lambda_j + m); rejects non-positive arguments."""
    omega = {}
    for j, l in lams.items():
        v = l + mass
        if v <= 0:
            raise MassError("lambda_%s + m = %g <= 0, omega undefined" % (j, v))
        omega[as_mode(j)] = math.sqrt(v)
    return FrequencyTable(omega)


def periodic_nlw_table(sample: PotentialSample, jmax: int,
                       basis_size: Optional[int] = None) -> tuple:
    """Frequencies for the periodic wave model: j > 0 Dirichlet, j <= 0
    Neumann, at the sample's mass.

    Returns the table and the Dirichlet and Neumann SpectralResults.
    """
    dres = sturm_liouville(sample, "dirichlet", jmax, basis_size)
    nres = sturm_liouville(sample, "neumann", jmax + 1, basis_size)
    table = nlw_frequencies(mode_eigenvalues(dres, nres), sample.mass)
    return table, dres, nres


def convolution_frequencies(d: int, sample: Optional[PotentialSample],
                            jmax: float) -> FrequencyTable:
    """omega_k = |k|^2 + v_k on the lattice |k| <= jmax."""
    coeffs = sample.coeffs if sample is not None else {}
    modes, abs2, _ = _lattice(d, jmax)
    return FrequencyTable({k: a + float(coeffs.get(k, 0.0))
                           for k, a in zip(modes, abs2.tolist())})


def convolution_columns(params: dict, seeds: Sequence[int], jmax: float
                        ) -> Tuple[tuple, np.ndarray]:
    """The modes of |k| <= jmax and, one column per seed, the
    `convolution_frequencies` of its `sample_potential` draw: |k|^2 plus
    the draw of k's pair, or 0.0 past kmax, the table's one IEEE add."""
    half, V = convolution_draws(params, seeds)
    modes, abs2, _ = _lattice(_param(params, "d", int), jmax)
    at = dict(zip(half, range(len(half))))
    rows = [at.get(min(k, tuple(-c for c in k)), len(half)) for k in modes]
    return modes, abs2[:, None] + np.vstack([V, np.zeros(len(seeds))])[rows]


# -- diagnostics --------------------------------------------------------


@dataclass
class ExpansionFit:
    c0: float
    c1: float
    c2: float
    residual: float
    mean_value: float


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
