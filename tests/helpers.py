"""Test-only operations on polynomials and divisors.

The package never calls these; the tests use them to state and check the
package's results from their definitions.
"""
import math
from typing import Tuple

import numpy as np

from bnfsim.modes import as_mode
from bnfsim.poly import Monomial, Polynomial, _accum, _conj
from bnfsim.resonance import omega_dot


def small_divisor(omega, k) -> float:
    """|omega.k|; raises KeyError on modes outside the table."""
    return abs(omega_dot(omega, k))


def allclose(p: Polynomial, q: Polynomial, tol: float = 1e-12) -> bool:
    return (p - q).l1() <= tol


def conj_flip(p: Polynomial) -> Polynomial:
    """conj(c_{kl}) attached to xi^l eta^k; equals p iff real-flagged."""
    return Polynomial({m.flip(): _conj(c) for m, c in p.terms.items()})


def momentum_filter(p: Polynomial) -> Polynomial:
    """Zero-total-momentum part of the polynomial."""
    return p.filter(lambda m: not any(m.momentum))


def _deriv(p: Polynomial, mode, wrt_xi: bool) -> Polynomial:
    mode = as_mode(mode)
    acc = {}
    for mono, c in p.terms.items():
        d = dict(mono.xi if wrt_xi else mono.eta)
        e = d.get(mode, 0)
        if e == 0:
            continue
        if e == 1:
            del d[mode]
        else:
            d[mode] = e - 1
        new = Monomial(d, mono.eta) if wrt_xi else Monomial(mono.xi, d)
        _accum(acc, new, c * e)
    return Polynomial(acc)


def d_xi(p: Polynomial, mode) -> Polynomial:
    return _deriv(p, mode, True)


def d_eta(p: Polynomial, mode) -> Polynomial:
    return _deriv(p, mode, False)


def evaluate(p: Polynomial, xi_map: dict, eta_map: dict):
    """Evaluate at a point; missing modes count as zero, and a term with a
    zero factor is skipped."""
    xm = {as_mode(k): v for k, v in xi_map.items()}
    em = {as_mode(k): v for k, v in eta_map.items()}
    tot = 0.0
    for mono, c in p.terms.items():
        zs = [(xm.get(m, 0.0), e) for m, e in mono.xi] + \
            [(em.get(m, 0.0), e) for m, e in mono.eta]
        if all(z != 0.0 for z, _ in zs):
            v = c
            for z, e in zs:
                v = v * z ** e
            tot = tot + v
    return tot


def evaluate_real_slice(p: Polynomial, xi_map: dict):
    """Evaluate on eta = conj(xi)."""
    return evaluate(p, xi_map, {k: _conj(v) for k, v in xi_map.items()})


def below_reference(div: np.ndarray, K: np.ndarray, W: np.ndarray,
                    thr: float, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Entries (i, s), in row-major order, with |K[i] . W[:, s]| < thr,
    given div = K @ W.

    With |k| <= order the product is off the exactly-rounded sum by less
    than (n + 1) eps order max|w| over n columns; entries within twice that
    of thr, with each column's own max|w|, are decided by `math.fsum`, as
    `omega_dot` decides them.
    """
    band = 2 * (len(W) + 1) * np.finfo(float).eps * order * \
        np.max(np.abs(W), axis=0, initial=0.0)
    ri, si = np.nonzero(np.abs(div) < thr + band)
    a = np.abs(div[ri, si])
    keep = a < thr
    for e in np.flatnonzero(np.abs(a - thr) <= band[si]):
        nz = np.flatnonzero(K[ri[e]])
        keep[e] = abs(math.fsum(W[nz, si[e]] * K[ri[e], nz])) < thr
    return ri[keep], si[keep]


def dirichlet_matrix_reference(coeffs: dict, m: int) -> np.ndarray:
    """Matrix of -d2/dx2 + sum v_k cos(kx) in the sine basis on (0, pi),
    assembled one basis function at a time."""
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


def neumann_matrix_reference(coeffs: dict, m: int) -> np.ndarray:
    """The same operator in the cosine basis cos(nx), n = 0..m-1, assembled
    one basis function at a time."""
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
