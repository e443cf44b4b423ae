"""Field evaluators for the integrator and for transport, on the real slice.

Dictionary-walking a sparse polynomial at every integrator stage dominates
the cost of a trajectory, so every polynomial that is evaluated often is
first turned into one of two evaluators:

- `QuadratureField` keeps the structure a model builds its quartic from:
  P = weight * sum over grid points of the product of four linear legs.
  One evaluation is a handful of small matrix products on the grid.
- `FieldTable` is the generic fallback for any polynomial.  It is compiled
  once into index tables, and each evaluation is a gather, a product over
  the table's columns and a bincount: the work vector is
  G = [xi_0..xi_{n-1}, conj(xi_0)..conj(xi_{n-1}), 1] and every table row
  is one term, coefficient times a padded list of indices into G.
  `ValueTable` evaluates p itself the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .modes import as_mode
from .poly import Polynomial


class Leg(NamedTuple):
    """One linear factor sum_i weights[i] z[vars[i]] rows[i](x) of a quartic.

    `vars` index the fields layout over the model's sorted modes: v < n is
    xi_v, v >= n is eta_(v-n).  `rows` holds one grid row per variable.
    """
    vars: np.ndarray
    weights: np.ndarray
    rows: np.ndarray


class QuadratureField:
    """d(P)/d(eta_m) and P for P = weight * sum_g prod_i L_i(g) on a grid.

    L_i(g) = sum_k weights_i[k] z[vars_i[k]] rows_i[k, g] is leg i on the
    grid, with z = [xi, eta] over a layout of `size` modes and eta = conj(xi)
    on the real slice.  A leg passed several times as the same object is
    formed once and multiplied in that many times.  All legs are formed by
    one matrix product, and the field is gathered back by a second one.
    """

    def __init__(self, size: int, legs: Sequence[Leg], weight: float):
        uniq = list({id(leg): leg for leg in legs}.values())
        self.mult = [sum(leg is known for leg in legs) for known in uniq]
        self.weight = weight
        self.grid = uniq[0].rows.shape[1]
        # weighted rows of every leg, scattered into one complex matrix once
        # rather than cast on every call: z @ mat[:, u, :] is leg u
        mat = np.zeros((2 * size, len(uniq), self.grid), dtype=complex)
        for u, leg in enumerate(uniq):
            np.add.at(mat[:, u], leg.vars, leg.weights[:, None] * leg.rows)
        self.legs_of_z = mat.reshape(2 * size, -1)
        # d(L_u)/d(eta), times the multiplicity, for the legs that carry eta
        self.eta_legs = [u for u in range(len(uniq)) if mat[size:, u].any()]
        self.field_of_legs = (mat[size:, self.eta_legs]
                              * np.array(self.mult)[self.eta_legs, None]
                              ).reshape(size, -1)

    # Both products are taken between 2-d arrays.  With two OpenBLAS
    # threads on a 2-vCPU host, the 1-d (18,) @ (18, 320) product of the
    # nls1d jmax=9 legs took 395 us, against 6 us for (1, 18) @ (18, 320).
    def _legs(self, x: np.ndarray) -> np.ndarray:
        z = np.concatenate([x, np.conj(x)])
        return (z[None, :] @ self.legs_of_z).reshape(-1, self.grid)

    def _product(self, L: np.ndarray, skip: int = -1):
        """weight times the legs on the grid, less one factor of leg `skip`."""
        prod = self.weight
        for u, (Lu, m) in enumerate(zip(L, self.mult)):
            for _ in range(m - (u == skip)):
                prod = prod * Lu
        return prod

    def eval(self, x: np.ndarray) -> np.ndarray:
        L = self._legs(x)
        prods = np.concatenate([self._product(L, u) for u in self.eta_legs])
        return (self.field_of_legs @ prods[:, None])[:, 0]

    def value(self, x: np.ndarray) -> complex:
        return complex(np.sum(self._product(self._legs(x))))


def _work_vector(x: np.ndarray) -> np.ndarray:
    n = len(x)
    G = np.empty(2 * n + 1, dtype=complex)
    G[:n] = x
    G[n:2 * n] = np.conj(x)
    G[2 * n] = 1.0
    return G


def _column_product(G: np.ndarray, vidx: np.ndarray) -> np.ndarray:
    """prod_k G[vidx[:, k]] row by row, one contiguous column at a time."""
    if not vidx.shape[1]:
        return np.ones(len(vidx), dtype=complex)
    prod = G[vidx[:, 0]]
    for k in range(1, vidx.shape[1]):
        prod *= G[vidx[:, k]]
    return prod


@dataclass
class FieldTable:
    """Rows evaluating d(p)/d(eta_m) for every layout mode m at eta=conj(xi)."""
    modes: List[tuple]
    index: Dict[tuple, int]
    vidx: np.ndarray
    coeff: np.ndarray
    out: np.ndarray

    def eval(self, x: np.ndarray) -> np.ndarray:
        n = len(self.modes)
        if not len(self.coeff):
            return np.zeros(n, dtype=complex)
        vals = self.coeff * _column_product(_work_vector(x), self.vidx)
        re = np.bincount(self.out, vals.real, minlength=n)
        im = np.bincount(self.out, vals.imag, minlength=n)
        return re + 1j * im


@dataclass
class ValueTable:
    """Rows evaluating p itself at eta = conj(xi)."""
    modes: List[tuple]
    vidx: np.ndarray
    coeff: np.ndarray

    def eval(self, x: np.ndarray) -> complex:
        if not len(self.coeff):
            return 0.0 + 0.0j
        return complex(np.sum(
            self.coeff * _column_product(_work_vector(x), self.vidx)))


def _layout(modes: Sequence) -> (list, dict):
    ms = sorted({as_mode(m) for m in modes})
    return ms, {m: i for i, m in enumerate(ms)}


def _pack(rows: list, width: int, pad: int):
    # column-major, so that each column gather reads contiguous indices
    vidx = np.full((len(rows), width), pad, dtype=np.int64, order="F")
    coeff = np.empty(len(rows), dtype=complex)
    out = np.empty(len(rows), dtype=np.int64)
    for r, (c, idxs, o) in enumerate(rows):
        coeff[r] = c
        out[r] = o
        vidx[r, :len(idxs)] = idxs
    return vidx, coeff, out


def eta_gradient_table(p: Polynomial, modes: Sequence) -> FieldTable:
    """Compile all partial derivatives d(p)/d(eta_m) for m in the layout."""
    ms, index = _layout(modes)
    n = len(ms)
    rows = []
    width = max(0, p.max_degree() - 1)
    for mono, c in p.items():
        base = []
        for m, e in mono.xi:
            base += [index[m]] * e
        for m, e in mono.eta:
            out = index[m]
            idxs = list(base)
            for m2, e2 in mono.eta:
                reps = e2 - 1 if m2 == m else e2
                idxs += [n + index[m2]] * reps
            rows.append((complex(c) * e, idxs, out))
    vidx, coeff, out = _pack(rows, width, 2 * n)
    return FieldTable(ms, index, vidx, coeff, out)


def value_table(p: Polynomial, modes: Sequence) -> ValueTable:
    ms, index = _layout(modes)
    n = len(ms)
    rows = []
    width = max(0, p.max_degree())
    for mono, c in p.items():
        idxs = []
        for m, e in mono.xi:
            idxs += [index[m]] * e
        for m, e in mono.eta:
            idxs += [n + index[m]] * e
        rows.append((complex(c), idxs, 0))
    vidx, coeff, _ = _pack(rows, width, 2 * n)
    return ValueTable(ms, vidx, coeff)
