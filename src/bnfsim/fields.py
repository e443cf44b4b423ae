"""Field evaluators for the integrator and for transport, on the real slice.

Dictionary-walking a sparse polynomial at every integrator stage dominates
the cost of a trajectory, so every polynomial that is evaluated often is
first turned into one of two evaluators:

- `QuadratureField` keeps the structure a model builds its quartic from:
  P = weight * sum over grid points of the product of four linear legs.
  One evaluation is a handful of small matrix products on the grid.
- `FieldTable` is the generic fallback for any polynomial.  It is compiled
  once into index tables, and each evaluation is a gather, a product over
  the table's columns and one scatter product: the work matrix has the rows
  G = [xi_0..xi_{n-1}, conj(xi_0)..conj(xi_{n-1}), 1], one column per
  state, and every table row is one term, coefficient times a padded list
  of indices into G.  `ValueTable` evaluates p itself the same way.

Both tables take a batch of B states as a (B, n) array and return one row
(one value) per state; a 1-d state is a batch of one.  Transport carries
every frame of a trajectory through a generator flow in one such batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence

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

    def _product(self, L: np.ndarray, skip: int):
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


# Rows per block of a table evaluation: each block's (rows, B) complex
# temporaries stay within this many bytes.  41 frames through the transport
# workload's 720-row generator table took 20 ms with 64 KB blocks, 23-32 ms
# with 128 KB and 53-55 ms with 512 KB (whole-table temporaries are 472 KB)
# on a 2-vCPU VM.
BLOCK_BYTES = 1 << 16


def _row_blocks(rows: int, batch: int):
    step = max(1, BLOCK_BYTES // (16 * max(batch, 1)))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _work_matrix(X: np.ndarray) -> np.ndarray:
    """[X^T; conj(X)^T; 1] for a (B, n) batch: one column per state, so a
    gather of whole rows reads B contiguous values."""
    B, n = X.shape
    G = np.empty((2 * n + 1, B), dtype=complex)
    G[:n] = X.T
    G[n:2 * n] = np.conj(X.T)
    G[2 * n] = 1.0
    return G


def _column_product(G: np.ndarray, vidx: np.ndarray) -> np.ndarray:
    """prod_k G[vidx[:, k]] per table row and state, one column at a time."""
    if not vidx.shape[1]:
        return np.ones((len(vidx), G.shape[1]), dtype=complex)
    prod = np.take(G, vidx[:, 0], axis=0)
    for k in range(1, vidx.shape[1]):
        prod *= np.take(G, vidx[:, k], axis=0)
    return prod


@dataclass
class FieldTable:
    """Rows evaluating d(p)/d(eta_m) for every layout mode m at eta=conj(xi).

    Row r adds into mode out[r]; `scatter` is the fixed (n x rows) 0/1
    matrix of that map, so the sum back to modes is one real matrix product
    on the interleaved real and imaginary parts of all states at once.
    """
    modes: List[tuple]
    vidx: np.ndarray
    coeff: np.ndarray
    out: np.ndarray
    scatter: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = len(self.out)
        self.scatter = np.zeros((len(self.modes), rows))
        self.scatter[self.out, np.arange(rows)] = 1.0

    def eval(self, x: np.ndarray) -> np.ndarray:
        """The field at x, (n,) for one state or (B, n) for a batch."""
        X = np.atleast_2d(x)
        G = _work_matrix(X)
        F = np.zeros((len(self.modes), 2 * len(X)))
        for r in _row_blocks(len(self.coeff), len(X)):
            vals = _column_product(G, self.vidx[r])
            vals *= self.coeff[r, None]
            F += self.scatter[:, r] @ vals.view(float)
        F = F.view(complex).T
        return F if np.ndim(x) == 2 else F[0]


@dataclass
class ValueTable:
    """Rows evaluating p itself at eta = conj(xi)."""
    modes: List[tuple]
    vidx: np.ndarray
    coeff: np.ndarray

    def eval(self, x: np.ndarray):
        """p at x: a complex for one state, a (B,) array for a batch."""
        X = np.atleast_2d(x)
        G = _work_matrix(X)
        v = np.zeros(len(X), dtype=complex)
        for r in _row_blocks(len(self.coeff), len(X)):
            v += self.coeff[r] @ _column_product(G, self.vidx[r])
        return v if np.ndim(x) == 2 else complex(v[0])


def _layout(modes: Sequence) -> (list, dict):
    ms = sorted({as_mode(m) for m in modes})
    return ms, {m: i for i, m in enumerate(ms)}


def _factors(mono, index: dict, drop=None) -> List[int]:
    """Rows of G multiplied in a term of monomial mono, one per power, less
    one factor eta_drop: xi_m is row index[m], eta_m row n + index[m]."""
    n = len(index)
    idxs = []
    for m, e in mono.xi:
        idxs += [index[m]] * e
    for m, e in mono.eta:
        idxs += [n + index[m]] * (e - (m == drop))
    return idxs


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
    rows = [(complex(c) * e, _factors(mono, index, m), index[m])
            for mono, c in p.items() for m, e in mono.eta]
    vidx, coeff, out = _pack(rows, max(0, p.max_degree() - 1), 2 * len(ms))
    return FieldTable(ms, vidx, coeff, out)


def value_table(p: Polynomial, modes: Sequence) -> ValueTable:
    ms, index = _layout(modes)
    rows = [(complex(c), _factors(mono, index), 0) for mono, c in p.items()]
    vidx, coeff, _ = _pack(rows, max(0, p.max_degree()), 2 * len(ms))
    return ValueTable(ms, vidx, coeff)
