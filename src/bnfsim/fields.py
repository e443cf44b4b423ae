"""Field evaluators for the integrator and for transport, on the real slice.

Dictionary-walking a sparse polynomial at every integrator stage dominates
the cost of a trajectory, so every polynomial that is evaluated often is
first turned into one of two evaluators:

- `QuadratureField` keeps the structure a model builds its quartic from:
  P = weight * sum over grid points of the product of four linear legs.
  One evaluation is a handful of small matrix products on the grid: one
  gemv per leg, each small enough that OpenBLAS keeps it on one thread.
- `FieldTable` is the generic fallback for any polynomial.  It is compiled
  once into index tables, and each evaluation is, per block of rows, a
  gather, a product over the table's columns and one 0/1 matrix product
  back to the modes: the work matrix has the rows
  G = [xi_0..xi_{n-1}, conj(xi_0)..conj(xi_{n-1}), 1], one column per
  state, and every table row is one term, coefficient times a padded list
  of indices into G.  `ValueTable` evaluates p itself the same way.

Both tables take a batch of B states as a (B, n) array and return one row
(one value) per state; a 1-d state is a batch of one.  Transport carries
every frame of a trajectory through a generator flow in one such batch.

The integrator evaluates one state at a time, thousands of times a run, so
both field evaluators also give a `Kernel`: a writable input row and
`run(out)`, which writes the field at that row into `out`.  A quadrature
kernel owns every work array of its evaluation and has each product write
into one of them, so a run allocates them once; `eval` fills a fresh
kernel's row and runs it into a fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

from .modes import as_mode
from .poly import Polynomial, exponent_entries


class Leg(NamedTuple):
    """One linear factor sum_i weights[i] z[vars[i]] rows[i](x) of a quartic.

    `vars` index the fields layout over the model's sorted modes: v < n is
    xi_v, v >= n is eta_(v-n).  `rows` holds one grid row per variable.
    """
    vars: np.ndarray
    weights: np.ndarray
    rows: np.ndarray


class Kernel(NamedTuple):
    """One field evaluation bound to its own work arrays: `run(out)` writes
    the field at the state in the writable row `x` into the (n,) `out`."""
    x: np.ndarray
    run: Callable[[np.ndarray], None]


def eval_kernel(evaluate: Callable[[np.ndarray], np.ndarray],
                n: int) -> Kernel:
    """The kernel of an evaluator that returns its field as a new array:
    `run` evaluates the row and copies the result out."""
    x = np.zeros(n, dtype=complex)
    return Kernel(x, lambda out: np.copyto(out, evaluate(x)))


# OpenBLAS runs a complex gemv of fewer entries than this on one thread
# (1,024 times its GEMM_MULTITHREAD_THRESHOLD of 4); from there on it hands
# the product to its threads, which costs more than such a product takes
GEMV_ONE_THREAD = 4096


class QuadratureField:
    """d(P)/d(eta_m) and P for P = weight * sum_g prod_i L_i(g) on a grid.

    L_i(g) = sum_k weights_i[k] z[vars_i[k]] rows_i[k, g] is leg i on the
    grid, with z = [xi, eta] over a layout of `size` modes and eta = conj(xi)
    on the real slice.  A leg passed several times as the same object is
    formed once and multiplied in that many times.  All legs are formed by
    one broadcast matrix product, one gemv per leg (per piece of a leg, on
    a grid too large for one gemv below GEMV_ONE_THREAD entries), and the
    field is gathered back by a second product.
    """

    def __init__(self, size: int, legs: Sequence[Leg], weight: float):
        uniq = list({id(leg): leg for leg in legs}.values())
        self.mult = [sum(leg is known for leg in legs) for known in uniq]
        self.legs, self.weight = legs, weight
        self.grid = uniq[0].rows.shape[1]
        # weighted rows of every leg, scattered into one complex matrix once
        # rather than cast on every call: z @ mat[:, u, :] is leg u.  The
        # grid is padded with zero columns to whole pieces of `width`, so
        # that a piece of a leg is a gemv of fewer than GEMV_ONE_THREAD
        # entries
        width = max(1, (GEMV_ONE_THREAD - 1) // (2 * size))
        pieces = -(-self.grid // width)
        width = -(-self.grid // pieces)
        padded = np.zeros((2 * size, len(uniq), pieces * width),
                          dtype=complex)
        mat = padded[:, :, :self.grid]
        for u, leg in enumerate(uniq):
            np.add.at(mat[:, u], leg.vars, leg.weights[:, None] * leg.rows)
        # one (2n, width) matrix per piece: z @ legs_of_z[u * pieces + p] is
        # piece p of leg u
        self.legs_of_z = np.ascontiguousarray(
            padded.reshape(2 * size, -1, width).transpose(1, 0, 2))
        # d(L_u)/d(eta), times the multiplicity, for the legs that carry eta
        self.eta_legs = [u for u in range(len(uniq)) if mat[size:, u].any()]
        self.field_of_legs = (mat[size:, self.eta_legs]
                              * np.array(self.mult)[self.eta_legs, None]
                              ).reshape(size, -1)
        # the factors of each eta leg's product, in multiplication order:
        # every leg times its multiplicity, less one factor of that leg
        self.factors = [[u for u, m in enumerate(self.mult)
                         for _ in range(m - (u == skip))]
                        for skip in self.eta_legs]

    # The legs come from one broadcast (1, 2n) @ (legs * pieces, 2n, width)
    # product into a (legs * pieces, 1, width) work array: one numpy call,
    # one gemv per matrix of the stack.  OpenBLAS threads a complex gemv
    # from about 4,096 entries on (at two threads on a 2-vCPU host the time
    # steps up between 4,032 and 4,104 entries).
    # - A drift leg (nls1d jmax=9) has 18 x 160 = 2,880 entries and a
    #   transport leg (jmax=6) 12 x 144 = 1,728, so neither threads.  One
    #   (1, 18) @ (18, 320) product of both drift legs, 5,760 entries,
    #   threads on every run: with it drift was about 14% slower at two
    #   threads than at one on a quiet host, and up to 10 times slower on
    #   a loaded one.
    # - On the 1-d models each leg's gemv gives the bits of that packed
    #   product, to which the integrator's outputs are pinned.
    # - A threaded gemv splits its columns between the threads, and its
    #   last bits moved with the thread count (nls_dd d=2 jmax=3, 58 x 169 =
    #   9,802 entries a leg).  Formed in pieces below the cutoff, three of
    #   57 columns there, every leg keeps its bits at any thread count.
    # The field is gathered back by (n, P) @ (P,), which reaches the same
    # gemv as (n, P) @ (P, 1) and gave the same bits in 10,000 random
    # trials at one and at two threads.  The operands and order of both
    # products stay as they are: the rounding of these BLAS calls is pinned
    # too (conj(x @ W) and conj(x) @ W, for one, differ in the last bits).
    def kernel(self) -> Kernel:
        n, grid = self.field_of_legs.shape[0], self.grid
        z = np.zeros((1, 2 * n), dtype=complex)
        x, x_bar = z[0, :n], z[0, n:]
        legs_of_z, field_of_legs = self.legs_of_z, self.field_of_legs
        # the complex value the float weight is cast to, as a 0-d array:
        # cheaper to pass than a Python scalar
        weight = np.array(complex(self.weight))
        L = np.empty((len(legs_of_z), 1, legs_of_z.shape[2]), dtype=complex)
        rows = L.reshape(len(self.mult), -1)[:, :grid]
        prod = np.empty(len(self.factors) * grid, dtype=complex)
        # per eta leg: its slice of prod, its first leg row and the rest
        plan = [(prod[k * grid:(k + 1) * grid], rows[first],
                 [rows[u] for u in rest])
                for k, (first, *rest) in enumerate(self.factors)]

        conjugate, matmul, multiply = np.conjugate, np.matmul, np.multiply

        # each ufunc writes into its last argument
        def run(out: np.ndarray) -> None:
            conjugate(x, x_bar)
            matmul(z, legs_of_z, L)
            for col, first, rest in plan:
                multiply(weight, first, col)
                for Lu in rest:
                    multiply(col, Lu, col)
            matmul(field_of_legs, prod, out)
        return Kernel(x, run)

    def eval(self, x: np.ndarray) -> np.ndarray:
        kern = self.kernel()
        kern.x[:] = x
        out = np.empty(len(kern.x), dtype=complex)
        kern.run(out)
        return out


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

    Row r adds into mode out[r].  Each block of rows sums back to the modes
    through the (n x block) 0/1 matrix of that map, built from `out` per
    block: one real matrix product on the interleaved real and imaginary
    parts of all states at once.
    """
    modes: List[tuple]
    vidx: np.ndarray
    coeff: np.ndarray
    out: np.ndarray

    def kernel(self) -> Kernel:
        return eval_kernel(self.eval, len(self.modes))

    def eval(self, x: np.ndarray) -> np.ndarray:
        """The field at x, (n,) for one state or (B, n) for a batch."""
        X = np.atleast_2d(x)
        G = _work_matrix(X)
        F = np.zeros((len(self.modes), 2 * len(X)))
        for r in _row_blocks(len(self.coeff), len(X)):
            vals = _column_product(G, self.vidx[r])
            vals *= self.coeff[r, None]
            S = np.zeros((len(self.modes), len(vals)))
            S[self.out[r], np.arange(len(vals))] = 1.0
            F += S @ vals.view(float)
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


def _table(p: Polynomial, modes: Sequence, grad: bool) -> tuple:
    """(layout, vidx, coeff, out) of p's table over the sorted modes: a row
    per term, or with `grad` a row per eta_m exponent e of a term, e times
    its coefficient with one factor eta_m fewer, added into mode m.  A
    row's factors index G in ascending order: xi of layout mode k is row
    k, eta row n + k; the rest is padded with the row of ones, 2n."""
    ms = sorted({as_mode(m) for m in modes})
    n, rows = len(ms), len(p)
    t, col, e = exponent_entries(p, ms)
    coeff = np.array(p.coef, dtype=complex)
    out = np.zeros(rows, dtype=np.int64)
    if grad:
        # row r is eta entry k[r] with the other entries of its term, the
        # exponent at k[r] lowered by 1
        k = np.flatnonzero(col >= n)
        cnt = np.bincount(t, minlength=rows)[t[k]]
        first = np.searchsorted(t, t[k])
        rows, r = len(k), np.repeat(np.arange(len(k)), cnt)
        src = np.arange(len(r)) + np.repeat(first - np.cumsum(cnt) + cnt, cnt)
        coeff, out = coeff[t[k]] * e[k], col[k] - n
        t, col, e = r, col[src], e[src] - (src == k[r])
    size = np.bincount(t, weights=e, minlength=rows).astype(np.int64)
    reps = np.repeat(t, e)
    # column-major, so that each column gather reads contiguous indices
    vidx = np.full((rows, max(0, p.max_degree() - grad)), 2 * n,
                   dtype=np.int64, order="F")
    vidx[reps, np.arange(len(reps)) - (np.cumsum(size) - size)[reps]] = \
        np.repeat(col, e)
    return ms, vidx, coeff, out


def eta_gradient_table(p: Polynomial, modes: Sequence) -> FieldTable:
    """Compile all partial derivatives d(p)/d(eta_m) for m in the layout."""
    return FieldTable(*_table(p, modes, True))


def value_table(p: Polynomial, modes: Sequence) -> ValueTable:
    return ValueTable(*_table(p, modes, False)[:3])
