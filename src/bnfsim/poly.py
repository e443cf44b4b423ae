"""Sparse polynomial algebra in complex oscillator variables.

Polynomials live in variables (xi_j, eta_j) indexed by lattice modes j.
On the real slice eta_j = conj(xi_j), the action of mode j is
I_j = xi_j eta_j, and the quadratic part of a Hamiltonian is
sum_j omega_j xi_j eta_j.

The Poisson bracket convention is fixed once and used everywhere:

    {f, g} = i * sum_m (df/deta_m dg/dxi_m - df/dxi_m dg/deta_m)

so that {H0, xi^k eta^l} = i omega.(k - l) xi^k eta^l for
H0 = sum_m omega_m xi_m eta_m.

A `Polynomial` is one term store: its sorted `modes`, the non-zero
exponents e of its terms t at columns col (xi of modes[k] is column k, its
eta column len(modes) + k), sorted by term and then column, and the
coefficient vector `coef`, complex, or object for exact Gaussian rationals
(`exact.GaussRat`, for identity-grade algebra checks).  It keeps every
degree its operations produce.  Degree truncation is the Lie series'
policy: `poisson_bracket` takes an optional `cap` and skips the term pairs
that land above it, and `bracket_overflow` meters the l1 mass those pairs
carry.

Filters and splits are masks over the terms; sums and the bracket merge
equal terms by one sort of packed exponent rows (`_pack`, `_merge`).  The
terms come out in the order of the dict code and the term-pair loop these
replaced (kept in tests/helpers.py), later sums depend on it, and each
coefficient with Python's complex operations in order, so results equal
theirs to the bit.  The text form and the membership keys are written
from the entries too (`term_texts`).  A `Monomial`, the tuple (degree, xi,
eta), appears only in a {Monomial: coefficient} mapping given to the
constructor and in the read-only `terms` view, built on first use.
"""
from __future__ import annotations

import math
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .exact import GaussRat
from .modes import as_mode, in_ball, mode_str, parse_mode

PRUNE_REL = 1e-14
TAIL_BUDGET = 2  # the exponent mass a normalizable term may carry beyond N


class Monomial(tuple):
    """An exponent pattern xi^k eta^l, the key of a polynomial's terms: the
    tuple (degree, xi, eta), whose order is by degree, then xi, then eta.

    `xi` and `eta` are sorted tuples of (mode, exponent) pairs with
    positive integer exponents.
    """

    __slots__ = ()

    def __new__(cls, xi=(), eta=()):
        # a mapping's pairs are sorted and its zero exponents dropped
        xi, eta = (tuple((as_mode(m), int(e)) for m, e in (
            sorted((m, e) for m, e in x.items() if e) if isinstance(x, dict)
            else x)) for x in (xi, eta))
        if any(e <= 0 for _, e in xi + eta):
            raise ValueError("exponents must be positive")
        return _key(xi, eta, sum(e for _, e in xi + eta))

    def __getnewargs__(self):
        """pickle and deepcopy rebuild a key as Monomial(xi, eta)."""
        return self[1], self[2]

    degree = property(itemgetter(0))
    xi = property(itemgetter(1))
    eta = property(itemgetter(2))

    def flip(self) -> "Monomial":
        """Swap the xi and eta exponent patterns."""
        return _key(self[2], self[1], self[0])

    def __repr__(self):
        parts = ["xi[%s]^%d" % (mode_str(m), e) for m, e in self.xi]
        parts += ["eta[%s]^%d" % (mode_str(m), e) for m, e in self.eta]
        return " ".join(parts) if parts else "1"


def _key(xi: tuple, eta: tuple, degree: int) -> Monomial:
    """A Monomial from parts already in the form Monomial() gives them,
    unchecked."""
    return tuple.__new__(Monomial, (degree, xi, eta))


class Polynomial:
    """Sparse polynomial: sorted `modes`, exponent entries `t`, `col`, `e`
    and coefficients `coef` (see the module docstring); `deg` is each
    term's degree.  Built straight from entries (`from_entries`), or from
    a {Monomial: coefficient} mapping (tests); either way exact zeros and
    float coefficients at most 1e-14 of the largest modulus are pruned.  A
    polynomial is not changed once built.
    """

    __slots__ = ("modes", "t", "col", "e", "coef", "deg", "_terms")

    def __init__(self, terms=None):
        terms = dict(terms) if terms else {}
        self.__setstate__(_state([(t, part, m, e) for t, k in enumerate(terms)
                                  for part in (0, 1) for m, e in k[1 + part]],
                                 list(terms.values())))

    @classmethod
    def from_entries(cls, modes: list, t: np.ndarray, col: np.ndarray,
                     e: np.ndarray, coef) -> "Polynomial":
        """The polynomial of these entries and coefficients over the sorted
        `modes`, which hold every mode the entries use."""
        p = cls.__new__(cls)
        p.__setstate__((modes, t, col, e, coef))
        return p

    def __getstate__(self):
        return self.modes, self.t, self.col, self.e, self.coef

    def __setstate__(self, state):
        """Hold the terms of `state`, pruned, over the modes they carry."""
        modes, t, col, e, coef = state
        coef = np.asarray(coef)
        if coef.dtype != object:
            coef = coef.astype(complex, copy=False)
        keep = _prune(coef)
        t, col, e = _take(t, col, e, keep)
        n, coef = len(modes), coef[keep]
        used = np.zeros(n, dtype=bool)
        used[np.where(col < n, col, col - n)] = True
        new = np.cumsum(used) - 1
        self.modes = [m for m, u in zip(modes, used) if u]
        self.t, self.col = t, np.r_[new, new + len(self.modes)][col]
        self.e, self.coef = e.astype(np.int16), coef
        self.deg = np.bincount(t, weights=e, minlength=len(coef)).astype(int)
        self._terms = None

    # -- basic queries ------------------------------------------------

    @property
    def terms(self):
        """The read-only {Monomial: coefficient} mapping, in term order,
        built on first use."""
        if self._terms is None:
            labels = self.modes + self.modes
            slots = tuple(zip([labels[c] for c in self.col.tolist()],
                              self.e.tolist()))
            keys = [_key(slots[lo:mid], slots[mid:hi], d) for lo, mid, hi, d
                    in zip(*term_bounds(self), self.deg.tolist())]
            self._terms = MappingProxyType(dict(zip(keys,
                                                    self.coef.tolist())))
        return self._terms

    def __len__(self):
        return len(self.coef)

    def __bool__(self):
        return len(self.coef) > 0

    def l1(self) -> float:
        return math.fsum(_abs(self.coef).tolist())

    def min_degree(self) -> int:
        return int(self.deg.min()) if self else 0

    def max_degree(self) -> int:
        return int(self.deg.max()) if self else 0

    def degrees(self) -> list:
        return np.unique(self.deg).tolist()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """self's terms in order, then the terms of other that self lacks;
        a term of both has self's coefficient + other's."""
        if not self or not other:
            return self or other
        modes = sorted(set(self.modes).union(other.modes))
        (at, ac, ae), (bt, bc, be) = (exponent_entries(p, modes)
                                      for p in (self, other))
        t, col, e = np.r_[at, bt + len(self)], np.r_[ac, bc], np.r_[ae, be]
        count = len(self) + len(other)
        first, coef = _merge(_pack(t, col, e, count, 2 * len(modes)),
                             np.concatenate([self.coef, other.coef]),
                             np.arange(count))
        keep = np.zeros(count, dtype=bool)
        keep[first] = True
        return Polynomial.from_entries(modes, *_take(t, col, e, keep), coef)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a) -> "Polynomial":
        if self.coef.dtype == object:
            return self.with_coefficients(a * self.coef)
        return self.with_coefficients(_cmul(complex(a), self.coef))

    def __mul__(self, a):
        """A scalar multiple."""
        return NotImplemented if isinstance(a, Polynomial) else self.scale(a)

    __rmul__ = __mul__

    def with_coefficients(self, coef) -> "Polynomial":
        """The same terms with the coefficients `coef`, pruned."""
        return Polynomial.from_entries(self.modes, self.t, self.col, self.e,
                                       coef)

    # -- structure ----------------------------------------------------

    def reality_defect(self) -> float:
        """max |conj(c_kl) - c_lk|; zero for real-valued Hamiltonians.

        Each term's key meets that of its twin, xi and eta swapped, and
        the two sum as -c_lk + conj(c_kl); a term without a twin meets
        none."""
        if not self:
            return 0.0
        n, count = len(self.modes), len(self)
        twin = np.where(self.col < n, self.col + n, self.col - n)
        keys = _pack(np.r_[self.t, self.t + count], np.r_[self.col, twin],
                     np.r_[self.e, self.e], 2 * count, 2 * n)
        _, sums = _merge(keys, np.concatenate([-self.coef,
                                               np.conj(self.coef)]),
                         np.arange(2 * count))
        return float(np.max(_abs(sums)))

    def homogeneous_part(self, r: int) -> "Polynomial":
        return self.filter(self.deg == r)

    def filter(self, mask) -> "Polynomial":
        """The terms where `mask`, one flag per term in order, is true."""
        keep = np.asarray(mask, dtype=bool)
        return Polynomial.from_entries(
            self.modes, *_take(self.t, self.col, self.e, keep),
            self.coef[keep])

    def truncate_above(self, cap: int) -> "Polynomial":
        """The terms of degree <= cap."""
        return self.filter(self.deg <= cap)

    def tail_degrees(self, cutoff: float) -> np.ndarray:
        """Per term, in order: the exponent mass on modes |j| > cutoff."""
        tail = [not in_ball(m, cutoff) for m in self.modes]
        on = np.array(tail + tail, dtype=bool)[self.col]
        return np.bincount(self.t[on], weights=self.e[on],
                           minlength=len(self))

    def tail_split(self, cutoff_n: float) -> "TailSplit":
        """Split by tail degree at cutoff N: low (<= TAIL_BUDGET) and high."""
        high = self.tail_degrees(cutoff_n) > TAIL_BUDGET
        return TailSplit(self.filter(~high), self.filter(high), cutoff_n)

    def is_zero_momentum(self) -> bool:
        """Whether every term has total momentum sum k_j - sum l_j = 0."""
        n = len(self.modes)
        if not n:  # the empty and the constant polynomial
            return True
        signed = np.where(self.col < n, self.e, -self.e)
        coords = np.array(self.modes, dtype=np.int64).reshape(n, -1)
        return not any(np.bincount(self.t, weights=signed * k,
                                   minlength=len(self)).any()
                       for k in coords[self.col % n].T)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self):
        if not self:
            return "Polynomial(0)"
        bits = ["(%r)*%r" % (c, m) for m, c in sorted(self.terms.items(), key=lambda t: t[0])]
        return "Polynomial[" + " + ".join(bits[:8]) + (" ..." if len(bits) > 8 else "") + "]"


class TailSplit(NamedTuple):
    low: Polynomial
    high: Polynomial
    cutoff_n: float


def _abs(coef: np.ndarray) -> np.ndarray:
    """|c| of each coefficient to the bit of Python's abs, which numpy's
    hypot matches and its complex absolute need not."""
    if coef.dtype == object:
        return np.array([abs(c) for c in coef.tolist()], dtype=float)
    return np.hypot(coef.real, coef.imag)


def _cmul(x, y) -> np.ndarray:
    """x * y elementwise with the float operations, in order, of Python's
    complex product, which numpy's complex multiply need not follow; an
    integer or a float enters as (k, 0.0)."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def first_seen(x: np.ndarray) -> np.ndarray:
    """The distinct values of x in the order they first appear."""
    values, first = np.unique(x, return_index=True)
    return values[np.argsort(first)]


def _prune(coef: np.ndarray) -> np.ndarray:
    """Which coefficients to keep: the non-zero exact ones, and the float
    ones above PRUNE_REL times the largest modulus."""
    if coef.dtype == object:
        return np.array([bool(c) for c in coef.tolist()], dtype=bool)
    mod = _abs(coef)
    return mod > PRUNE_REL * mod.max(initial=0.0)


def term_bounds(p: Polynomial) -> tuple:
    """(lo, mid, hi), lists of ints: term k's entries are lo[k]:hi[k], its
    xi ones lo[k]:mid[k] and its eta ones mid[k]:hi[k]."""
    count = np.bincount(p.t, minlength=len(p))
    ends = np.cumsum(count)
    eta = np.bincount(p.t[p.col >= len(p.modes)], minlength=len(p))
    return (ends - count).tolist(), (ends - eta).tolist(), ends.tolist()


def _state(rows: list, vals: list) -> tuple:
    """(modes, t, col, e, coef) of the terms with coefficients `vals` and
    exponent rows (term, part, mode, exponent), part 0 for xi and 1 for
    eta, given in any order; every exponent must be positive."""
    modes = sorted({m for _, _, m, _ in rows})
    index = {m: k for k, m in enumerate(modes)}
    t, col, e = np.array([(t, part * len(modes) + index[m], e) for t, part,
                          m, e in rows], dtype=int).reshape(-1, 3).T
    if (e <= 0).any():
        raise ValueError("exponents must be positive")
    order = np.lexsort((col, t))
    exact = bool(vals) and isinstance(vals[0], GaussRat)
    return (modes, t[order], col[order], e[order],
            np.array(vals, dtype=object if exact else complex))


def _take(t, col, e, keep: np.ndarray) -> tuple:
    """The entries of the terms where `keep`, renumbered in order."""
    on = keep[t]
    return (np.cumsum(keep) - 1)[t[on]], col[on], e[on]


def _pack(t, col, e, count: int, width: int,
          bits: Optional[int] = None) -> np.ndarray:
    """(count, words) int64 keys of the `width`-column exponent rows whose
    non-zero entries are e at (row t, column col): `bits` bits a column (by
    default enough for the largest e), 62 // bits columns a word.  Keys add
    as the rows do, modulo 2**64, so a sum of keys is the key of the summed
    row when each of that row's exponents fits in `bits`."""
    bits = bits or int(np.max(e, initial=1)).bit_length()
    per = 62 // bits
    words = max(1, -(-width // per))
    keys = np.zeros(count * words, dtype=np.int64)
    np.add.at(keys, t * words + col // per,
              np.left_shift(e.astype(np.int64), bits * (col % per)))
    return keys.reshape(count, words)


def _unpack(keys: np.ndarray, bits: int) -> tuple:
    """The entries (t, col, e), by row and then column, of rows packed
    with `bits` bits a column."""
    per = 62 // bits
    t, w = np.nonzero(keys)
    fields = keys[t, w, None] >> bits * np.arange(per) & (1 << bits) - 1
    at, slot = np.nonzero(fields)
    return t[at], w[at] * per + slot, fields[at, slot]


def _merge(keys: np.ndarray, c: np.ndarray, emit: np.ndarray) -> tuple:
    """(first, sums): c summed over the rows with equal keys, each sum in
    emission order (`emit`, distinct per row) from its first row, and the
    index of that row; both in emission order."""
    order = np.lexsort((emit,) + tuple(keys.T))
    keys, c = keys[order], c[order]
    new = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    sums = c[new]
    np.add.at(sums, np.cumsum(new)[~new] - 1, c[~new])
    rank = np.argsort(emit[order[new]])
    return order[new][rank], sums[rank]


# -- constructors ------------------------------------------------------


def zero() -> Polynomial:
    return Polynomial()


def monomial(coeff, xi=(), eta=()) -> Polynomial:
    """Single-term polynomial.  xi/eta are {mode: exponent} mappings or
    (mode, exponent) pairs; zero exponents are dropped."""
    return Polynomial.from_entries(*_state(
        [(0, part, as_mode(m), e) for part, x in enumerate((xi, eta))
         for m, e in dict(x).items() if e], [coeff]))


def xi(j, coeff=1.0) -> Polynomial:
    return monomial(coeff, xi={as_mode(j): 1})


def eta(j, coeff=1.0) -> Polynomial:
    return monomial(coeff, eta={as_mode(j): 1})


def action(j, coeff=1.0) -> Polynomial:
    """The action monomial I_j = xi_j eta_j."""
    return monomial(coeff, xi={j: 1}, eta={j: 1})


def quadratic_diagonal(freqs: dict) -> Polynomial:
    """H0 = sum_j omega_j xi_j eta_j from a mode -> frequency mapping."""
    norm = {as_mode(k): v for k, v in freqs.items()}
    modes = sorted(norm)
    return Polynomial.from_entries(*_state(
        [(k, part, m, 1) for k, m in enumerate(modes) for part in (0, 1)],
        [norm[m] for m in modes]))


# -- the Poisson bracket on exponent entries -------------------------------


def exponent_entries(p: Polynomial, modes: list) -> tuple:
    """(t, col, e): p's non-zero exponents e of term t at column col, by term
    and then column, over sorted `modes`, which hold every mode of p (xi of
    modes[k] is column k, its eta len(modes) + k); t and e are p's own."""
    index = {m: k for k, m in enumerate(modes)}
    cols = np.array([index[m] for m in p.modes], dtype=int)
    return p.t, np.r_[cols, cols + len(modes)][p.col], p.e


def _times_i_products(f: Polynomial, g: Polynomial, i: np.ndarray,
                      j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """1j * (cf * cg * k) for terms i of f and j of g and integers k, with
    the float operations, in order, of Python's complex arithmetic."""
    if f.coef.dtype == object or g.coef.dtype == object:
        return np.array([(x * y * e).times_i() for x, y, e
                         in zip(f.coef[i], g.coef[j], k.tolist())],
                        dtype=object)
    return _cmul(1j, _cmul(_cmul(f.coef[i], g.coef[j]), k))


def poisson_bracket(f: Polynomial, g: Polynomial,
                    cap: Optional[int] = None) -> Polynomial:
    """{f, g} = i sum_m (df/deta_m dg/dxi_m - df/dxi_m dg/deta_m).

    A term pair brackets to degree deg f + deg g - 2.  With a `cap`, the
    pairs above it are skipped, so the result is the part of the uncapped
    bracket of degree <= cap; `bracket_overflow` gives their mass.

    Every exponent of f meets, as arrays, those of g it contracts with in
    g's terms of degree <= cap + 2 - deg.  Equal output rows merge by one
    sort of packed keys, summed in the term-pair loop's order (f's terms,
    g's terms, eta then xi contractions, by mode): terms, coefficient bits
    and term order equal that loop's.
    """
    if not f or not g:
        return Polynomial()
    modes = sorted(set(f.modes).union(g.modes))
    n, top = len(modes), int(g.deg.max())
    (fi, fv, fe), (gj, gv, ge) = (exponent_entries(p, modes) for p in (f, g))
    # output rows F[i] + G[j] - xi_m - eta_m as packed keys; sums may wrap
    # on the way, the results are exact
    bits = max(1, (top + int(f.deg.max()) - 2 if cap is None
                   else max(cap, 0)).bit_length())
    unit = np.arange(n)
    KF, KG, U = (_pack(*entries, 2 * n, bits) for entries in (
        (fi, fv, fe, len(f)), (gj, gv, ge, len(g)),
        (np.r_[unit, unit], np.r_[unit, unit + n], np.ones(2 * n, int), n)))
    # g's exponents by the column of f they contract with, then degree
    gkey = (gv + n) % (2 * n) * (top + 1) + g.deg[gj]
    order = np.argsort(gkey, kind="stable")
    gkey, gj, ge = gkey[order], gj[order], ge[order]
    room = top if cap is None else np.clip(cap + 2 - f.deg[fi], -1, top)
    lo = np.searchsorted(gkey, fv * (top + 1))
    cnt = np.maximum(
        np.searchsorted(gkey, fv * (top + 1) + room, "right") - lo, 0)
    total = int(cnt.sum())
    if not total:
        return Polynomial()
    f_at = np.repeat(np.arange(len(fi)), cnt)
    g_at = np.arange(total) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    i, v, j = fi[f_at], fv[f_at], gj[g_at]
    m, xi_kind = v % n, v < n
    emit = ((i * len(g) + j) * 2 + xi_kind) * n + m
    keys = KF[i] + KG[j] - U[m]
    k = np.where(xi_kind, -1, 1) * fe[f_at] * ge[g_at]
    first, coef = _merge(keys, _times_i_products(f, g, i, j, k), emit)
    return Polynomial.from_entries(modes, *_unpack(keys[first], bits), coef)


def pair_counts(f: Polynomial, g: Polynomial, cap: int) -> Tuple[int, int]:
    """Term pairs of {f, g} at or below degree `cap`, and above it: sums of
    len(F_d) * len(G_e) over the degree buckets of f and g."""
    pairs = np.outer(np.bincount(f.deg), np.bincount(g.deg))
    over = np.add.outer(np.arange(len(pairs)), np.arange(pairs.shape[1])) \
        - 2 > cap
    return int(pairs[~over].sum()), int(pairs[over].sum())


def bracket_overflow(f: Polynomial, g: Polynomial, cap: int) -> float:
    """Mass of the contributions to {f, g} above degree `cap`.

    The sum of |c_f c_g| e_f e_g over every term pair with
    deg f + deg g - 2 > cap and every mode m it contracts (e_f the eta_m
    exponent of f's term and e_g the xi_m exponent of g's, or the other
    way round).  It separates by mode: per degree pair (d, e) it is
    sum_m (A_eta[m] B_xi[m] + A_xi[m] B_eta[m]), where
    A_eta[m] = sum |c_f| (eta_m exponent) over f's terms of degree d, and
    so on, so the cost is O(terms) instead of O(term pairs).  Every sum
    runs over terms in order, and over modes in the order they first
    appear in those terms.
    """
    modes = sorted(set(f.modes).union(g.modes))
    n, entries = len(modes), [exponent_entries(p, modes) for p in (f, g)]
    # (degree, column) -> sum of |c| e, added in entry order
    fa, gb = (np.zeros((p.max_degree() + 1, 2 * n)) for p in (f, g))
    for out, p, (t, col, e) in zip((fa, gb), (f, g), entries):
        np.add.at(out, (p.deg[t], col), _abs(p.coef)[t] * e)
    fdeg, fcol = f.deg[f.t], entries[0][1]
    tot = 0.0
    for df in first_seen(fdeg).tolist():
        cols = first_seen(fcol[fdeg == df])
        for dg in first_seen(g.deg[g.t]).tolist():
            if df + dg - 2 > cap:
                # eta columns against g's xi ones, then xi against eta
                for c in (cols[cols >= n], cols[cols < n]):
                    if len(c):
                        tot += np.add.accumulate(
                            fa[df, c] * gb[dg, (c + n) % (2 * n)])[-1]
    return float(tot)


# -- serialization -----------------------------------------------------


def term_texts(p: Polynomial, tokens=("%s:%d", "%s:%d")) -> tuple:
    """(xi, eta): per term, in term order, its xi exponents and its eta
    ones as space-joined tokens, each `tokens[0]` (xi) or `tokens[1]` (eta)
    % (mode, exponent), by mode; the default tokens are the text form's."""
    n, labels = len(p.modes), [mode_str(m) for m in p.modes] * 2
    words = [tokens[c >= n] % (labels[c], e)
             for c, e in zip(p.col.tolist(), p.e.tolist())]
    lo, mid, hi = term_bounds(p)
    return ([" ".join(words[a:b]) for a, b in zip(lo, mid)],
            [" ".join(words[a:b]) for a, b in zip(mid, hi)])


def _text_order(p: Polynomial) -> np.ndarray:
    """The terms of p sorted as their Monomials compare: by degree, then
    the (mode, exponent) slots of xi, then those of eta.  A slot is (mode
    rank, exponent); an absent one is (-1, -1), below every real slot, as a
    shorter tuple sorts below a longer one it begins."""
    n, count = len(p.modes), len(p)
    eta = (p.col >= n).astype(int)
    part = 2 * p.t + eta  # entries run by term, xi part before eta part
    slot = np.arange(len(part)) - np.searchsorted(part, part)
    width = slot.max(initial=-1) + 1
    rows = np.full((count, 2, width, 2), -1, dtype=int)
    rows[p.t, eta, slot] = np.c_[p.col - n * eta, p.e]
    return np.lexsort(np.c_[p.deg, rows.reshape(count, 4 * width)].T[::-1])


def to_text(p: Polynomial, hexfloat: bool = False) -> str:
    """Line-oriented text form, one term per line:

        coeff_re coeff_im | j1:k1 j2:k2 | j1:l1

    Modes appear in canonical order; the line order is canonical too, so
    equal polynomials serialize identically.  With hexfloat=True the
    coefficients use float hex notation (bit-exact by construction);
    the default decimal form uses repr, which also round-trips doubles
    exactly.
    """
    def fmt(x: float) -> str:
        return x.hex() if hexfloat else repr(x)

    xi, eta = term_texts(p)
    order = _text_order(p).tolist()
    lines = ["%s %s | %s | %s" % (fmt(c.real), fmt(c.imag), xi[k], eta[k])
             for k, c in zip(order, p.coef[order].tolist())]
    return "\n".join(lines) + ("\n" if lines else "")


def from_text(text: str) -> Polynomial:
    """The polynomial of a text form, a term per line in order, read
    straight into entries; no term may appear twice."""
    rows, vals = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, xi_s, eta_s = (part.strip() for part in line.split("|"))
        re_s, im_s = head.split()
        for part, s in enumerate((xi_s, eta_s)):
            exps = {parse_mode(m): int(e)
                    for m, e in (tok.rsplit(":", 1) for tok in s.split())}
            rows += [(len(vals), part, m, e) for m, e in exps.items()]
        vals.append(complex(_parse_float(re_s), _parse_float(im_s)))
    p = Polynomial.from_entries(*_state(rows, vals))
    if len(set(zip(*term_texts(p)))) < len(p):
        raise ValueError("from_text: a term appears twice")
    return p


def _parse_float(s: str) -> float:
    return float.fromhex(s) if "0x" in s or "0X" in s else float(s)
