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
theirs to the bit.  A `Monomial`, the tuple (degree, xi, eta), exists only
at the edges: a {Monomial: coefficient} mapping is converted once, at
construction, and `terms` builds one back on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Optional, Tuple

import numpy as np

from .exact import GaussRat
from .modes import as_mode, mode_abs2, mode_str, parse_mode

PRUNE_REL = 1e-14
TAIL_BUDGET = 2  # the exponent mass a normalizable term may carry beyond N


def _sorted_items(d: Dict[tuple, int]) -> tuple:
    return tuple(sorted((m, e) for m, e in d.items() if e != 0))


class Monomial(tuple):
    """An exponent pattern xi^k eta^l, the key of a polynomial's terms: the
    tuple (degree, xi, eta), whose order is by degree, then xi, then eta.

    `xi` and `eta` are sorted tuples of (mode, exponent) pairs with
    positive integer exponents.
    """

    __slots__ = ()

    def __new__(cls, xi=(), eta=()):
        if isinstance(xi, dict):
            xi = _sorted_items(xi)
        if isinstance(eta, dict):
            eta = _sorted_items(eta)
        xi = tuple((as_mode(m), int(e)) for m, e in xi)
        eta = tuple((as_mode(m), int(e)) for m, e in eta)
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


def _is_exact(c) -> bool:
    return isinstance(c, GaussRat)


class Polynomial:
    """Sparse polynomial: sorted `modes`, exponent entries `t`, `col`, `e`
    and coefficients `coef` (see the module docstring); `deg` is each
    term's degree.  Built from a {Monomial: coefficient} mapping, or by the
    operations straight from arrays; either way exact zeros and float
    coefficients at most 1e-14 of the largest modulus are pruned.  A
    polynomial is not changed once built.
    """

    __slots__ = ("modes", "t", "col", "e", "coef", "deg", "_terms")

    def __init__(self, terms=None):
        terms = dict(terms) if terms else {}
        modes = sorted({m for k in terms for m, _ in k[1] + k[2]})
        index, n = {m: k for k, m in enumerate(modes)}, len(modes)
        # each term's xi entries, then its eta ones: ascending columns
        entries = np.array([(t, index[m] + off, e)
                            for t, k in enumerate(terms)
                            for off, part in ((0, k[1]), (n, k[2]))
                            for m, e in part], dtype=int).reshape(-1, 3)
        vals = list(terms.values())
        exact = bool(vals) and _is_exact(vals[0])
        self.__setstate__((modes, *entries.T, np.array(
            vals, dtype=object if exact else complex)))

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
            ends = np.cumsum(np.bincount(self.t, minlength=len(self)))
            mids = ends - np.bincount(self.t[self.col >= len(self.modes)],
                                      minlength=len(self))
            keys = [_key(slots[lo:mid], slots[mid:hi], d) for lo, mid, hi, d
                    in zip([0] + ends.tolist(), mids.tolist(), ends.tolist(),
                           self.deg.tolist())]
            self._terms = MappingProxyType(dict(zip(keys,
                                                    self.coef.tolist())))
        return self._terms

    def __len__(self):
        return len(self.coef)

    def __bool__(self):
        return len(self.coef) > 0

    def items(self):
        return self.terms.items()

    def coeff(self, mono: Monomial):
        return self.terms.get(mono, 0.0)

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
        tail = [mode_abs2(m) > cutoff * cutoff for m in self.modes]
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


@dataclass
class TailSplit:
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
    """Single-term polynomial.  xi/eta are {mode: exponent} mappings."""
    xd = {as_mode(m): e for m, e in (xi.items() if isinstance(xi, dict) else xi)}
    ed = {as_mode(m): e for m, e in (eta.items() if isinstance(eta, dict) else eta)}
    return Polynomial({Monomial(xd, ed): coeff})


def xi(j, coeff=1.0) -> Polynomial:
    return monomial(coeff, xi={as_mode(j): 1})


def eta(j, coeff=1.0) -> Polynomial:
    return monomial(coeff, eta={as_mode(j): 1})


def action(j, coeff=1.0) -> Polynomial:
    """The action monomial I_j = xi_j eta_j."""
    m = as_mode(j)
    return monomial(coeff, xi={m: 1}, eta={m: 1})


def quadratic_diagonal(freqs: dict) -> Polynomial:
    """H0 = sum_j omega_j xi_j eta_j from a mode -> frequency mapping."""
    norm = {as_mode(k): v for k, v in freqs.items()}
    acc = {}
    for j in sorted(norm):
        acc[Monomial({j: 1}, {j: 1})] = norm[j]
    return Polynomial(acc)


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

    lines = []
    for mono in sorted(p.terms):
        c = p.terms[mono]
        lines.append("%s %s | %s | %s" % (fmt(c.real), fmt(c.imag),
                                          exps_text(mono.xi),
                                          exps_text(mono.eta)))
    return "\n".join(lines) + ("\n" if lines else "")


def from_text(text: str) -> Polynomial:
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, xi_s, eta_s = (part.strip() for part in line.split("|"))
        re_s, im_s = head.split()
        c = complex(_parse_float(re_s), _parse_float(im_s))
        terms[Monomial(_parse_exps(xi_s), _parse_exps(eta_s))] = c
    return Polynomial(terms)


def _parse_float(s: str) -> float:
    return float.fromhex(s) if "0x" in s or "0X" in s else float(s)


def exps_text(pairs) -> str:
    """(mode, exponent) pairs as `mode:exponent` tokens, the form
    `_parse_exps` reads."""
    return " ".join("%s:%d" % (mode_str(m), e) for m, e in pairs)


def _parse_exps(s: str) -> dict:
    out = {}
    for tok in s.split():
        mode_part, exp_part = tok.rsplit(":", 1)
        out[parse_mode(mode_part)] = int(exp_part)
    return out
