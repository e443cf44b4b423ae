"""Sparse polynomial algebra in complex oscillator variables.

Polynomials live in variables (xi_j, eta_j) indexed by lattice modes j.
On the real slice eta_j = conj(xi_j), the action of mode j is
I_j = xi_j eta_j, and the quadratic part of a Hamiltonian is
sum_j omega_j xi_j eta_j.

The Poisson bracket convention is fixed once and used everywhere:

    {f, g} = i * sum_m (df/deta_m dg/dxi_m - df/dxi_m dg/deta_m)

so that {H0, xi^k eta^l} = i omega.(k - l) xi^k eta^l for
H0 = sum_m omega_m xi_m eta_m.

A `Polynomial` is a plain sparse map and keeps every degree its operations
produce.  Degree truncation is the Lie series' policy: `poisson_bracket`
takes an optional `cap` and skips the term pairs that land above it, and
`bracket_overflow` meters the l1 mass those pairs carry.

The bracket runs on arrays: a polynomial keeps, once built, the non-zero
exponent entries of its terms (xi columns, then eta, over its sorted modes)
and its coefficient vector; a `Monomial` is only the key of a term, the
tuple (degree, xi, eta).  Contractions are array joins over degree buckets
and merge by one sort of packed row keys.  They are emitted and summed in
the order of the term-pair loop the bracket replaced (kept in
tests/helpers.py), each with Python's complex operations in order, so the
result equals that loop's to the bit, dict order included, which later sums
depend on.  Every coefficient that is not exact is stored as a Python
complex; exact Gaussian rationals (`exact.GaussRat`) take the same path as
an object vector, one Python product per contribution, for identity-grade
algebra checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .exact import GaussRat
from .modes import as_mode, mode_abs2, mode_str, parse_mode

PRUNE_REL = 1e-14


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

    def mul(self, other: "Monomial") -> "Monomial":
        xk = dict(self.xi)
        for m, e in other.xi:
            xk[m] = xk.get(m, 0) + e
        ek = dict(self.eta)
        for m, e in other.eta:
            ek[m] = ek.get(m, 0) + e
        return Monomial(xk, ek)

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
    """Sparse polynomial: mapping Monomial -> coefficient.

    Operations keep every degree they produce.  Near-zero float
    coefficients (below 1e-14 of the largest) are pruned silently.
    """

    __slots__ = ("terms", "_arrays")

    def __init__(self, terms=None):
        self.terms = _prune(dict(terms) if terms else {})
        self._arrays = None

    # -- basic queries ------------------------------------------------

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def coeff(self, mono: Monomial):
        return self.terms.get(mono, 0.0)

    def l1(self) -> float:
        return math.fsum(abs(c) for c in self.terms.values())

    def min_degree(self) -> int:
        return min((m.degree for m in self.terms), default=0)

    def max_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def degrees(self) -> list:
        return sorted({m.degree for m in self.terms})

    def modes(self) -> set:
        """Every mode that some term carries in xi or eta."""
        return set(_arrays(self).modes)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            _accum(acc, mono, c)
        return Polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a) -> "Polynomial":
        return Polynomial({m: a * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accum(acc, m1.mul(m2), c1 * c2)
        return Polynomial(acc)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------

    def reality_defect(self) -> float:
        """max |conj(c_kl) - c_lk|; zero for real-valued Hamiltonians."""
        d = 0.0
        for m, c in self.terms.items():
            d = max(d, abs(c.conjugate() - self.terms.get(m.flip(), 0.0)))
        return d

    def homogeneous_part(self, r: int) -> "Polynomial":
        return self.filter(lambda m: m.degree == r)

    def filter(self, pred) -> "Polynomial":
        return Polynomial({m: c for m, c in self.terms.items() if pred(m)})

    def truncate_above(self, cap: int) -> "Polynomial":
        """The terms of degree <= cap."""
        return self.filter(lambda m: m.degree <= cap)

    def tail_degrees(self, cutoff: float) -> np.ndarray:
        """Per term, in dict order: the exponent mass on modes |j| > cutoff."""
        a = _arrays(self)
        tail = [mode_abs2(m) > cutoff * cutoff for m in a.modes]
        on = np.array(tail + tail, dtype=bool)[a.col]
        return np.bincount(a.t[on], weights=a.e[on], minlength=len(self))

    def tail_split(self, cutoff_n: float) -> "TailSplit":
        """Split by tail degree at cutoff N: low (<= 2) and high (>= 3)."""
        parts: tuple = ({}, {})
        high = (self.tail_degrees(cutoff_n) > 2).tolist()
        for (m, c), h in zip(self.terms.items(), high):
            parts[h][m] = c
        return TailSplit(Polynomial(parts[0]), Polynomial(parts[1]), cutoff_n)

    def is_zero_momentum(self) -> bool:
        """Whether every term has total momentum sum k_j - sum l_j = 0."""
        a = _arrays(self)
        n = len(a.modes)
        if not n:  # the empty and the constant polynomial
            return True
        signed = np.where(a.col < n, a.e, -a.e)
        coords = np.array(a.modes, dtype=np.int64).reshape(n, -1)[a.col % n]
        return not any(np.bincount(a.t, weights=signed * k,
                                   minlength=len(self)).any()
                       for k in coords.T)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = ["(%r)*%r" % (c, m) for m, c in sorted(self.terms.items(), key=lambda t: t[0])]
        return "Polynomial[" + " + ".join(bits[:8]) + (" ..." if len(bits) > 8 else "") + "]"


@dataclass
class TailSplit:
    low: Polynomial
    high: Polynomial
    cutoff_n: float


def _accum(acc: dict, mono: Monomial, c):
    cur = acc.get(mono)
    acc[mono] = c if cur is None else cur + c


def _prune(terms: dict) -> dict:
    if not terms:
        return {}
    if _is_exact(next(iter(terms.values()))):
        return {m: c for m, c in terms.items() if c}
    top = max(abs(c) for c in terms.values())
    if top == 0.0:
        return {}
    thr = PRUNE_REL * top
    return {m: complex(c) for m, c in terms.items() if abs(c) > thr}


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


# -- the Poisson bracket on exponent matrices -----------------------------


class _Arrays(NamedTuple):
    """A polynomial's terms in dict order over its sorted `modes`, as the
    non-zero exponents e of term t at column col (xi of modes[k] is column
    k, its eta column len(modes) + k), sorted by term and then column.
    `coef` is complex (object when exact).
    """
    modes: list
    t: np.ndarray
    col: np.ndarray
    e: np.ndarray
    coef: np.ndarray
    deg: np.ndarray


def _arrays(p: Polynomial) -> _Arrays:
    """The arrays of p, built on first use and kept with it."""
    if p._arrays is None:
        parts = ([mono[1] for mono in p.terms], [mono[2] for mono in p.terms])
        modes = sorted({m for part in parts for sl in part for m, _ in sl})
        index = {m: k for k, m in enumerate(modes)}
        t, col, e = [], [], []
        for off, part in zip((0, len(modes)), parts):
            slots = list(chain.from_iterable(part))
            t.append(np.repeat(np.arange(len(part)), [len(s) for s in part]))
            col.append(np.array([index[m] + off for m, _ in slots], dtype=int))
            e.append(np.array([x for _, x in slots], dtype=np.int16))
        # each term's xi entries, then its eta ones: ascending columns
        order = np.argsort(np.concatenate(t), kind="stable")
        t, col, e = (np.concatenate(v)[order] for v in (t, col, e))
        vals = list(p.terms.values())
        exact = bool(vals) and _is_exact(vals[0])
        p._arrays = _Arrays(
            modes, t, col, e,
            np.array(vals, dtype=object if exact else complex),
            np.bincount(t, weights=e, minlength=len(p)).astype(int))
    return p._arrays


def exponent_entries(p: Polynomial, modes: list) -> tuple:
    """(t, col, e): p's non-zero exponents e of term t at column col, by term
    and then column, over sorted `modes`, which hold every mode of p (xi of
    modes[k] is column k, its eta len(modes) + k); t and e are p's own."""
    index = {m: k for k, m in enumerate(modes)}
    a = _arrays(p)
    cols = np.array([index[m] for m in a.modes], dtype=int)
    return a.t, np.r_[cols, cols + len(modes)][a.col], a.e


def monomials(t: np.ndarray, col: np.ndarray, e: np.ndarray, count: int,
              modes: list) -> list:
    """The Monomials of `count` exponent rows over sorted modes, given as
    their non-zero entries e at (row t, column col), sorted by row and then
    column: xi of modes[k] is column k, its eta column len(modes) + k."""
    n = len(modes)
    deg = np.bincount(t, weights=e, minlength=count).astype(int).tolist()
    ends = np.cumsum(np.bincount(t, minlength=count)).tolist()
    nxi = np.bincount(t[col < n], minlength=count).tolist()
    labels = modes + modes
    slots = tuple(zip([labels[c] for c in col.tolist()], e.tolist()))
    out, lo = [], 0
    for hi, k, d in zip(ends, nxi, deg):
        out.append(_key(slots[lo:lo + k], slots[lo + k:hi], d))
        lo = hi
    return out


def _times_i_products(a: _Arrays, b: _Arrays, i: np.ndarray, j: np.ndarray,
                      k: np.ndarray) -> np.ndarray:
    """1j * (cf * cg * k) for terms i of f and j of g and integers k, with
    the float operations, in order, of Python's complex arithmetic: an
    integer enters a product as (k, 0.0)."""
    if a.coef.dtype == object or b.coef.dtype == object:
        return np.array([(x * y * e).times_i() for x, y, e
                         in zip(a.coef[i], b.coef[j], k.tolist())],
                        dtype=object)
    x, y = a.coef[i], b.coef[j]
    pr = x.real * y.real - x.imag * y.imag
    pi = x.real * y.imag + x.imag * y.real
    qr = pr * k - pi * 0.0
    qi = pr * 0.0 + pi * k
    out = np.empty(len(k), dtype=complex)
    out.real, out.imag = 0.0 * qr - qi, 0.0 * qi + qr
    return out


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
    and dict order equal that loop's.
    """
    if not f or not g:
        return Polynomial()
    a, b = _arrays(f), _arrays(g)
    modes = sorted(set(a.modes).union(b.modes))
    n, top = len(modes), int(b.deg.max())
    (fi, fv, fe), (gj, gv, ge) = (exponent_entries(p, modes) for p in (f, g))
    # whole rows, as the packed output keys are sums of them
    F, G = (np.zeros((len(p), 2 * n), dtype=np.int16) for p in (f, g))
    F[fi, fv], G[gj, gv] = fe, ge
    # g's exponents by the column of f they contract with, then degree
    gkey = (gv + n) % (2 * n) * (top + 1) + b.deg[gj]
    order = np.argsort(gkey, kind="stable")
    gkey, gj, gv = gkey[order], gj[order], gv[order]
    room = top if cap is None else np.clip(cap + 2 - a.deg[fi], -1, top)
    lo = np.searchsorted(gkey, fv * (top + 1))
    cnt = np.maximum(
        np.searchsorted(gkey, fv * (top + 1) + room, "right") - lo, 0)
    total = int(cnt.sum())
    if not total:
        return Polynomial()
    f_at = np.repeat(np.arange(len(fi)), cnt)
    g_at = np.arange(total) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    i, v, j, w = fi[f_at], fv[f_at], gj[g_at], gv[g_at]
    m, xi_kind = v % n, v < n
    emit = ((i * len(G) + j) * 2 + xi_kind) * n + m
    # output rows F[i] + G[j] - xi_m - eta_m, as int64 words of `bits`-bit
    # columns (sums may wrap on the way; the results are exact), grouped
    # with emission order kept inside each group
    bits = max(1, (top + int(a.deg.max()) - 2 if cap is None
                   else max(cap, 0)).bit_length())
    cols = np.arange(2 * n)
    weight = np.left_shift(1, bits * (cols % (62 // bits)))
    unit = np.eye(n, dtype=np.int64)
    KF, KG, U = (np.add.reduceat(M * weight, cols[::62 // bits], axis=1)
                 for M in (F, G, np.hstack([unit, unit])))
    keys = KF[i] + KG[j] - U[m]
    order = np.lexsort((emit,) + tuple(keys.T))
    keys = keys[order]
    new = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    # each sum starts at its group's first contribution, as the dict's did
    k = np.where(xi_kind, -1, 1) * F[i, v] * G[j, w]
    c = _times_i_products(a, b, i, j, k)[order]
    acc = c[new]
    np.add.at(acc, np.cumsum(new)[~new] - 1, c[~new])
    rank = np.argsort(emit[order[new]])
    rep = order[new][rank]
    rows = F[i[rep]] + G[j[rep]]
    rows[np.arange(len(rep))[:, None], np.c_[m[rep], m[rep] + n]] -= 1
    t, col = np.nonzero(rows)
    return Polynomial(dict(zip(monomials(t, col, rows[t, col], len(rows),
                                         modes), acc[rank].tolist())))


def pair_counts(f: Polynomial, g: Polynomial, cap: int) -> Tuple[int, int]:
    """Term pairs of {f, g} at or below degree `cap`, and above it: sums of
    len(F_d) * len(G_e) over the degree buckets of f and g."""
    pairs = np.outer(np.bincount(_arrays(f).deg), np.bincount(_arrays(g).deg))
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
    runs over terms in dict order, and over modes in the order they first
    appear in those terms.
    """
    modes = sorted(f.modes() | g.modes())
    n, mass = len(modes), []
    for p in (f, g):
        # degree -> column -> sum of |c| e, filled in entry order
        absc = [abs(c) for c in p.terms.values()]
        deg, out = _arrays(p).deg.tolist(), {}
        entries = (v.tolist() for v in exponent_entries(p, modes))
        for t, col, e in zip(*entries):
            cols = out.setdefault(deg[t], {})
            cols[col] = cols.get(col, 0.0) + absc[t] * e
        mass.append(out)
    tot = 0.0
    for df, fcols in mass[0].items():
        for dg, gcols in mass[1].items():
            if df + dg - 2 > cap:
                tot += sum(x * gcols.get(c - n, 0.0)
                           for c, x in fcols.items() if c >= n)
                tot += sum(x * gcols.get(c + n, 0.0)
                           for c, x in fcols.items() if c < n)
    return tot


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
