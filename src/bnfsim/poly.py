"""Sparse polynomial algebra in complex oscillator variables.

Polynomials live in variables (xi_j, eta_j) indexed by lattice modes j.
On the real slice eta_j = conj(xi_j), the action of mode j is
I_j = xi_j eta_j, and the quadratic part of a Hamiltonian is
sum_j omega_j xi_j eta_j.

The Poisson bracket convention is fixed once and used everywhere:

    {f, g} = i * sum_m (df/deta_m dg/dxi_m - df/dxi_m dg/deta_m)

so that {H0, xi^k eta^l} = i omega.(k - l) xi^k eta^l for
H0 = sum_m omega_m xi_m eta_m.

Coefficients are complex floats by default; exact Gaussian rationals
(`exact.GaussRat`) can be used instead for identity-grade algebra checks.

A `Polynomial` is a plain sparse map and keeps every degree its operations
produce.  Degree truncation is the Lie series' policy: `poisson_bracket`
takes an optional `cap` and skips the term pairs that land above it, and
`bracket_overflow` meters the l1 mass those pairs carry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from .exact import GaussRat, times_i
from .modes import as_mode, mode_abs2, mode_str, parse_mode

PRUNE_REL = 1e-14


def _sorted_items(d: Dict[tuple, int]) -> tuple:
    return tuple(sorted((m, e) for m, e in d.items() if e != 0))


class Monomial:
    """An exponent pattern xi^k eta^l with cached degree and momentum.

    `xi` and `eta` are sorted tuples of (mode, exponent) pairs with
    positive integer exponents.
    """

    __slots__ = ("xi", "eta", "degree", "momentum", "_hash")

    def __init__(self, xi=(), eta=()):
        if isinstance(xi, dict):
            xi = _sorted_items(xi)
        if isinstance(eta, dict):
            eta = _sorted_items(eta)
        self.xi = tuple((as_mode(m), int(e)) for m, e in xi)
        self.eta = tuple((as_mode(m), int(e)) for m, e in eta)
        for _, e in self.xi + self.eta:
            if e <= 0:
                raise ValueError("exponents must be positive")
        self.degree = sum(e for _, e in self.xi) + sum(e for _, e in self.eta)
        d = 0
        for m, _ in self.xi + self.eta:
            d = max(d, len(m))
        mom = [0] * d
        for m, e in self.xi:
            for i, c in enumerate(m):
                mom[i] += c * e
        for m, e in self.eta:
            for i, c in enumerate(m):
                mom[i] -= c * e
        self.momentum = tuple(mom)
        self._hash = hash((self.xi, self.eta))

    def __eq__(self, other):
        return self.xi == other.xi and self.eta == other.eta

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.degree, self.xi, self.eta) < (other.degree, other.xi, other.eta)

    def tail_degree(self, cutoff: float) -> int:
        """Total exponent mass carried by modes with |j| > cutoff."""
        c2 = cutoff * cutoff
        t = 0
        for m, e in self.xi:
            if mode_abs2(m) > c2:
                t += e
        for m, e in self.eta:
            if mode_abs2(m) > c2:
                t += e
        return t

    def is_action(self) -> bool:
        return self.xi == self.eta

    def flip(self) -> "Monomial":
        """Swap the xi and eta exponent patterns."""
        # built directly: the degree stays, the momentum changes sign
        out = Monomial.__new__(Monomial)
        out.xi, out.eta = self.eta, self.xi
        out.degree = self.degree
        out.momentum = tuple(-c for c in self.momentum)
        out._hash = hash((out.xi, out.eta))
        return out

    def mul(self, other: "Monomial") -> "Monomial":
        xk = dict(self.xi)
        for m, e in other.xi:
            xk[m] = xk.get(m, 0) + e
        ek = dict(self.eta)
        for m, e in other.eta:
            ek[m] = ek.get(m, 0) + e
        return Monomial(xk, ek)

    def modes(self) -> set:
        return {m for m, _ in self.xi} | {m for m, _ in self.eta}

    def __repr__(self):
        parts = ["xi[%s]^%d" % (mode_str(m), e) for m, e in self.xi]
        parts += ["eta[%s]^%d" % (mode_str(m), e) for m, e in self.eta]
        return " ".join(parts) if parts else "1"


def _is_exact(c) -> bool:
    return isinstance(c, GaussRat)


class Polynomial:
    """Sparse polynomial: mapping Monomial -> coefficient.

    Operations keep every degree they produce.  Near-zero float
    coefficients (below 1e-14 of the largest) are pruned silently.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _prune(dict(terms) if terms else {})

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
        return set().union(*(m.modes() for m in self.terms))

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

    def modulus(self) -> "Polynomial":
        """Coefficientwise absolute value (always float coefficients)."""
        return Polynomial({m: abs(c) for m, c in self.terms.items()})

    def reality_defect(self) -> float:
        """max |conj(c_kl) - c_lk|; zero for real-valued Hamiltonians."""
        d = 0.0
        for m, c in self.terms.items():
            d = max(d, abs(_conj(c) - self.terms.get(m.flip(), 0.0)))
        return d

    def homogeneous_part(self, r: int) -> "Polynomial":
        return self.filter(lambda m: m.degree == r)

    def filter(self, pred) -> "Polynomial":
        return Polynomial({m: c for m, c in self.terms.items() if pred(m)})

    def truncate_above(self, cap: int) -> "Polynomial":
        """The terms of degree <= cap."""
        return self.filter(lambda m: m.degree <= cap)

    def tail_split(self, cutoff_n: float) -> "TailSplit":
        """Split by tail degree at cutoff N: low (<= 2) and high (>= 3)."""
        low, high = {}, {}
        for m, c in self.terms.items():
            (low if m.tail_degree(cutoff_n) <= 2 else high)[m] = c
        return TailSplit(Polynomial(low), Polynomial(high), cutoff_n)

    def is_zero_momentum(self) -> bool:
        return all(not any(m.momentum) for m in self.terms)

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


def _conj(c):
    if isinstance(c, GaussRat):
        return c.conjugate()
    return complex(c).conjugate()


def _prune(terms: dict) -> dict:
    if not terms:
        return {}
    exact = _is_exact(next(iter(terms.values())))
    if exact:
        return {m: c for m, c in terms.items() if c}
    top = max(abs(c) for c in terms.values())
    if top == 0.0:
        return {}
    thr = PRUNE_REL * top
    return {m: c for m, c in terms.items() if abs(c) > thr}


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
        acc[Monomial({j: 1}, {j: 1})] = complex(norm[j])
    return Polynomial(acc)


# -- Poisson bracket ---------------------------------------------------


def poisson_bracket(f: Polynomial, g: Polynomial,
                    cap: Optional[int] = None) -> Polynomial:
    """{f, g} = i sum_m (df/deta_m dg/dxi_m - df/dxi_m dg/deta_m).

    A term pair brackets to degree deg f + deg g - 2.  With a `cap`, the
    pairs above it are skipped, so the result is the part of the uncapped
    bracket of degree <= cap; `bracket_overflow` gives their mass.
    """
    acc = {}
    for mf, cf in f.terms.items():
        fxi = dict(mf.xi)
        feta = dict(mf.eta)
        room = None if cap is None else cap + 2 - mf.degree
        for mg, cg in g.terms.items():
            if room is not None and mg.degree > room:
                continue
            gxi = dict(mg.xi)
            geta = dict(mg.eta)
            for m, ef in feta.items():
                eg = gxi.get(m, 0)
                if eg:
                    mono = _bracket_mono(fxi, feta, gxi, geta, m)
                    _accum(acc, mono, times_i(cf * cg * (ef * eg)))
            for m, ef in fxi.items():
                eg = geta.get(m, 0)
                if eg:
                    mono = _bracket_mono(gxi, geta, fxi, feta, m)
                    _accum(acc, mono, times_i(cf * cg * (-ef * eg)))
    return Polynomial(acc)


def bracket_overflow(f: Polynomial, g: Polynomial, cap: int) -> float:
    """Mass of the contributions to {f, g} above degree `cap`.

    The sum of |c_f c_g| e_f e_g over every term pair with
    deg f + deg g - 2 > cap and every mode m it contracts (e_f the eta_m
    exponent of f's term and e_g the xi_m exponent of g's, or the other
    way round).  It separates by mode: per degree pair (d, e) it is
    sum_m (A_eta[m] B_xi[m] + A_xi[m] B_eta[m]), where
    A_eta[m] = sum |c_f| (eta_m exponent) over f's terms of degree d, and
    so on, so the cost is O(terms) instead of O(term pairs).
    """
    fm, gm = _exponent_mass(f), _exponent_mass(g)
    tot = 0.0
    for df, (fxi, feta) in fm.items():
        for dg, (gxi, geta) in gm.items():
            if df + dg - 2 > cap:
                tot += sum(a * gxi.get(m, 0.0) for m, a in feta.items())
                tot += sum(a * geta.get(m, 0.0) for m, a in fxi.items())
    return tot


def _exponent_mass(p: Polynomial) -> dict:
    """degree -> (mode -> sum |c| xi_m exponent, same for eta_m)."""
    out = {}
    for mono, c in p.terms.items():
        a = abs(c)
        xs, es = out.setdefault(mono.degree, ({}, {}))
        for m, e in mono.xi:
            xs[m] = xs.get(m, 0.0) + a * e
        for m, e in mono.eta:
            es[m] = es.get(m, 0.0) + a * e
    return out


def _bracket_mono(axi, aeta, bxi, beta, m) -> Monomial:
    """Product monomial with one eta_m removed from a and one xi_m from b."""
    xk = dict(axi)
    for mm, e in bxi.items():
        xk[mm] = xk.get(mm, 0) + e
    xk[m] -= 1
    if xk[m] == 0:
        del xk[m]
    ek = dict(aeta)
    for mm, e in beta.items():
        ek[mm] = ek.get(mm, 0) + e
    ek[m] -= 1
    if ek[m] == 0:
        del ek[m]
    return Monomial(xk, ek)


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
        c = complex(p.terms[mono])
        xi_s = " ".join("%s:%d" % (mode_str(m), e) for m, e in mono.xi)
        eta_s = " ".join("%s:%d" % (mode_str(m), e) for m, e in mono.eta)
        lines.append("%s %s | %s | %s" % (fmt(c.real), fmt(c.imag), xi_s, eta_s))
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


def _parse_exps(s: str) -> dict:
    out = {}
    for tok in s.split():
        mode_part, exp_part = tok.rsplit(":", 1)
        out[parse_mode(mode_part)] = int(exp_part)
    return out
