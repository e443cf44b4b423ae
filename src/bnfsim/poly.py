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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

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

    Carries an optional degree cap; any operation result above the cap is
    dropped and its l1 mass accumulated in `dropped`.  Near-zero float
    coefficients (below 1e-14 of the largest) are pruned silently.
    """

    __slots__ = ("terms", "degree_cap", "dropped")

    def __init__(self, terms=None, degree_cap: Optional[int] = None, dropped: float = 0.0):
        self.degree_cap = degree_cap
        self.dropped = float(dropped)
        raw = dict(terms) if terms else {}
        if degree_cap is not None:
            kept = {}
            for mono, c in raw.items():
                if mono.degree > degree_cap:
                    self.dropped += abs(c)
                else:
                    kept[mono] = c
            raw = kept
        self.terms = _prune(raw)

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

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        cap = _merge_caps(self.degree_cap, other.degree_cap)
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            _accum(acc, mono, c)
        return Polynomial(acc, cap, self.dropped + other.dropped)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a) -> "Polynomial":
        return Polynomial({m: a * c for m, c in self.terms.items()},
                          self.degree_cap, self.dropped)

    def times_i(self) -> "Polynomial":
        return Polynomial({m: times_i(c) for m, c in self.terms.items()},
                          self.degree_cap, self.dropped)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        cap = _merge_caps(self.degree_cap, other.degree_cap)
        acc = {}
        drop = 0.0
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if cap is not None and m1.degree + m2.degree > cap:
                    drop += abs(c1 * c2)
                    continue
                _accum(acc, m1.mul(m2), c1 * c2)
        return Polynomial(acc, cap, self.dropped + other.dropped + drop)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------

    def modulus(self) -> "Polynomial":
        """Coefficientwise absolute value (always float coefficients)."""
        return Polynomial({m: abs(c) for m, c in self.terms.items()},
                          self.degree_cap, self.dropped)

    def conj_flip(self) -> "Polynomial":
        """conj(c_{kl}) attached to xi^l eta^k; equals self iff real-flagged."""
        return Polynomial({m.flip(): _conj(c) for m, c in self.terms.items()},
                          self.degree_cap, self.dropped)

    def reality_defect(self) -> float:
        """max |conj(c_kl) - c_lk|; zero for real-valued Hamiltonians."""
        d = 0.0
        for m, c in self.terms.items():
            d = max(d, abs(_conj(c) - self.terms.get(m.flip(), 0.0)))
        return d

    def homogeneous_part(self, r: int) -> "Polynomial":
        return Polynomial({m: c for m, c in self.terms.items() if m.degree == r},
                          self.degree_cap)

    def filter(self, pred) -> "Polynomial":
        return Polynomial({m: c for m, c in self.terms.items() if pred(m)},
                          self.degree_cap)

    def truncate_above(self, cap: int) -> "Polynomial":
        """New polynomial with degree cap `cap`; overflow mass is logged."""
        return Polynomial(self.terms, cap, self.dropped)

    def tail_split(self, cutoff_n: float) -> "TailSplit":
        """Split by tail degree at cutoff N: low (<= 2) and high (>= 3)."""
        low, high = {}, {}
        for m, c in self.terms.items():
            (low if m.tail_degree(cutoff_n) <= 2 else high)[m] = c
        return TailSplit(Polynomial(low, self.degree_cap),
                         Polynomial(high, self.degree_cap),
                         cutoff_n)

    def momentum_filter(self) -> "Polynomial":
        """Zero-total-momentum part of the polynomial."""
        return self.filter(lambda m: not any(m.momentum))

    def is_zero_momentum(self) -> bool:
        return all(not any(m.momentum) for m in self.terms)

    # -- calculus -----------------------------------------------------

    def d_xi(self, mode) -> "Polynomial":
        return self._deriv(as_mode(mode), True)

    def d_eta(self, mode) -> "Polynomial":
        return self._deriv(as_mode(mode), False)

    def _deriv(self, mode, wrt_xi: bool) -> "Polynomial":
        acc = {}
        for mono, c in self.terms.items():
            side = mono.xi if wrt_xi else mono.eta
            d = dict(side)
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

    def evaluate(self, xi_map: dict, eta_map: dict):
        """Evaluate at a point; missing modes count as zero."""
        xm = {as_mode(k): v for k, v in xi_map.items()}
        em = {as_mode(k): v for k, v in eta_map.items()}
        tot = 0.0
        for mono, c in self.terms.items():
            v = c
            ok = True
            for m, e in mono.xi:
                z = xm.get(m, 0.0)
                if z == 0.0:
                    ok = False
                    break
                v = v * z ** e
            if not ok:
                continue
            for m, e in mono.eta:
                z = em.get(m, 0.0)
                if z == 0.0:
                    ok = False
                    break
                v = v * z ** e
            if ok:
                tot = tot + v
        return tot

    def evaluate_real_slice(self, xi_map: dict):
        return self.evaluate(xi_map, {k: _conj(v) for k, v in xi_map.items()})

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def allclose(self, other: "Polynomial", tol: float = 1e-12) -> bool:
        return (self - other).l1() <= tol

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


def _merge_caps(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


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


def zero(degree_cap: Optional[int] = None) -> Polynomial:
    return Polynomial({}, degree_cap)


def monomial(coeff, xi=(), eta=(), degree_cap=None) -> Polynomial:
    """Single-term polynomial.  xi/eta are {mode: exponent} mappings."""
    xd = {as_mode(m): e for m, e in (xi.items() if isinstance(xi, dict) else xi)}
    ed = {as_mode(m): e for m, e in (eta.items() if isinstance(eta, dict) else eta)}
    return Polynomial({Monomial(xd, ed): coeff}, degree_cap)


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


def poisson_bracket(f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = i sum_m (df/deta_m dg/dxi_m - df/dxi_m dg/deta_m).

    Degree caps are inherited (minimum of the operands' caps); overflow
    mass is logged on the result.
    """
    cap = _merge_caps(f.degree_cap, g.degree_cap)
    acc = {}
    drop = 0.0
    for mf, cf in f.terms.items():
        fxi = dict(mf.xi)
        feta = dict(mf.eta)
        for mg, cg in g.terms.items():
            deg = mf.degree + mg.degree - 2
            if cap is not None and deg > cap:
                # every contribution of this pair lands above the cap
                gxi = dict(mg.xi)
                geta = dict(mg.eta)
                mass = 0.0
                for m, ef in feta.items():
                    eg = gxi.get(m, 0)
                    if eg:
                        mass += abs(cf * cg) * ef * eg
                for m, ef in fxi.items():
                    eg = geta.get(m, 0)
                    if eg:
                        mass += abs(cf * cg) * ef * eg
                drop += mass
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
    return Polynomial(acc, cap, f.dropped + g.dropped + drop)


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
