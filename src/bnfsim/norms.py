"""Majorant norms and empirical tame-norm estimates for polynomials.

The majorant norm is a cheap coefficientwise upper bound for the tame
operator norm of the modulus vector field of a polynomial: per homogeneous
degree-r part,

    nu_s(f_r) = sum over terms  |c| * max_v  e_v * sqrt(
                    w_s(mode(v)) / (w_s(m) * prod_{j in rest} w_1(j)) )

where v runs over the variable slots of the term (e_v its exponent),
m over the remaining occurrences, and `rest` is the occurrence multiset
with v's output slot and m removed.  The exponent factor e_v accounts for
the derivative multiplicity; on single-mode monomials the bound is exact
(xi_1^r has tame norm r / w_1(1)^((r-2)/2), reproduced by nu_s).

Then  majorant_norm(f, s, R) = sum_r nu_s(f_r) R^(r-1).  It reads the
entries a degree at a time and gives the floats of the per-occurrence loop
it replaced (tests/helpers.py), to the bit: a term's occurrences are its
entries' modes repeated by their exponents, in entry order; slot v drops
the first occurrence of its mode (list.remove: for xi_j eta_j the eta slot
drops the xi one); each denominator is w_s of a remaining occurrence times
w_1 of the others, in order; and |c| nu sums over a degree's terms in order.

`sampled_tame_ratio` estimates the same operator norm from below by Monte
Carlo over positive multivectors; `nu_s >= sampled_tame_ratio` is enforced
by the test corpus before the surrogate is considered calibrated, and the
bracket inequality

    majorant_norm({f,g}, s, R-d) <= (1/d) majorant_norm(f,s,R) majorant_norm(g,s,R)

is checked there as well.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict

import numpy as np

from .modes import weight
from .poly import Polynomial, _abs, term_bounds


def majorant_norm(f: Polynomial, s: float, radius: float) -> float:
    """Coefficientwise majorant of the tame norm at radius R.

    Sums nu_s(f_r) * R^(r-1) over the homogeneous parts f_r.
    """
    ws, w1 = (np.array([weight(m, x) for m in f.modes]) for x in (s, 1.0))
    n, nu, parts = len(f.modes), np.zeros(len(f)), []
    for r in f.degrees():  # fsum is exact, so the order is free
        on = f.deg[f.t] == r
        t, v, e = f.t[on], f.col[on] % n, f.e[on]
        if r == 1:
            nu[t] = np.sqrt(ws[v])
        elif r > 1:
            # each slot's occurrences, less the first one of its mode
            occ = np.repeat(v, e).reshape(-1, r)[
                np.unique(t, return_inverse=True)[1]]
            first = np.argmax(occ == v[:, None], axis=1)
            k = np.arange(r - 1)
            rest = np.take_along_axis(occ, k + (k >= first[:, None]), axis=1)
            for i in k:
                denom = ws[rest[:, i]]
                for j in k[k != i]:
                    denom = denom * w1[rest[:, j]]
                np.maximum.at(nu, t, e * np.sqrt(ws[v] / denom))
        at = f.deg == r
        parts.append(float(np.add.accumulate(_abs(f.coef[at]) * nu[at])[-1])
                     * radius ** (r - 1))
    return math.fsum(parts)


# -- sampled tame ratio ------------------------------------------------


def _field_entries(f: Polynomial):
    """Modulus-field entries: (output_mode, |coeff|*exp, remaining slots),
    per term and exponent entry in order; a slot is ("xi" or "eta", mode)."""
    n, e = len(f.modes), f.e.tolist()
    slots = [("xi" if c < n else "eta", f.modes[c % n])
             for c in f.col.tolist()]
    lo, _, hi = term_bounds(f)
    return [(slots[i][1], a * e[i], tuple(slots[j] for j in range(s, t)
                                          for _ in range(e[j] - (j == i))))
            for s, t, a in zip(lo, hi, _abs(f.coef).tolist())
            for i in range(s, t)]


def _sym_eval(rest, vectors) -> float:
    """Symmetrized multilinear evaluation: permanent average over slots."""
    tot = 0.0  # one empty permutation when rest is empty: 1.0
    for perm in itertools.permutations(range(len(rest))):
        tot += math.prod((vectors[i][rest[t]] for t, i in enumerate(perm)),
                         start=1.0)
    return tot / math.factorial(len(rest))


def _vec_norm(vec: dict, s: float) -> float:
    acc: Dict[tuple, float] = {}
    for (kind, m), v in vec.items():
        acc[m] = acc.get(m, 0.0) + v * v
    return math.sqrt(math.fsum(weight(m, s) * v for m, v in acc.items()))


def sampled_tame_ratio(f: Polynomial, s: float, samples: int = 200, seed: int = 0) -> float:
    """Monte Carlo lower estimate of the tame norm of the modulus field.

    f must be homogeneous of degree >= 2.  Draws positive random
    multivectors supported on the variables of f, evaluates the
    symmetrized modulus vector field on them and returns the running
    maximum of ||X(z^1..z^{r-1})||_s / ||(z^1..z^{r-1})||_{s,1}.
    Deterministic for a fixed seed; more samples can only increase it.
    """
    degs = f.degrees()
    if len(degs) != 1:
        raise ValueError("sampled_tame_ratio needs a homogeneous polynomial")
    nvec = degs[0] - 1
    if nvec < 1:
        raise ValueError("degree must be >= 2")
    entries = _field_entries(f)
    slots = sorted({sl for _, _, rest in entries for sl in rest})
    if not slots:
        return 0.0
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        vectors = [dict(zip(slots, rng.uniform(0.0, 1.0, len(slots)).tolist()))
                   for _ in range(nvec)]
        comp: Dict[tuple, float] = {}
        for m, a, rest in entries:
            comp[m] = comp.get(m, 0.0) + a * _sym_eval(rest, vectors)
        num = math.sqrt(math.fsum(weight(m, s) * v * v for m, v in comp.items()))
        den = 0.0
        norms_1 = [_vec_norm(v, 1.0) for v in vectors]
        norms_s = [_vec_norm(v, s) for v in vectors]
        for l in range(nvec):  # norms_s[l] times the other norms_1, in order
            den += math.prod((norms_1[t] for t in range(nvec) if t != l),
                             start=norms_s[l])
        den /= nvec
        if den > 0:
            best = max(best, num / den)
    return best
