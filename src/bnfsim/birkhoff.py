"""Normal form engine: homological solves, Lie transforms, iteration.

A step eliminates the working part of the perturbation through the time-1
flow of a polynomial generator chi.  Divisors under gamma/N^alpha are kept
(resonant), the rest is divided out; tail-cubic terms are never normalized,
only transported, and every majorant pushed aside on the way is ledgered.

The flows are Lie series truncated at degree r_star + 2.  `lie_transform`
is the one place that applies this cap: it returns the truncated series
together with the l1 mass the truncation dropped (its overflow).

Degree indexing is 1-based on the generator list: chi_r is homogeneous of
degree r+2 for r = 1..r_star, so the first generator removes cubics.

States travel through the generator flows on compiled field tables
(`transport_plan`).  A state is an (n,) complex array over the plan's
mode layout, the system's sorted modes (`ModelSystem.modes()`);
`apply_transport` carries one state or a whole (B, n) batch, e.g. every
frame of a trajectory, through each flow at once: classical RK4 from 4
steps, doubling per row until the row's result settles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import eta_gradient_table
from .norms import majorant_norm
from .poly import (Polynomial, bracket_overflow, pair_counts, poisson_bracket,
                   quadratic_diagonal, term_texts, zero)
from .resonance import normal_form_membership, term_divisors
from .spectra import FrequencyTable

DEGREE_BY_DEGREE = "degree_by_degree"
BLOCK = "block"
# RK4 step counts tried in turn on a time-1 generator flow, doubling
RK4_STEPS = tuple(4 << k for k in range(12))  # 4, 8, ..., 8192


# -- parameter formulas --------------------------------------------------


def nstar(r: int, alpha: float, R: float) -> int:
    """Tail cutoff N_* = floor(R^(-1/(2 r alpha)))."""
    if r < 1 or alpha <= 0 or R <= 0:
        raise ValueError("nstar: positive arguments required")
    return math.floor(R ** (-1.0 / (2.0 * r * alpha)))


def sstar(r: int, alpha: float) -> float:
    """Smallest admissible Sobolev weight s_* = 2 alpha r^2 + 2."""
    if r < 1 or alpha <= 0:
        raise ValueError("sstar: positive arguments required")
    return 2.0 * alpha * r * r + 2.0


def rstar_radius(gamma: float, r_star: int, N: int, alpha: float,
                 A: float) -> float:
    """Trust radius R_* = gamma / (24 e r_star N^alpha A)."""
    if gamma <= 0 or r_star < 1 or N < 1 or alpha <= 0 or A <= 0:
        raise ValueError("rstar_radius: positive arguments required")
    return gamma / (24.0 * math.e * r_star * N ** alpha * A)


# -- parameters and result records ---------------------------------------


AUTO = "auto"


@dataclass
class NormalFormParams:
    r_star: int
    gamma: float
    alpha: float
    N: object = AUTO
    s: float = 2.0
    mode: str = DEGREE_BY_DEGREE

    def __post_init__(self):
        if self.r_star < 1:
            raise ValueError("r_star: must be >= 1")
        if not self.gamma > 0:
            raise ValueError("gamma: must be > 0")
        if not self.alpha > 0:
            raise ValueError("alpha: must be > 0")
        if self.mode not in (DEGREE_BY_DEGREE, BLOCK):
            raise ValueError("mode: must be degree_by_degree or block")
        if self.N != AUTO and (not isinstance(self.N, int) or self.N < 1):
            raise ValueError("N: must be a positive integer or 'auto'")

    @property
    def degree_cap(self) -> int:
        return self.r_star + 2

    @property
    def threshold(self) -> float:
        if self.N == AUTO:
            raise ValueError("N: unresolved")
        return self.gamma / self.N ** self.alpha

    def resolved(self, amplitude: Optional[float] = None
                 ) -> "NormalFormParams":
        """Concrete N; AUTO uses N_* at R = 8 * amplitude and checks s."""
        if self.N != AUTO:
            return self
        if amplitude is None or amplitude <= 0:
            raise ValueError("N: auto resolution needs a positive amplitude")
        smin = sstar(self.r_star, self.alpha)
        if self.s < smin:
            raise ValueError("s: %g below s_* = %g" % (self.s, smin))
        n = max(1, nstar(self.r_star, self.alpha, 8.0 * amplitude))
        return replace(self, N=n)


@dataclass
class RemainderLedger:
    """One entry per round: the cumulative, nondecreasing masses; chi's
    majorant; the term pairs the round's Lie series bracketed and those
    over the cap; the terms of chi and of Z after the round."""
    tail_cubic_mass: List[float] = field(default_factory=list)
    overflow_mass: List[float] = field(default_factory=list)
    chi_majorants: List[float] = field(default_factory=list)
    pairs: List[int] = field(default_factory=list)
    pairs_over_cap: List[int] = field(default_factory=list)
    chi_terms: List[int] = field(default_factory=list)
    Z_terms: List[int] = field(default_factory=list)

    def check(self) -> bool:
        for seq in (self.tail_cubic_mass, self.overflow_mass):
            if any(x < 0 for x in seq):
                return False
            if any(b < a for a, b in zip(seq, seq[1:])):
                return False
        return all(x >= 0 for x in self.chi_majorants)


@dataclass
class NormalFormResult:
    """`membership` flags each term of Z, in term order; only nf.json keys
    the flags by the terms' texts."""
    Z: Polynomial
    generators: List[Polynomial]
    f_final: Polynomial
    remainder_tail: Polynomial
    ledger: RemainderLedger
    params: NormalFormParams
    membership: List[bool]

    def membership_ok(self) -> bool:
        return all(self.membership)


# -- the homological step ------------------------------------------------


def solve_homological(f: Polynomial, omega: FrequencyTable, gamma: float,
                      alpha: float, N: int) -> Tuple[Polynomial, Polynomial]:
    """Split f into {H0, chi} + Z coefficientwise.

    Terms with |omega.(k-l)| <= gamma/N^alpha go to Z untouched (the
    boundary counts as resonant: never divide by the minimal divisor);
    the rest are divided by i omega.(k-l).  Every input term must carry
    tail degree <= 2, and the identity {H0, chi} + Z = f is rechecked by
    an actual bracket to 1e-12 relative.
    """
    thr = gamma / N ** alpha
    high = f.tail_split(N).high
    if high:
        xi, eta = term_texts(high, ("xi[%s]^%d", "eta[%s]^%d"))
        raise ValueError("tail degree > 2 in homological input: %s"
                         % (xi[0] + " " + eta[0]).strip())
    div = np.array(term_divisors(f, omega))
    small = np.abs(div) <= thr
    z, chi = f.filter(small), f.filter(~small)
    chi = chi.with_coefficients([complex(c) / (1j * d) for c, d in zip(
        chi.coef.tolist(), div[~small].tolist())])
    h0 = quadratic_diagonal({m: omega.omega_of(m) for m in f.modes})
    residual = (poisson_bracket(h0, chi) + z - f).l1()
    if residual > 1e-12 * max(f.l1(), 1e-300):
        raise ArithmeticError("homological residual %.3e exceeds tolerance"
                              % residual)
    return chi, z


class LieSeries(tuple):
    """(series, overflow) of `lie_transform`; `pairs` and `over_cap` count
    the term pairs its brackets took and those they skipped above the cap."""

    def __new__(cls, series: Polynomial, overflow: float, pairs: int = 0,
                over_cap: int = 0):
        out = super().__new__(cls, (series, overflow))
        out.pairs, out.over_cap = pairs, over_cap
        return out


def lie_transform(g: Polynomial, chi: Polynomial, cap: int) -> LieSeries:
    """Sum of g_l with g_0 = g and g_l = (1/l){chi, g_{l-1}} up to degree cap.

    Returns (series, overflow).  The overflow is the l1 mass of g above
    the cap plus, for every series term g_l, the mass of its contributions
    above the cap: `poly.bracket_overflow` of {chi, g_{l-1}}, times 1/l.
    chi must have minimum degree >= 3 so each bracket raises the minimum
    degree and the series terminates.
    """
    total = g.truncate_above(cap)
    overflow = g.filter(g.deg > cap).l1()
    if not chi:
        return LieSeries(total, overflow)
    if chi.min_degree() <= 2:
        raise ValueError("chi: minimum degree must be >= 3")
    term = total
    l = 1
    pairs = over_cap = 0
    while term:
        overflow += bracket_overflow(chi, term, cap) / l
        took, skipped = pair_counts(chi, term, cap)
        pairs, over_cap = pairs + took, over_cap + skipped
        term = poisson_bracket(chi, term, cap).scale(1.0 / l)
        total = total + term
        l += 1
        if l > 400:
            raise ArithmeticError("lie series failed to terminate")
    return LieSeries(total, overflow, pairs, over_cap)


def lie_compose(g: Polynomial, generators: Sequence[Polynomial],
                cap: int) -> Polynomial:
    """g composed with the time-1 flows of the generators, in order."""
    for chi in generators:
        g, _ = lie_transform(g, chi, cap)
    return g


# -- the normalization loop ----------------------------------------------


def normalize(h0_freqs: FrequencyTable, P: Polynomial,
              params: NormalFormParams,
              amplitude: Optional[float] = None) -> NormalFormResult:
    """Iteratively push P into resonant-only shape.

    Per round r = 1..r_star: tail-split the carry at N, solve the
    homological equation for the working part (the homogeneous degree-(r+2)
    slice by default, the whole low part in block mode), then transport the
    core Hamiltonian and the tail-cubic remainder through the generator
    flow.  The carry is whatever the identity {H0,chi}+Z = f left over.
    Both transforms truncate at degree r_star + 2, and the ledger's
    overflow_mass accumulates the overflow they report, on top of the l1
    mass of P above that degree, which is cut before the first round.
    """
    params = params.resolved(amplitude)
    N = params.N
    cap = params.degree_cap
    if P and P.min_degree() < 3:
        raise ValueError("P: minimum degree must be >= 3")
    h0 = quadratic_diagonal(h0_freqs.omega)
    zero_mom = P.is_zero_momentum()
    # the part of P above the cap never enters the series: ledger it here
    g, overflow_cum = lie_transform(P, zero(), cap)
    z = rn = zero()
    gens: List[Polynomial] = []
    ledger = RemainderLedger()
    tail_cum = 0.0
    for r in range(params.r_star):
        low, high, _ = g.tail_split(N)
        tail_cum += majorant_norm(high, params.s, 1.0)
        working = low.homogeneous_part(r + 3) \
            if params.mode == DEGREE_BY_DEGREE else low
        chi, z_r = solve_homological(working, h0_freqs, params.gamma,
                                     params.alpha, N)
        gens.append(chi)
        flows = (lie_transform(h0 + z + low, chi, cap),
                 lie_transform(rn + high, chi, cap))
        (core, core_over), (rn, rn_over) = flows
        z = z + z_r
        overflow_cum += core_over + rn_over
        g = core - h0 - z
        ledger.chi_majorants.append(majorant_norm(chi, params.s, 1.0))
        ledger.tail_cubic_mass.append(tail_cum)
        ledger.overflow_mass.append(overflow_cum)
        ledger.pairs.append(sum(s.pairs for s in flows))
        ledger.pairs_over_cap.append(sum(s.over_cap for s in flows))
        ledger.chi_terms.append(len(chi))
        ledger.Z_terms.append(len(z))

    membership = normal_form_membership(z, h0_freqs, params.gamma,
                                        params.alpha, N)
    if not all(membership):
        raise ArithmeticError("normal form term failed membership")
    if params.mode == DEGREE_BY_DEGREE:
        for i, chi in enumerate(gens):
            if chi and not chi.min_degree() == chi.max_degree() == i + 3:
                raise ArithmeticError("generator %d not homogeneous" % (i + 1))
    if z and not (3 <= z.min_degree() and z.max_degree() <= cap):
        raise ArithmeticError("normal form outside degree window")
    if zero_mom and not (z.is_zero_momentum()
                         and all(c.is_zero_momentum() for c in gens)):
        raise ArithmeticError("momentum leak in normalization")
    return NormalFormResult(z, gens, g, rn, ledger, params, membership)


# -- state transport ------------------------------------------------------


def _rk4(table, factor: complex, X: np.ndarray, n: int) -> np.ndarray:
    """n classical RK4 steps of size 1/n for x' = factor * field(x), per row."""
    h = 1.0 / n
    for _ in range(n):
        k1 = factor * table.eval(X)
        k2 = factor * table.eval(X + 0.5 * h * k1)
        k3 = factor * table.eval(X + 0.5 * h * k2)
        k4 = factor * table.eval(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


def _unit_flow(table, sign: float, X0: np.ndarray, tol: float) -> np.ndarray:
    """Time-1 flow of x' = i sign dchi/deta for every row of a (B, n) block.

    Each row runs through the step counts of RK4_STEPS and is accepted at
    the first count whose result lies within tol * (1 + max|x|) of the
    previous count's; only the rows not yet accepted go on doubling, so
    each row stops at the step count it would stop at on its own.
    """
    factor = 1j * sign
    X0 = X0.astype(complex)
    out = np.empty_like(X0)
    todo = np.arange(len(X0))
    prev = _rk4(table, factor, X0, RK4_STEPS[0])
    for n in RK4_STEPS[1:]:
        cur = _rk4(table, factor, X0[todo], n)
        err = np.max(np.abs(cur - prev), axis=1, initial=0.0)
        scale = 1.0 + np.max(np.abs(cur), axis=1, initial=0.0)
        done = err <= tol * scale
        out[todo[done]] = cur[done]
        todo, prev = todo[~done], cur[~done]
        if not len(todo):
            return out
    raise ArithmeticError("generator flow did not converge to %g" % tol)


@dataclass
class TransportPlan:
    """Precompiled generator-flow tables over a fixed mode layout.

    Worth building once when many points travel through the same flows:
    `apply_transport` carries a whole (B, n) batch of states, e.g. every
    frame of a trajectory, through each flow in one pass.
    """
    steps: List[object]
    sign: float
    tol: float


def transport_plan(generators: Sequence[Polynomial], layout: List[tuple],
                   direction: str = "forward", tol: float = 1e-12
                   ) -> TransportPlan:
    """The time-1 generator flows compiled over the given sorted modes.

    The function-level transform applies the generators in list order, so
    points travel through the flows in reverse order; the inverse negates
    the generators and undoes them first-to-last.  eta = conj(xi) is
    preserved because the generators are real-valued.  A generator mode
    outside the layout is an error.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction: forward or inverse")
    foreign = set().union(*(chi.modes for chi in generators))
    foreign.difference_update(layout)
    if foreign:
        raise ValueError("layout: generator modes %s are not in it"
                         % sorted(foreign))
    if direction == "forward":
        seq, sign = list(reversed(generators)), 1.0
    else:
        seq, sign = list(generators), -1.0
    steps = [eta_gradient_table(chi, layout) for chi in seq if chi]
    return TransportPlan(steps, sign, tol)


def apply_transport(plan: TransportPlan, x: np.ndarray) -> np.ndarray:
    """x through the plan's flows: (n,) for one state, (B, n) for a batch."""
    X = np.atleast_2d(x)
    for table in plan.steps:
        X = _unit_flow(table, plan.sign, X, plan.tol)
    return X if np.ndim(x) == 2 else X[0]
