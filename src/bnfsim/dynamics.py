"""Truncated Hamiltonian flows, observables and drift experiments.

Every model is H0 + P.  H0 = sum omega_j xi_j eta_j comes from the model's
frequency table; P is a quartic given once by (legs, w, scale): scale times
the quadrature, grid weight w, of the product of four linear legs
(`fields.Leg`).  Wave models carry the (2 omega_j)^(-1/2) smoothing weight
per leg, the 1-d NLS written in real canonical pairs carries sqrt(2) per
field leg, complex-field models couple xi_k directly.  The same (legs, w,
scale) give the integrator its field evaluator (`fields.QuadratureField`),
so only a bare polynomial is compiled into a `fields.FieldTable`.  A model
keeps P and its field as recipes, run on first use.  The flow is

    d(xi_j)/dt = -i dH/d(eta_j)   on the real slice eta = conj(xi),

integrated by the implicit midpoint rule, which is symplectic and needs no
kinetic/potential splitting.

A state is an (n,) complex array over the sorted modes of its Hamiltonian
(`ModelSystem.modes()`, or `H.modes` for a bare polynomial), and a
block of states, such as the frames of a run, is a (B, n) array.  Initial
data, the integrator, transport and the observables all take this one
format.  Observables: actions I_j = |xi_j|^2, pair actions J_j = I_j +
I_{-j}, shell actions J_M summed over |k|^2 = M, norm_s(z) = sqrt(sum_j
w_s(j) 2 I_j), and the torus distance sqrt(sum_j w_s1(j) (sqrt(I_j) -
sqrt(Iref_j))^2) in normalized coordinates.  Every sum over modes is
exactly rounded (math.fsum).
"""
from __future__ import annotations

import inspect
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .birkhoff import NormalFormResult, apply_transport, transport_plan
from .fields import Leg, QuadratureField, eta_gradient_table, value_table
from .modes import f17, mode_abs, mode_abs2, mode_groups, weight
from .poly import Polynomial, quadratic_diagonal
from .spectra import (NLW_PERIODIC, FrequencyTable, PotentialSample,
                      SpectralResult, convolution_frequencies,
                      mode_eigenvalues, nlw_frequencies, periodic_nlw_table,
                      sturm_liouville)

PAIRS = "pairs"
SHELLS = "shells"
MAX_HALVINGS = 8  # recursive step halvings before the integrator gives up
MIDPOINT_MAX_ITER = 64  # fixed-point iterations before a step is halved


@dataclass
class ModelSystem:
    """H0 + P of one model.

    H0 comes from the frequency table.  P comes from `quartic`, the
    builder's recipe for it, run on first use and then checked real.  A
    quadrature model's recipe `quadrature_field` gives a new field of the
    legs P is the grid sum of; any other model's gives None.  So a command
    that reads only the table builds neither, and on the d-torus no grid.
    P, H0, H and the integrator's compiled parts are built once and kept.
    """
    model: str
    table: FrequencyTable
    quartic: Callable[[], Polynomial]
    grouping: Optional[str]
    quadrature_field: Callable[[], Optional[QuadratureField]] = lambda: None

    @cached_property
    def P(self) -> Polynomial:
        P = self.quartic()
        defect = P.reality_defect()
        if defect > 1e-10 * max(1.0, P.l1()):
            raise ArithmeticError("interaction not real: defect %.3e"
                                  % defect)
        return P

    @cached_property
    def H0(self) -> Polynomial:
        return quadratic_diagonal(self.table.omega)

    @cached_property
    def H(self) -> Polynomial:
        return self.H0 + self.P

    def modes(self) -> list:
        return self.table.modes()

    @cached_property
    def flow_parts(self) -> tuple:
        """`_flow_parts` of H over the system's own modes, with the
        quadrature field when the model has one: P is quartic, so its legs
        give the field of every term of H but those of H0."""
        return _flow_parts(self.H, self.modes(), self.quadrature_field())


# -- quadrature helpers ----------------------------------------------------


def _midpoint_grid(quad_n: Optional[int],
                   *spectra: SpectralResult) -> Tuple[np.ndarray, float]:
    """Midpoint grid on (0, pi) and its weight: quad_n points, by default
    max(128, 4 k + 16) for the largest basis wavenumber k of the spectra.
    Exact for trigonometric polynomials of frequency < 2n; a product of
    four basis functions reaches frequency 4k, so n must exceed 2k."""
    k = max(int(res.basis.wavenumbers[-1]) for res in spectra)
    if quad_n is not None and quad_n <= 2 * k:
        raise ValueError("quad_n: must be > %d, twice the largest basis "
                         "wavenumber" % (2 * k))
    n = quad_n or max(128, 4 * k + 16)
    x = (np.arange(n) + 0.5) * (math.pi / n)
    return x, math.pi / n


def _basis_rows(res: SpectralResult, x: np.ndarray) -> np.ndarray:
    """Eigenfunctions on the grid, one row per mode, orthonormal on (0, pi)."""
    k = res.basis.wavenumbers
    if res.bc == "dirichlet":
        base = math.sqrt(2.0 / math.pi) * np.sin(np.outer(k, x))
    else:
        base = math.sqrt(2.0 / math.pi) * np.cos(np.outer(k, x))
        base[k == 0] = math.sqrt(1.0 / math.pi)
    return res.basis.coeffs.T @ base


def _as_sample(potential, mass: float = 0.0) -> PotentialSample:
    """The one converter of a builder's potential: None, a {k: v_k} dict or
    a PotentialSample.  A sampled nlw_periodic potential keeps the mass it
    drew; every other potential takes `mass`."""
    if not isinstance(potential, PotentialSample):
        return PotentialSample("explicit", {}, 0, dict(potential or {}), mass)
    if potential.family == NLW_PERIODIC:
        return potential
    return replace(potential, mass=mass)


# -- quartic assembly -------------------------------------------------------


def _wave_legs(rows: np.ndarray, table: FrequencyTable) -> tuple:
    """Four times the wave leg u = sum_j (2 omega_j)^(-1/2) (xi_j + eta_j)
    phi_j over the table's sorted modes, phi_j being rows[j]."""
    legw = np.array([(2.0 * table.omega_of(m)) ** -0.5
                     for m in table.modes()])
    n = len(legw)
    return (Leg(np.arange(2 * n), np.tile(legw, 2),
                np.vstack([rows, rows])),) * 4


def _assemble_quartic(modes: list, legs: Sequence[Leg], quadw: float,
                      scale: float) -> Polynomial:
    """scale * integral of the product of four legs, by quadrature.

    The integrals of all ordered leg tuples come from one matrix product of
    row-pair products.  Integrals below 1e-12 are dropped before any weight
    is applied, so the term set does not depend on the weights or scale.
    """
    def pairs(a: Leg, b: Leg) -> np.ndarray:
        return (a.rows[:, None, :] * b.rows[None, :, :]).reshape(
            -1, a.rows.shape[1])

    integ = (pairs(legs[0], legs[1]) @ pairs(legs[2], legs[3]).T) * quadw
    integ = integ.reshape([len(leg.vars) for leg in legs])
    idx = np.nonzero(np.abs(integ) >= 1e-12)
    values = integ[idx]
    for leg, i in zip(legs, idx):
        values = values * leg.weights[i]
    tuples = np.column_stack([leg.vars[i] for leg, i in zip(legs, idx)])
    return _merge_quartic(modes, tuples, values, scale)


def _merge_quartic(modes: list, tuples: np.ndarray, values: np.ndarray,
                   scale: float) -> Polynomial:
    """scale * sum_t values[t] z[tuples[t, 0]] ... z[tuples[t, 3]].

    Each 4-tuple of layout variables is sorted into a canonical key; equal
    keys merge through one integer-coded unique and bincount, and the runs
    of equal variables in each key are its exponent entries.
    """
    n = len(modes)
    keys = np.sort(tuples, axis=1)
    code = np.ravel_multi_index(keys.T, (2 * n,) * 4)
    _, first, inv = np.unique(code, return_index=True, return_inverse=True)
    coeffs = scale * np.bincount(inv, weights=values, minlength=len(first))
    # runs of equal variables in each sorted key are its exponents
    flat = keys[first].ravel()
    row = np.arange(len(flat)) // 4
    starts = np.flatnonzero(np.r_[True, (flat[1:] != flat[:-1])
                                  | (row[1:] != row[:-1])])
    e = np.diff(np.r_[starts, len(flat)])
    return Polynomial.from_entries(modes, row[starts], flat[starts], e,
                                   coeffs)


def _quadrature_model(model: str, table: FrequencyTable, legs: tuple,
                      w: float, scale: float,
                      grouping: Optional[str] = None) -> ModelSystem:
    """P = scale * quadrature (grid weight w) of the product of the legs;
    the integrator's field comes from the same legs with weight w * scale."""
    modes = table.modes()
    return ModelSystem(model, table,
                       partial(_assemble_quartic, modes, legs, w, scale),
                       grouping,
                       partial(QuadratureField, len(modes), legs, w * scale))


# -- model builders --------------------------------------------------------


def _demo_2mode(kappa: float = 0.1) -> ModelSystem:
    t = FrequencyTable({(1,): 1.0, (2,): math.sqrt(2.0)})
    from .poly import monomial
    return ModelSystem("demo_2mode", t, lambda: (
        monomial(kappa, xi={1: 2}, eta={2: 1})
        + monomial(kappa, xi={2: 1}, eta={1: 2})
        + monomial(kappa, xi={1: 1, 2: 1}, eta={1: 1, 2: 1})
        + monomial(kappa, xi={1: 2}, eta={2: 2})
        + monomial(kappa, xi={2: 2}, eta={1: 2})), None)


def _nls1d_dirichlet(jmax: int = 6, kappa: float = 0.1, potential=None,
                     basis_size: Optional[int] = None,
                     quad_n: Optional[int] = None) -> ModelSystem:
    res = sturm_liouville(_as_sample(potential), "dirichlet", jmax,
                          basis_size)
    t = FrequencyTable(mode_eigenvalues(res))
    x, w = _midpoint_grid(quad_n, res)
    # psi = p + i q in real canonical pairs: each field leg is sqrt(2) xi
    psi = Leg(np.arange(jmax), np.full(jmax, math.sqrt(2.0)),
              _basis_rows(res, x))
    psi_bar = psi._replace(vars=jmax + psi.vars)
    return _quadrature_model("nls1d_dirichlet", t,
                             (psi, psi, psi_bar, psi_bar), w, kappa)


def _nlw_dirichlet(jmax: int = 5, kappa: float = 1.0, mass: float = 0.0,
                   potential=None, basis_size: Optional[int] = None,
                   quad_n: Optional[int] = None) -> ModelSystem:
    sample = _as_sample(potential, mass)
    res = sturm_liouville(sample, "dirichlet", jmax, basis_size)
    t = nlw_frequencies(mode_eigenvalues(res), sample.mass)
    x, w = _midpoint_grid(quad_n, res)
    legs = _wave_legs(_basis_rows(res, x), t)
    return _quadrature_model("nlw_dirichlet", t, legs, w, kappa)


def _nlw_periodic(jmax: int = 3, kappa: float = 1.0, mass: float = 0.5,
                  potential=None, basis_size: Optional[int] = None,
                  quad_n: Optional[int] = None) -> ModelSystem:
    sample = _as_sample(potential, mass)
    t, dres, nres = periodic_nlw_table(sample, jmax, basis_size)
    modes = t.modes()
    x, w = _midpoint_grid(quad_n, dres, nres)
    drows = _basis_rows(dres, x)
    nrows = _basis_rows(nres, x)
    # j > 0: odd (Dirichlet-type) torus mode; j <= 0: even (Neumann).  On
    # (-pi, pi) the odd modes change sign and every row carries the 1/sqrt(2)
    # torus renormalization, so products with an odd number of odd legs
    # cancel and the rest give half the integral over (0, pi).
    labels = list(mode_eigenvalues(dres, nres))
    half = np.vstack([drows, nrows])[[labels.index(m) for m in modes]]
    sign = np.array([[-1.0] if j > 0 else [1.0] for (j,) in modes])
    rows = np.hstack([half, sign * half]) / math.sqrt(2.0)
    return _quadrature_model("nlw_periodic", t, _wave_legs(rows, t),
                             w, kappa, PAIRS)


def _nls_coupled(jmax: int = 4, kappa: float = 0.1, potential1=None,
                 potential2=None, basis_size: Optional[int] = None,
                 quad_n: Optional[int] = None) -> ModelSystem:
    """Two NLS fields with opposite-sign energies, Dirichlet conditions.

    omega_j = lambda_j of -d2/dx2 + V1 for the psi modes (j > 0) and
    omega_{-j} = -lambda_j of -d2/dx2 + V2 for the phi modes; the coupling
    is -kappa |psi|^2 |phi|^2.
    """
    res1 = sturm_liouville(_as_sample(potential1), "dirichlet", jmax,
                           basis_size)
    res2 = sturm_liouville(_as_sample(potential2), "dirichlet", jmax,
                           basis_size)
    omega = mode_eigenvalues(res1)
    omega.update({(-j,): -lam for (j,), lam in mode_eigenvalues(res2).items()})
    t = FrequencyTable(omega)
    x, w = _midpoint_grid(quad_n, res1, res2)
    # sorted modes: phi_j is xi_(-j) at jmax - j, psi_j is xi_j at jmax+j-1
    j = np.arange(1, jmax + 1)
    one = np.ones(jmax)
    psi = Leg(jmax + j - 1, one, _basis_rows(res1, x))
    phi = Leg(jmax - j, one, _basis_rows(res2, x))
    legs = (psi, psi._replace(vars=2 * jmax + psi.vars),
            phi, phi._replace(vars=2 * jmax + phi.vars))
    return _quadrature_model("nls_coupled", t, legs, w, -kappa, PAIRS)


def _nls_dd(d: int = 2, jmax: float = 2, kappa: float = 0.1,
            potential=None) -> ModelSystem:
    """Constant-coefficient quartic NLS on the d-torus, built combinatorially.

    g = kappa |psi|^4 with psi = sum_k xi_k e^(i k.x) / (2 pi)^(d/2); the
    zero-momentum selection rule k1 + k2 = k3 + k4 is exact, so every
    ordered (a, b, c, e) with a + b = c + e carries the same coefficient.
    """
    if jmax < 0:
        raise ValueError("jmax: a lattice radius, must be >= 0, got %g"
                         % jmax)
    t = convolution_frequencies(d, _as_sample(potential), jmax)
    modes, J = t.modes(), int(jmax)
    return ModelSystem("nls_dd", t,
                       partial(_momentum_quartic, modes, J,
                               kappa * (2.0 * math.pi) ** (-d)), SHELLS,
                       partial(_plane_wave_field, modes, J, d, kappa))


def _plane_wave_field(modes: list, J: int, d: int,
                      kappa: float) -> QuadratureField:
    """The field of `_nls_dd`, from plane-wave legs on the uniform (4J+1)^d
    grid, where the trapezoid rule is exact: every component of
    a + b - c - e is at most 4J in modulus."""
    n, grid = len(modes), 4 * J + 1
    x = (2.0 * math.pi / grid) * np.indices((grid,) * d).reshape(d, -1)
    rows = np.exp(1j * (np.array(modes) @ x)) * (2.0 * math.pi) ** (-0.5 * d)
    psi = Leg(np.arange(n), np.ones(n), rows)
    psi_bar = Leg(n + psi.vars, psi.weights, np.conj(rows))
    return QuadratureField(n, (psi, psi, psi_bar, psi_bar),
                           kappa * (2.0 * math.pi / grid) ** d)


def _momentum_quartic(modes: list, J: int, scale: float) -> Polynomial:
    """scale * sum of xi_a xi_b eta_c eta_e over the ordered (a, b, c, e) of
    the modes, all within the box |components| <= J, with a + b = c + e."""
    n, lattice = len(modes), np.array(modes)
    a, b = np.divmod(np.arange(n * n), n)
    total = np.ravel_multi_index((lattice[a] + lattice[b] + 2 * J).T,
                                 (4 * J + 1,) * lattice.shape[1])
    order = np.argsort(total, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(total[order])) + 1)
    left = np.concatenate([np.repeat(g, len(g)) for g in groups])
    right = np.concatenate([np.tile(g, len(g)) for g in groups])
    tuples = np.column_stack([a[left], b[left], n + a[right], n + b[right]])
    return _merge_quartic(modes, tuples, np.ones(len(left)), scale)


_BUILDERS = {
    "demo_2mode": _demo_2mode,
    "nls1d_dirichlet": _nls1d_dirichlet,
    "nlw_dirichlet": _nlw_dirichlet,
    "nlw_periodic": _nlw_periodic,
    "nls_coupled": _nls_coupled,
    "nls_dd": _nls_dd,
}
MODELS = tuple(_BUILDERS)
# what each model takes: its builder's parameters, the one statement of them
PARAMETERS = {m: inspect.signature(b).parameters for m, b in _BUILDERS.items()}


def build_model_hamiltonian(model: str, **params) -> ModelSystem:
    if model not in _BUILDERS:
        raise ValueError("model: unknown %r (choose from %s)"
                         % (model, ", ".join(MODELS)))
    return _BUILDERS[model](**params)


# -- flow field and integrator ---------------------------------------------


def _state(x, n: int, name: str) -> np.ndarray:
    """x as a complex (n,) state; any other shape is an error naming it."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise ValueError("%s: expected a state of shape (%d,), got %s"
                         % (name, n, x.shape))
    return x


def _flow_parts(H: Polynomial, layout: list, nl=None) -> tuple:
    """(frequencies of H's diagonal quadratic terms, field evaluator of its
    other terms, value table of H) over the layout, for `integrate`.  The
    field is `nl` when given, else a FieldTable of those terms."""
    index = {m: i for i, m in enumerate(layout)}
    n = len(H.modes)
    # a diagonal quadratic term xi_m eta_m is two entries, at m and n + m
    cnt = np.bincount(H.t, minlength=len(H))
    first = np.cumsum(cnt) - cnt
    diag = (H.deg == 2) & (cnt == 2)
    diag[diag] = H.col[first[diag]] + n == H.col[first[diag] + 1]
    at = np.array([index[m] for m in H.modes], dtype=int)
    omv = np.zeros(len(layout))
    omv[at[H.col[first[diag]]]] += H.coef[diag].astype(complex).real
    if nl is None:
        nl = eta_gradient_table(H.filter(~diag), layout)
    return omv, nl, value_table(H, layout)


@dataclass
class Trajectory:
    layout: List[tuple]
    times: List[float]
    states: np.ndarray   # (frames, n), one row per frame
    energies: List[float]
    dt: float
    halvings: int        # the deepest halving of any step
    halved_steps: int    # steps, of any size, retried on two half steps
    evals: int = 0   # field evaluations over all steps and halvings

    @property
    def steps(self) -> int:
        return max(1, int(round(self.times[-1] / self.dt)))


def _midpoint_rule(omv: np.ndarray, nl, tol: float) -> tuple:
    """(step, advance): the implicit midpoint rule bound to one run, with
    its work arrays, the field's kernel (`fields.Kernel`) and the
    coefficients of every step size met so far.  A step of dt is
    x1 = (a x0 - i dt F(mid)) / b with a = 1 - i dt omega / 2 and
    b = 1 + i dt omega / 2.

    `step(x0, dt)` iterates to a fixed point and returns (x1, converged,
    field evaluations), x1 being a work array the next step overwrites; a
    non-finite iterate ends it at once as not converged.  `advance(x, dt,
    depth)` steps x in place, retrying a step that does not converge on
    two half steps, and returns (deepest halving, steps retried, field
    evaluations).
    """
    kern = nl.kernel()
    mid, run = kern.x, kern.run
    rhs0, w1, w2, diff = (np.empty(len(omv), dtype=complex)
                          for _ in range(4))
    mag = np.empty(len(omv))
    # Every ufunc below writes into its last argument, in the order and on
    # the operands of the allocating form (x1n = F * (-i dt); x1n += rhs0;
    # x1n /= b), so the iterates keep their bits.  Scalars are 0-d complex
    # arrays: the value a Python scalar is cast to, passed for about 300 ns
    # a call against 500 ns.  The ufuncs are bound once, as locals.
    half = np.array(0.5 + 0j)
    coefs: dict = {}
    add, subtract, multiply, divide = (np.add, np.subtract, np.multiply,
                                       np.divide)
    absolute, amax, isfinite = np.absolute, np.maximum.reduce, math.isfinite

    def step(x0, dt):
        coef = coefs.get(dt)
        if coef is None:
            coef = coefs[dt] = (1.0 - 0.5j * dt * omv, 1.0 + 0.5j * dt * omv,
                                np.array(dt * (-1j)))
        a, b, mdt = coef
        multiply(a, x0, rhs0)
        x1, x1n = w1, w2
        divide(rhs0, b, x1)
        for it in range(1, MIDPOINT_MAX_ITER + 1):
            add(x0, x1, mid)
            multiply(mid, half, mid)
            run(x1n)
            multiply(x1n, mdt, x1n)
            add(x1n, rhs0, x1n)
            divide(x1n, b, x1n)
            subtract(x1n, x1, diff)
            err = amax(absolute(diff, mag))
            x1, x1n = x1n, x1
            if not isfinite(err):
                return x1, False, it
            # err <= tol decides as the scaled test would, since
            # 1 + max|x1| >= 1
            if err <= tol or err <= tol * (1.0 + amax(absolute(x1, mag))):
                return x1, True, it
        return x1, False, MIDPOINT_MAX_ITER

    def advance(x, dt, depth):
        x1, ok, evals = step(x, dt)
        if ok:
            x[...] = x1
            return depth, 0, evals
        if depth >= MAX_HALVINGS:
            raise ArithmeticError("midpoint solver diverged at dt=%.3e" % dt)
        d1, h1, e1 = advance(x, 0.5 * dt, depth + 1)
        d2, h2, e2 = advance(x, 0.5 * dt, depth + 1)
        return max(d1, d2), 1 + h1 + h2, evals + e1 + e2

    return step, advance


def integrate(H: Union[ModelSystem, Polynomial], x0, T: float,
              dt: float, tol: float = 1e-12,
              stride: int = 1) -> Trajectory:
    """Fixed-grid implicit midpoint run with frames every `stride` steps.

    H is a Hamiltonian polynomial or a ModelSystem, and x0 a state over its
    sorted modes.  A system integrates with the parts it compiles once for
    all its runs (`ModelSystem.flow_parts`): its QuadratureField, or else a
    FieldTable of its non-diagonal part.  A polynomial integrates with a
    FieldTable.  Each run binds the midpoint rule once
    (`_midpoint_rule`): the field's kernel and the work arrays every step
    writes into; frames are copied out of them.  Energies always come from
    the compiled value table of the whole H, evaluated on all frames at
    once after the run.

    A non-converging step is retried on two half steps (recursively, up to
    MAX_HALVINGS); the outer time grid is unchanged.  T < 0 integrates
    backwards (pass dt < 0 as well).
    """
    if dt == 0 or T == 0 or (T > 0) != (dt > 0):
        raise ValueError("dt: need nonzero dt and T of equal sign")
    if stride < 1:
        raise ValueError("stride: must be >= 1")
    if isinstance(H, ModelSystem):
        layout = H.modes()
        omv, nl, ht = H.flow_parts
    else:
        layout = H.modes
        omv, nl, ht = _flow_parts(H, layout)
    x = _state(x0, len(layout), "x0").copy()
    nsteps = max(1, int(round(T / dt)))
    dt_eff = T / nsteps
    # frame 0, every stride-th step and the last
    times, states = [0.0], np.empty((2 + (nsteps - 1) // stride, len(x)),
                                    dtype=complex)
    states[0] = x
    worst = halved = evals = 0
    _, advance = _midpoint_rule(omv, nl, tol)
    for n in range(1, nsteps + 1):
        depth, h, e = advance(x, dt_eff, 0)
        worst = max(worst, depth)
        halved += h
        evals += e
        if n % stride == 0 or n == nsteps:
            times.append(n * dt_eff)
            states[len(times) - 1] = x
    # the energies of all frames in one batched evaluation
    return Trajectory(layout, times, states, ht.eval(states).real.tolist(),
                      dt_eff, worst, halved, evals)


# -- observables -----------------------------------------------------------


def actions(X: np.ndarray) -> np.ndarray:
    """I_j = |xi_j|^2 of a state or of every row of a block.  np.hypot
    rounds |xi_j| as abs(complex) does; np.abs does not always."""
    return np.hypot(X.real, X.imag) ** 2


def _weights(modes: Sequence, s: float) -> np.ndarray:
    return np.array([weight(m, s) for m in modes])


def _fsum_rows(M: np.ndarray):
    """math.fsum over the last axis: a float for (n,), (B,) for (B, n)."""
    if M.ndim == 1:
        return math.fsum(M)
    return np.array([math.fsum(row) for row in M])


def norm_s(X: np.ndarray, modes: Sequence, s: float):
    """sqrt(sum_j w_s(j) 2 I_j) of a state, or of every row of a block."""
    return np.sqrt(_fsum_rows(2.0 * _weights(modes, s) * actions(X)))


def torus_distance(A: np.ndarray, ref: np.ndarray, modes: Sequence,
                   s1: float):
    """sqrt(sum_j w_s1(j) (sqrt(A_j) - sqrt(ref_j))^2) for actions A of a
    state or of every row of a block, against the reference actions."""
    d = np.sqrt(A) - np.sqrt(ref)
    return np.sqrt(_fsum_rows(_weights(modes, s1) * d ** 2))


def initial_state(modes: Sequence, eps: float, s: float, rng,
                  profile: str = "sobolev") -> np.ndarray:
    """Random-phase state over the modes with norm_s exactly eps.

    The default profile decays like (1 + |j|)^-(s+1), keeping a margin of
    one power inside the s-norm.
    """
    if profile == "sobolev":
        rho = np.array([(1.0 + mode_abs(m)) ** (-(s + 1.0)) for m in modes])
    elif profile == "flat":
        rho = np.ones(len(modes))
    else:
        raise ValueError("profile: sobolev or flat")
    theta = rng.uniform(0.0, 2.0 * math.pi, size=len(modes))
    z = rho * np.exp(1j * theta)
    return z * (eps / norm_s(z, modes, s))


def action_groups(system: ModelSystem) -> List[Tuple[str, List[int], float]]:
    """(label, member indices, weight) triples for the J observables.

    Members index the system's sorted modes, grouped as the exceptional
    patterns group them (`modes.mode_groups`): pairs {j, -j} as J_|j| or
    shells |j|^2 = M as J_M<M>, in order of |j|.  The weight is returned as
    the base 1 + |j|; callers raise it to the 2s power for a given s.
    """
    modes = system.modes()
    if system.grouping is None:
        return [("I_%s" % "_".join(str(c) for c in m), [i], 1.0 + mode_abs(m))
                for i, m in enumerate(modes)]
    shells = system.grouping == SHELLS
    groups = []
    for g in mode_groups(modes, shells).T:
        v = np.flatnonzero(g).tolist()
        m = modes[v[0]]
        label = "J_M%d" % mode_abs2(m) if shells else "J_%d" % mode_abs(m)
        groups.append((mode_abs2(m), label, v, 1.0 + mode_abs(m)))
    return [g[1:] for g in sorted(groups)]


# -- drift experiment -------------------------------------------------------


@dataclass
class DriftRow:
    """One line of drift.csv; its fields are the columns, in order."""
    model: str
    eps: float
    seed: int
    t: float
    H: float
    norm_s: float
    max_weighted_action_drift: float
    max_weighted_J_drift: float
    torus_dist: float
    escaped: int


DRIFT_COLUMNS = tuple(f.name for f in fields(DriftRow))


class DriftRuns(NamedTuple):
    """What `drift_experiment` returns: the drift.csv rows, the deepest
    halving over its runs, their halved steps, field evaluations and steps,
    summed, and the number of processes that ran them."""
    rows: List[DriftRow]
    halvings: int
    halved_steps: int
    evals: int
    steps: int
    processes: int


def drift_experiment(system: ModelSystem, nf: Optional[NormalFormResult],
                     eps_list: Sequence[float], seeds: Sequence[int],
                     r: int, s: float, c: float = 1.0, dt: float = 0.01,
                     stride: int = 10, s1: Optional[float] = None,
                     tol: float = 1e-12, profile: str = "sobolev"
                     ) -> DriftRuns:
    """Integrate to T = c eps^-r per (eps, seed) and track drift observables.

    Drift columns hold running suprema up to the frame time, so the last
    row of a run carries the whole-horizon values.  Crossing norm_s > 2 eps
    marks `escaped` from that frame on; the run continues (escape is data).
    Torus distance is measured in normalized coordinates: frames travel
    through the inverse generator flows, the reference actions are those of
    the transformed initial point.

    The runs share nothing but what is compiled here, so they are spread
    over the CPUs the process may use (`_on_cpus`); each run's numbers do
    not depend on where it ran, and the rows keep the (eps, seed) order.
    """
    if s1 is None:
        s1 = s
    layout = system.modes()
    groups = action_groups(system)
    ws = _weights(layout, s)
    wvec = np.array([base ** (2.0 * s) for _, _, base in groups])
    plan = None
    if nf is not None and nf.generators:
        plan = transport_plan(nf.generators, layout, "inverse")
    system.flow_parts  # compiled once, before any run is forked

    def run(job) -> tuple:
        ei, eps, seed, T = job
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(ei,)))
        x0 = initial_state(layout, eps, s, rng, profile)
        traj = integrate(system, x0, T, dt, stride=stride, tol=tol)
        X = traj.states
        A = actions(X)
        J = np.array([[math.fsum(a[idx]) for _, idx, _ in groups]
                      for a in A])
        sup_i = np.maximum.accumulate(np.max(ws * np.abs(A - A[0]), 1))
        sup_j = np.maximum.accumulate(np.max(wvec * np.abs(J - J[0]), 1))
        nsz = norm_s(X, layout, s)
        escaped = np.maximum.accumulate(nsz > 2.0 * eps).astype(int)
        # every frame through the inverse flows in one batch
        AY = actions(X if plan is None else apply_transport(plan, X))
        dist = torus_distance(AY, AY[0], layout, s1)
        rows = [DriftRow(system.model, eps, seed, *row) for row in zip(
            traj.times, traj.energies, nsz.tolist(), sup_i.tolist(),
            sup_j.tolist(), dist.tolist(), escaped.tolist())]
        return rows, (traj.halvings, traj.halved_steps, traj.evals,
                      traj.steps)

    jobs = [(ei, eps, seed, c * eps ** (-float(r)))
            for ei, eps in enumerate(eps_list) for seed in seeds]
    done, k = _on_cpus(run, jobs, [abs(job[3] / dt) for job in jobs],
                       ["(eps %g, seed %d)" % job[1:3] for job in jobs])
    rows = [row for part, _ in done for row in part]
    counts = [n for _, n in done]
    halved, evals, steps = (sum(n[i] for n in counts) for i in (1, 2, 3))
    return DriftRuns(rows, max((n[0] for n in counts), default=0), halved,
                     evals, steps, k)


# the warning Python 3.12 gives when a process that runs threads forks
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, use of "
                 r"fork\(\) may lead to deadlocks in the child")


def _on_cpus(task: Callable, jobs: Sequence, costs: Sequence[float],
             names: Sequence[str]) -> Tuple[list, int]:
    """([task(job) for job in jobs], k), the jobs run on k = min(#jobs,
    CPUs in the affinity mask) processes: this one and k - 1 forked
    children.  With one of either nothing is forked.

    Jobs go longest first (by cost) to the least-loaded process.  A child
    pickles its results back over a pipe and leaves through `os._exit`.
    If jobs fail, the exception of the one of lowest index is raised, the
    one a loop over the jobs would meet first; a child that dies without
    sending its results raises a ChildProcessError naming its jobs.  Every
    child is reaped before this returns, and killed first if it is still
    running when this one unwinds.

    Forking is safe here though OpenBLAS may run threads: it installs
    pthread_atfork handlers that leave the child a consistent BLAS, and a
    child only computes, writes its pipe and exits.
    """
    k = min(len(jobs), len(os.sched_getaffinity(0)))
    if k <= 1:
        return [task(job) for job in jobs], 1
    shares: List[List[int]] = [[] for _ in range(k)]
    load = [0.0] * k
    for i in sorted(range(len(jobs)), key=lambda i: -costs[i]):
        w = load.index(min(load))
        shares[w].append(i)
        load[w] += costs[i]
    children = {}  # pid -> (read end of its pipe, its share)
    unwinding = True
    try:
        for share in shares[1:]:
            rfd, wfd = os.pipe()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _FORK_WARNING,
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _child(task, jobs, share, wfd)
            os.close(wfd)
            children[pid] = (os.fdopen(rfd, "rb"), share)
        out = _attempt(task, jobs, shares[0])
        for pid, (fh, share) in children.items():
            data = fh.read()
            try:
                out.update(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    "the process running %s exited without its results"
                    % ", ".join(names[i] for i in sorted(share))) from None
        unwinding = False
    finally:
        for pid, (fh, _) in children.items():
            if unwinding:
                os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)
    failed = [i for i, (ok, _) in out.items() if not ok]
    if failed:
        raise out[min(failed)][1]
    return [out[i][1] for i in range(len(jobs))], k


def _attempt(task: Callable, jobs: Sequence, share: Sequence[int]) -> dict:
    """{index: (True, result) or (False, exception)} of the share's jobs, in
    its order.  After a failure only jobs of a lower index run, so the
    share's lowest failing index is always met."""
    out, failed = {}, len(jobs)
    for i in share:
        if i < failed:
            try:
                out[i] = (True, task(jobs[i]))
            except Exception as exc:
                out[i], failed = (False, exc), i
    return out


def _child(task: Callable, jobs: Sequence, share: Sequence[int],
           wfd: int) -> None:
    """A forked child's whole life: run the share, pickle its `_attempt`
    into the pipe, and leave without unwinding into the parent's frames."""
    code = 1
    try:
        out = pickle.dumps(_attempt(task, jobs, share),
                           pickle.HIGHEST_PROTOCOL)
        with os.fdopen(wfd, "wb") as fh:
            fh.write(out)
        code = 0
    finally:
        os._exit(code)


# -- CSV output -------------------------------------------------------------


def write_drift_csv(rows: Sequence[DriftRow], path) -> None:
    fmt = [f17 if f.type == "float" else str for f in fields(DriftRow)]
    with open(path, "w") as fh:
        fh.write(",".join(DRIFT_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(f(v) for f, v in zip(fmt, vars(r).values()))
                     + "\n")


def write_frames_csv(system: ModelSystem, traj: Trajectory, path,
                     eps: float = 0.0, seed: int = 0) -> None:
    with open(path, "w") as fh:
        fh.write("model,eps,seed,t,mode,I\n")
        for t, acts in zip(traj.times, actions(traj.states)):
            for m, a in zip(traj.layout, acts):
                fh.write(",".join([system.model, f17(eps), str(seed),
                                   f17(t), "_".join(str(c) for c in m),
                                   f17(a)]) + "\n")
