"""Truncated Hamiltonian flows, observables and drift experiments.

Every model is H0 + P.  H0 = sum omega_j xi_j eta_j comes from the model's
frequency table; P is a quartic given once by (legs, w, scale): scale times
the quadrature, grid weight w, of the product of four linear legs
(`fields.Leg`).  Wave models carry the (2 omega_j)^(-1/2) smoothing weight
per leg, the 1-d NLS written in real canonical pairs carries sqrt(2) per
field leg, complex-field models couple xi_k directly.  The same (legs, w,
scale) give the integrator its field evaluator (`fields.QuadratureField`),
so only a bare polynomial is compiled into a `fields.FieldTable`.  The
flow is

    d(xi_j)/dt = -i dH/d(eta_j)   on the real slice eta = conj(xi),

integrated by the implicit midpoint rule, which is symplectic and needs no
kinetic/potential splitting.

Observables: actions I_j = |xi_j|^2, pair actions J_j = I_j + I_{-j},
shell actions J_M summed over |k|^2 = M, norm_s(z) = sqrt(sum_j w_s(j)
2 I_j), and the torus distance sqrt(sum_j w_s1(j) (sqrt(I_j) -
sqrt(Iref_j))^2) in normalized coordinates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .birkhoff import NormalFormResult, apply_transport, transport_plan
from .fields import Leg, QuadratureField, eta_gradient_table, value_table
from .modes import as_mode, f17, mode_abs, mode_abs2, weight
from .poly import Monomial, Polynomial, quadratic_diagonal
from .spectra import (FrequencyTable, PotentialSample, SpectralResult,
                      nlw_frequencies, periodic_nlw_table, sturm_liouville)

MODELS = ("demo_2mode", "nls1d_dirichlet", "nlw_dirichlet", "nlw_periodic",
          "nls_coupled", "nls_dd")

PAIRS = "pairs"
SHELLS = "shells"
MAX_HALVINGS = 8  # recursive step halvings before the integrator gives up
MIDPOINT_MAX_ITER = 64  # fixed-point iterations before a step is halved


@dataclass
class ModelSystem:
    """H0 + P of one model.

    H0 comes from the frequency table.  A model whose quartic comes from
    quadrature keeps the description it was built from: P = quad_weight *
    sum over grid points of the product of its four `legs`, and the
    integrator evaluates the field from the same legs.  H0, H and the
    integrator's compiled parts are built on first use and kept.
    """
    model: str
    table: FrequencyTable
    P: Polynomial
    grouping: Optional[str]
    meta: dict = field(default_factory=dict)
    legs: Tuple[Leg, ...] = ()
    quad_weight: float = 0.0

    @cached_property
    def H0(self) -> Polynomial:
        return quadratic_diagonal(self.table.omega)

    @cached_property
    def H(self) -> Polynomial:
        return self.H0 + self.P

    def modes(self) -> list:
        return self.table.modes()

    def quadrature_field(self) -> Optional[QuadratureField]:
        if not self.legs:
            return None
        return QuadratureField(len(self.modes()), self.legs, self.quad_weight)

    @cached_property
    def flow_parts(self) -> tuple:
        """`_flow_parts` of H over the system's own modes, with the
        quadrature field of its legs when it has them: P is quartic, so its
        legs give the field of every term of H but those of H0."""
        return _flow_parts(self.H, self.modes(), self.quadrature_field())


# -- quadrature helpers ----------------------------------------------------


def _midpoint_grid(quad_n: Optional[int],
                   *spectra: SpectralResult) -> Tuple[np.ndarray, float]:
    """Midpoint grid on (0, pi) and its weight: quad_n points, by default
    max(128, 4 k + 16) for the largest basis wavenumber k of the spectra.
    Exact for trigonometric polynomials of frequency < 2n."""
    n = quad_n or max(128, 4 * max(int(res.basis.wavenumbers[-1])
                                   for res in spectra) + 16)
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
    if potential is None:
        potential = {}
    if isinstance(potential, PotentialSample):
        return potential
    return PotentialSample("explicit", {}, 0, dict(potential), mass)


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
    keys merge through one integer-coded unique and bincount, and every
    Monomial is built once per key.
    """
    n = len(modes)
    keys = np.sort(tuples, axis=1)
    code = np.ravel_multi_index(keys.T, (2 * n,) * 4)
    _, first, inv = np.unique(code, return_index=True, return_inverse=True)
    coeffs = scale * np.bincount(inv, weights=values, minlength=len(first))
    terms: Dict[Monomial, complex] = {}
    for key, c in zip(keys[first].tolist(), coeffs.tolist()):
        xi, eta = [], []
        for v, grp in itertools.groupby(key):
            (xi if v < n else eta).append((modes[v % n], len(tuple(grp))))
        terms[Monomial(xi, eta)] = c
    return Polynomial(terms)


def _quadrature_model(model: str, table: FrequencyTable, legs: tuple,
                      w: float, scale: float, grouping: Optional[str],
                      meta: dict) -> ModelSystem:
    """P = scale * quadrature (grid weight w) of the product of the legs;
    the integrator's field comes from the same legs with weight w * scale."""
    P = _assemble_quartic(table.modes(), legs, w, scale)
    return ModelSystem(model, table, P, grouping, meta, legs, w * scale)


# -- model builders --------------------------------------------------------


def _demo_2mode(kappa: float = 0.1) -> ModelSystem:
    t = FrequencyTable("demo_2mode", {(1,): 1.0, (2,): math.sqrt(2.0)})
    from .poly import monomial
    P = (monomial(kappa, xi={1: 2}, eta={2: 1})
         + monomial(kappa, xi={2: 1}, eta={1: 2})
         + monomial(kappa, xi={1: 1, 2: 1}, eta={1: 1, 2: 1})
         + monomial(kappa, xi={1: 2}, eta={2: 2})
         + monomial(kappa, xi={2: 2}, eta={1: 2}))
    return ModelSystem("demo_2mode", t, P, None, {"kappa": kappa})


def _nls1d_dirichlet(jmax: int = 6, kappa: float = 0.1, potential=None,
                     basis_size: Optional[int] = None,
                     quad_n: Optional[int] = None) -> ModelSystem:
    sample = _as_sample(potential)
    res = sturm_liouville(sample, "dirichlet", jmax, basis_size)
    t = FrequencyTable("nls1d_dirichlet", {(j,): float(res.lams[j - 1])
                                           for j in range(1, jmax + 1)})
    x, w = _midpoint_grid(quad_n, res)
    # psi = p + i q in real canonical pairs: each field leg is sqrt(2) xi
    psi = Leg(np.arange(jmax), np.full(jmax, math.sqrt(2.0)),
              _basis_rows(res, x))
    psi_bar = psi._replace(vars=jmax + psi.vars)
    return _quadrature_model("nls1d_dirichlet", t,
                             (psi, psi, psi_bar, psi_bar), w, kappa, None,
                             {"kappa": kappa, "spectral": res})


def _nlw_dirichlet(jmax: int = 5, kappa: float = 1.0, mass: float = 0.0,
                   potential=None, basis_size: Optional[int] = None,
                   quad_n: Optional[int] = None) -> ModelSystem:
    sample = _as_sample(potential, mass)
    res = sturm_liouville(sample, "dirichlet", jmax, basis_size)
    t = nlw_frequencies({(j,): float(res.lams[j - 1])
                         for j in range(1, jmax + 1)}, mass, "nlw_dirichlet")
    x, w = _midpoint_grid(quad_n, res)
    legs = _wave_legs(_basis_rows(res, x), t)
    return _quadrature_model("nlw_dirichlet", t, legs, w, kappa, None,
                             {"kappa": kappa, "mass": mass, "spectral": res})


def _nlw_periodic(jmax: int = 3, kappa: float = 1.0, mass: float = 0.5,
                  potential=None, basis_size: Optional[int] = None,
                  quad_n: Optional[int] = None) -> ModelSystem:
    sample = _as_sample(potential, mass)
    t, parts = periodic_nlw_table(sample, jmax, basis_size)
    dres, nres = parts["dirichlet"], parts["neumann"]
    modes = t.modes()
    x, w = _midpoint_grid(quad_n, dres, nres)
    drows = _basis_rows(dres, x)
    nrows = _basis_rows(nres, x)
    # j > 0: odd (Dirichlet-type) torus mode; j <= 0: even (Neumann).  On
    # (-pi, pi) the odd modes change sign and every row carries the 1/sqrt(2)
    # torus renormalization, so products with an odd number of odd legs
    # cancel and the rest give half the integral over (0, pi).
    half = np.array([drows[j - 1] if j > 0 else nrows[-j] for (j,) in modes])
    sign = np.array([[-1.0] if j > 0 else [1.0] for (j,) in modes])
    rows = np.hstack([half, sign * half]) / math.sqrt(2.0)
    return _quadrature_model("nlw_periodic", t, _wave_legs(rows, t),
                             w, kappa, PAIRS, {"kappa": kappa, "mass": mass})


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
    omega = {}
    for j in range(1, jmax + 1):
        omega[(j,)] = float(res1.lams[j - 1])
        omega[(-j,)] = -float(res2.lams[j - 1])
    t = FrequencyTable("nls_coupled", omega)
    x, w = _midpoint_grid(quad_n, res1, res2)
    # sorted modes: phi_j is xi_(-j) at jmax - j, psi_j is xi_j at jmax+j-1
    j = np.arange(1, jmax + 1)
    one = np.ones(jmax)
    psi = Leg(jmax + j - 1, one, _basis_rows(res1, x))
    phi = Leg(jmax - j, one, _basis_rows(res2, x))
    legs = (psi, psi._replace(vars=2 * jmax + psi.vars),
            phi, phi._replace(vars=2 * jmax + phi.vars))
    return _quadrature_model("nls_coupled", t, legs, w, -kappa, PAIRS,
                             {"kappa": kappa})


def _nls_dd(d: int = 2, jmax: float = 2, kappa: float = 0.1,
            potential=None) -> ModelSystem:
    """Constant-coefficient quartic NLS on the d-torus, built combinatorially.

    g = kappa |psi|^4 with psi = sum_k xi_k e^(i k.x) / (2 pi)^(d/2); the
    zero-momentum selection rule k1 + k2 = k3 + k4 is exact, so every
    ordered (a, b, c, e) with a + b = c + e carries the same coefficient.
    The field is evaluated from plane-wave legs on the uniform (4J+1)^d
    grid, where the trapezoid rule is exact: every component of
    a + b - c - e is at most 4J in modulus.
    """
    from .spectra import convolution_frequencies
    sample = potential if isinstance(potential, PotentialSample) else None
    t = convolution_frequencies(d, sample, jmax)
    modes = t.modes()
    n = len(modes)
    a, b = np.divmod(np.arange(n * n), n)
    J = int(jmax)
    lattice = np.array(modes)
    total = np.ravel_multi_index((lattice[a] + lattice[b] + 2 * J).T,
                                 (4 * J + 1,) * d)
    order = np.argsort(total, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(total[order])) + 1)
    left = np.concatenate([np.repeat(g, len(g)) for g in groups])
    right = np.concatenate([np.tile(g, len(g)) for g in groups])
    tuples = np.column_stack([a[left], b[left], n + a[right], n + b[right]])
    P = _merge_quartic(modes, tuples, np.ones(len(left)),
                       kappa * (2.0 * math.pi) ** (-d))
    grid = 4 * J + 1
    x = (2.0 * math.pi / grid) * np.indices((grid,) * d).reshape(d, -1)
    rows = np.exp(1j * (lattice @ x)) * (2.0 * math.pi) ** (-0.5 * d)
    psi = Leg(np.arange(n), np.ones(n), rows)
    psi_bar = Leg(n + psi.vars, psi.weights, np.conj(rows))
    return ModelSystem("nls_dd", t, P, SHELLS, {"kappa": kappa, "d": d},
                       (psi, psi, psi_bar, psi_bar),
                       kappa * (2.0 * math.pi / grid) ** d)


_BUILDERS = {
    "demo_2mode": _demo_2mode,
    "nls1d_dirichlet": _nls1d_dirichlet,
    "nlw_dirichlet": _nlw_dirichlet,
    "nlw_periodic": _nlw_periodic,
    "nls_coupled": _nls_coupled,
    "nls_dd": _nls_dd,
}


def build_model_hamiltonian(model: str, **params) -> ModelSystem:
    if model not in _BUILDERS:
        raise ValueError("model: unknown %r (choose from %s)"
                         % (model, ", ".join(MODELS)))
    system = _BUILDERS[model](**params)
    defect = system.P.reality_defect()
    if defect > 1e-10 * max(1.0, system.P.l1()):
        raise ArithmeticError("interaction not real: defect %.3e" % defect)
    return system


# -- flow field and integrator ---------------------------------------------


def hamiltonian_flow_field(H: Polynomial, state: dict) -> dict:
    """xi-dot = -i dH/d(eta) at the point, on the real slice."""
    defect = H.reality_defect()
    if defect > 1e-10 * max(1.0, H.l1()):
        raise ValueError("H: not real-flagged (defect %.3e)" % defect)
    z = {as_mode(m): complex(v) for m, v in state.items()}
    layout = sorted(set(z) | H.modes())
    table = eta_gradient_table(H, layout)
    x = np.array([z.get(m, 0.0) for m in layout], dtype=complex)
    dot = -1j * table.eval(x)
    return {m: complex(v) for m, v in zip(layout, dot)}


def _flow_parts(H: Polynomial, layout: list, nl=None) -> tuple:
    """(frequencies of H's diagonal quadratic terms, field evaluator of its
    other terms, value table of H) over the layout, for `integrate`.  The
    field is `nl` when given, else a FieldTable of those terms."""
    index = {m: i for i, m in enumerate(layout)}
    omv = np.zeros(len(layout))
    rest: Dict[Monomial, complex] = {}
    for mono, c in H.items():
        if mono.degree == 2 and mono.is_action():
            omv[index[mono.xi[0][0]]] += complex(c).real
        elif nl is None:
            rest[mono] = c
    if nl is None:
        nl = eta_gradient_table(Polynomial(rest), layout)
    return omv, nl, value_table(H, layout)


@dataclass
class Trajectory:
    layout: List[tuple]
    times: List[float]
    states: List[np.ndarray]
    energies: List[float]
    dt: float
    halvings: int
    evals: int = 0   # field evaluations over all steps and halvings

    @property
    def steps(self) -> int:
        return max(1, int(round(self.times[-1] / self.dt)))

    def state_dict(self, i: int) -> dict:
        return {m: complex(v) for m, v in zip(self.layout, self.states[i])}


def _midpoint_step(x0, dt, omv, nl, tol):
    """One implicit midpoint step by fixed-point iteration.

    Returns (x1, converged, field evaluations).  A non-finite iterate ends
    the step at once as not converged.
    """
    a = 1.0 - 0.5j * dt * omv
    b = 1.0 + 0.5j * dt * omv
    rhs0 = a * x0
    x1 = rhs0 / b
    for it in range(1, MIDPOINT_MAX_ITER + 1):
        mid = 0.5 * (x0 + x1)
        x1n = (rhs0 + dt * (-1j) * nl.eval(mid)) / b
        err = float(np.abs(x1n - x1).max())
        x1 = x1n
        if not math.isfinite(err):
            return x1, False, it
        if err <= tol * (1.0 + float(np.abs(x1).max())):
            return x1, True, it
    return x1, False, MIDPOINT_MAX_ITER


def _advance(x, dt, omv, nl, tol, depth):
    """(state, deepest halving, field evaluations) after one step of dt."""
    x1, ok, evals = _midpoint_step(x, dt, omv, nl, tol)
    if ok:
        return x1, depth, evals
    if depth >= MAX_HALVINGS:
        raise ArithmeticError("midpoint solver diverged at dt=%.3e" % dt)
    xh, d1, e1 = _advance(x, 0.5 * dt, omv, nl, tol, depth + 1)
    x1, d2, e2 = _advance(xh, 0.5 * dt, omv, nl, tol, depth + 1)
    return x1, max(d1, d2), evals + e1 + e2


def integrate(H: Union[ModelSystem, Polynomial], z0: dict, T: float,
              dt: float, tol: float = 1e-12,
              stride: int = 1) -> Trajectory:
    """Fixed-grid implicit midpoint run with frames every `stride` steps.

    H is a Hamiltonian polynomial or a ModelSystem.  A system integrates on
    its own modes (z0 may name no other) with the parts it compiles once
    for all its runs (`ModelSystem.flow_parts`): the QuadratureField of its
    legs, or else a FieldTable of its non-diagonal part.  A polynomial
    integrates on its modes and those of z0, with a FieldTable.  Energies
    always come from the compiled value table of the whole H, evaluated on
    all frames at once after the run.

    A non-converging step is retried on two half steps (recursively, up to
    MAX_HALVINGS); the outer time grid is unchanged.  T < 0 integrates
    backwards (pass dt < 0 as well).
    """
    if dt == 0 or T == 0 or (T > 0) != (dt > 0):
        raise ValueError("dt: need nonzero dt and T of equal sign")
    if stride < 1:
        raise ValueError("stride: must be >= 1")
    z = {as_mode(m): complex(v) for m, v in z0.items()}
    if isinstance(H, ModelSystem):
        layout = H.modes()
        foreign = set(z).difference(layout)
        if foreign:
            raise ValueError("z0: modes %s are not the system's"
                             % sorted(foreign))
        omv, nl, ht = H.flow_parts
    else:
        layout = sorted(set(z) | H.modes())
        omv, nl, ht = _flow_parts(H, layout)
    nsteps = max(1, int(round(T / dt)))
    dt_eff = T / nsteps
    x = np.array([z.get(m, 0.0) for m in layout], dtype=complex)
    traj = Trajectory(layout, [0.0], [x.copy()], [], dt_eff, 0)
    worst = 0
    for n in range(1, nsteps + 1):
        x, depth, evals = _advance(x, dt_eff, omv, nl, tol, 0)
        worst = max(worst, depth)
        traj.evals += evals
        if n % stride == 0 or n == nsteps:
            traj.times.append(n * dt_eff)
            traj.states.append(x.copy())
    # the energies of all frames in one batched evaluation
    traj.energies = ht.eval(np.array(traj.states)).real.tolist()
    traj.halvings = worst
    return traj


# -- observables -----------------------------------------------------------


def actions(state: dict) -> dict:
    return {as_mode(m): abs(complex(v)) ** 2 for m, v in state.items()}


def norm_s(state: dict, s: float) -> float:
    return math.sqrt(math.fsum(
        2.0 * weight(m, s) * abs(complex(v)) ** 2
        for m, v in state.items()))


def initial_state(modes: Sequence, eps: float, s: float, rng,
                  profile: str = "sobolev") -> dict:
    """Random-phase state with norm_s exactly eps.

    The default profile decays like (1 + |j|)^-(s+1), keeping a margin of
    one power inside the s-norm.
    """
    ms = [as_mode(m) for m in modes]
    if profile == "sobolev":
        rho = np.array([(1.0 + mode_abs(m)) ** (-(s + 1.0)) for m in ms])
    elif profile == "flat":
        rho = np.ones(len(ms))
    else:
        raise ValueError("profile: sobolev or flat")
    theta = rng.uniform(0.0, 2.0 * math.pi, size=len(ms))
    z = rho * np.exp(1j * theta)
    state = {m: complex(v) for m, v in zip(ms, z)}
    nrm = norm_s(state, s)
    return {m: complex(v) * (eps / nrm) for m, v in state.items()}


def action_groups(system: ModelSystem) -> List[Tuple[str, List[tuple], float]]:
    """(label, member modes, weight) triples for the J observables.

    Pairs group {j, -j} under weight w_s evaluated at |j|; shells group by
    the exact squared modulus M with weight evaluated at radius sqrt(M).
    The weight is returned as the base (1 + radius); callers raise it to
    the 2s power for a given s.
    """
    modes = system.modes()
    groups: Dict[object, List[tuple]] = {}
    if system.grouping == PAIRS:
        for m in modes:
            groups.setdefault(abs(m[0]), []).append(m)
        return [("J_%d" % k, v, 1.0 + k) for k, v in sorted(groups.items())]
    if system.grouping == SHELLS:
        for m in modes:
            groups.setdefault(mode_abs2(m), []).append(m)
        return [("J_M%d" % k, v, 1.0 + math.sqrt(k))
                for k, v in sorted(groups.items())]
    return [("I_%s" % "_".join(str(c) for c in m), [m], 1.0 + mode_abs(m))
            for m in modes]


def group_actions(acts: dict, groups) -> np.ndarray:
    return np.array([math.fsum(acts.get(m, 0.0) for m in members)
                     for _, members, _ in groups])


def torus_distance(acts: dict, ref: dict, s1: float) -> float:
    tot = 0.0
    for m in set(acts) | set(ref):
        da = math.sqrt(max(acts.get(m, 0.0), 0.0))
        db = math.sqrt(max(ref.get(m, 0.0), 0.0))
        tot += weight(m, s1) * (da - db) ** 2
    return math.sqrt(tot)


def total_momentum(state: dict) -> tuple:
    d = max(len(as_mode(m)) for m in state)
    mom = [0.0] * d
    for m, v in state.items():
        a = abs(complex(v)) ** 2
        for i, c in enumerate(as_mode(m)):
            mom[i] += c * a
    return tuple(mom)


# -- drift experiment -------------------------------------------------------


DRIFT_COLUMNS = ("model", "eps", "seed", "t", "H", "norm_s",
                 "max_weighted_action_drift", "max_weighted_J_drift",
                 "torus_dist", "escaped")


@dataclass
class DriftRow:
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


def drift_experiment(system: ModelSystem, nf: Optional[NormalFormResult],
                     eps_list: Sequence[float], seeds: Sequence[int],
                     r: int, s: float, c: float = 1.0, dt: float = 0.01,
                     stride: int = 10, s1: Optional[float] = None,
                     tol: float = 1e-12, profile: str = "sobolev"
                     ) -> List[DriftRow]:
    """Integrate to T = c eps^-r per (eps, seed) and track drift observables.

    Drift columns hold running suprema up to the frame time, so the last
    row of a run carries the whole-horizon values.  Crossing norm_s > 2 eps
    marks `escaped` from that frame on; the run continues (escape is data).
    Torus distance is measured in normalized coordinates: frames travel
    through the inverse generator flows, the reference actions are those of
    the transformed initial point.
    """
    if s1 is None:
        s1 = s
    groups = action_groups(system)
    layout = system.modes()
    plan = None
    if nf is not None and nf.generators:
        plan = transport_plan(nf.generators, layout, "inverse")
    rows: List[DriftRow] = []
    for ei, eps in enumerate(eps_list):
        for seed in seeds:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(ei,)))
            z0 = initial_state(layout, eps, s, rng, profile)
            T = c * eps ** (-float(r))
            traj = integrate(system, z0, T, dt, stride=stride, tol=tol)
            if plan is not None and plan.layout != traj.layout:
                raise ArithmeticError("transport layout mismatch")
            acts0 = actions(traj.state_dict(0))
            j0 = group_actions(acts0, groups)
            wvec = np.array([base ** (2.0 * s) for _, _, base in groups])
            # every frame through the inverse flows in one batch
            ys = np.array(traj.states)
            if plan is not None:
                ys = apply_transport(plan, ys)
            ref = actions(dict(zip(traj.layout, ys[0])))
            sup_i = 0.0
            sup_j = 0.0
            escaped = 0
            for i, t in enumerate(traj.times):
                st = traj.state_dict(i)
                acts = actions(st)
                sup_i = max(sup_i, max(
                    weight(m, s) * abs(acts[m] - acts0[m]) for m in acts))
                jvec = group_actions(acts, groups)
                sup_j = max(sup_j, float(np.max(wvec * np.abs(jvec - j0))))
                nsz = norm_s(st, s)
                if nsz > 2.0 * eps:
                    escaped = 1
                ya = actions(dict(zip(traj.layout, ys[i])))
                dist = torus_distance(ya, ref, s1)
                rows.append(DriftRow(system.model, eps, seed, t,
                                     traj.energies[i], nsz, sup_i, sup_j,
                                     dist, escaped))
    return rows


# -- CSV output -------------------------------------------------------------


def write_drift_csv(rows: Sequence[DriftRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(DRIFT_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join([r.model, f17(r.eps), str(r.seed),
                               f17(r.t), f17(r.H), f17(r.norm_s),
                               f17(r.max_weighted_action_drift),
                               f17(r.max_weighted_J_drift),
                               f17(r.torus_dist), str(r.escaped)]) + "\n")


def write_frames_csv(system: ModelSystem, traj: Trajectory, path,
                     eps: float = 0.0, seed: int = 0) -> None:
    with open(path, "w") as fh:
        fh.write("model,eps,seed,t,mode,I\n")
        for i, t in enumerate(traj.times):
            for m, v in zip(traj.layout, traj.states[i]):
                fh.write(",".join([system.model, f17(eps), str(seed),
                                   f17(t),
                                   "_".join(str(c) for c in m),
                                   f17(abs(complex(v)) ** 2)]) + "\n")
