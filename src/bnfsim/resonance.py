"""Near-resonance enumeration and exceptional-pattern classification.

A frequency table and a screening threshold gamma/N^alpha split integer
combinations omega.k into small divisors (kept in the normal form) and safe
ones (eliminated).  This module enumerates the small combinations under the
order and tail constraints, classifies the structured patterns that survive
in the paired and lattice-shell models, and Monte Carlo-estimates the measure
of the violating potential set over the random ensembles.  One search
(`_dfs`) yields the candidates as int8 rows over the modes, and one accept
step (`_below`) keeps the rows under a threshold, for both jobs.

The patterns are group cancellations.  A combination, as a row of an
integer matrix K over the modes, is exceptional when it is zero on every
mode up to a cutoff and sums to zero over every group of modes beyond it:
the pairs {j, -j} (PAIR_TAIL: periodic NLW, coupled NLS) or the shells
|j|^2 = M (SHELL: NLS on the d-torus).  `classify_rows` tags a whole matrix
with one integer product K @ G against the mode -> group indicator G.

Divisor decisions agree with exactly-rounded summation: a row near the
threshold, within the rounding error of K @ w, is rechecked by `math.fsum`;
a naive left-to-right sum misclassifies there.
"""
from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .modes import Mode, f17, lattice_modes, mode_abs2, mode_str
from .poly import Monomial
from .spectra import (FrequencyTable, PotentialSample, SpectralError, _param,
                      periodic_nlw_table, sample_potential, sturm_liouville)

PATTERN_NONE = "NONE"
PATTERN_PAIR_TAIL = "PAIR_TAIL"
PATTERN_SHELL = "SHELL"

Z95 = 1.959963984540054  # two-sided 95% normal quantile

DEFAULT_NODE_CAP = 2_000_000
BRUTE_FORCE_BOX_CAP = 40_000_000  # exponent vectors the oracle may form


def omega_dot(omega: FrequencyTable, k) -> float:
    """Signed omega.k by exactly-rounded summation."""
    items = k.items() if isinstance(k, dict) else k
    return math.fsum(omega.omega_of(j) * int(c) for j, c in items if c)


def net_exponents(mono: Monomial) -> Dict[Mode, int]:
    """Net exponent k - l per mode of xi^k eta^l (zeros included)."""
    net: Dict[Mode, int] = {}
    for j, e in mono.xi:
        net[j] = net.get(j, 0) + e
    for j, e in mono.eta:
        net[j] = net.get(j, 0) - e
    return net


def small_divisor(omega: FrequencyTable, k) -> float:
    """|omega.k|; raises KeyError on modes outside the table."""
    return abs(omega_dot(omega, k))


@dataclass
class DivisorQuery:
    """Enumeration request: order |k| <= r+2, tail mass <= 2 beyond N."""
    omega: Optional[FrequencyTable]
    r: int
    N: int
    gamma: float
    alpha: float
    jmax: float
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma: must be > 0")
        if not self.alpha > 0:
            raise ValueError("alpha: must be > 0")
        if self.N < 1:
            raise ValueError("N: must be >= 1")
        if not 1 <= self.r <= 125:
            raise ValueError("r: must be in 1..125 (int8 exponents, "
                             "order r+2 <= 127)")
        if self.jmax < self.N:
            raise ValueError("jmax: must be >= N")
        if self.node_cap < 1:
            raise ValueError("node_cap: must be >= 1")

    @property
    def threshold(self) -> float:
        return self.gamma / self.N ** self.alpha


@dataclass
class ResonanceHit:
    k: Dict[Mode, int]
    value: float
    pattern: str = PATTERN_NONE

    def key(self) -> tuple:
        return tuple(sorted((j, c) for j, c in self.k.items() if c))

    def order(self) -> int:
        return sum(abs(c) for c in self.k.values())

    def serialize(self) -> str:
        return " ".join("%s:%d" % (mode_str(j), c) for j, c in self.key())


@dataclass
class EnumerationResult:
    hits: List[ResonanceHit]
    complete: bool
    nodes: int
    threshold: float = 0.0

    def keys(self) -> set:
        return {h.key() for h in self.hits}


def _domain(q: DivisorQuery) -> Tuple[list, list, list]:
    """Modes within |j| <= jmax with frequencies and tail flags."""
    if q.omega is None:
        raise ValueError("omega: required for enumeration")
    j2 = q.jmax * q.jmax
    n2 = q.N * q.N
    modes = [m for m in q.omega.modes() if mode_abs2(m) <= j2]
    w = [q.omega.omega_of(m) for m in modes]
    tail = [mode_abs2(m) > n2 for m in modes]
    return modes, w, tail


def _dfs(modes: Sequence[Mode], lo: Sequence[float], hi: Sequence[float],
         tail: Sequence[bool], order: int, threshold: float, node_cap: int
         ) -> Tuple[list, np.ndarray, bool, int]:
    """Depth-first search over exponent vectors with interval pruning.

    Each frequency lies in [lo[i], hi[i]] (point queries pass equal
    endpoints); modes are searched by decreasing max(|lo|, |hi|).  A branch
    is cut when no completion within the order budget (2 of it on the tail)
    can bring |sum| under the threshold.  Returns the modes in search order,
    the nonzero admissible leaves as int8 rows over them, complete, nodes.
    """
    idx = sorted(range(len(modes)),
                 key=lambda i: (-max(abs(lo[i]), abs(hi[i])), modes[i]))
    modes, w_lo, w_hi, is_tail = ([v[i] for i in idx]
                                  for v in (modes, lo, hi, tail))
    n = len(modes)
    sufmax = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        sufmax[i] = max(sufmax[i + 1], abs(w_lo[i]), abs(w_hi[i]))
    # prune with slack: partial sums round; leaves are rechecked exactly
    margin = 1e-9 * (1.0 + threshold + order * sufmax[0])
    assign = [0] * n
    rows = array("b")
    state = [0, True]  # nodes, complete

    def rec(i: int, m: int, tb: int, s_lo: float, s_hi: float) -> None:
        state[0] += 1
        if state[0] > node_cap:
            state[1] = False
            return
        reach = m * sufmax[i]
        lo, hi = s_lo - reach, s_hi + reach
        mindiv = lo if lo > 0.0 else (-hi if hi < 0.0 else 0.0)
        if mindiv > threshold + margin:
            return
        if i == n:
            if m < order:  # some exponent is nonzero
                rows.fromlist(assign)
            return
        cap = min(m, tb) if is_tail[i] else m
        wl, wh = w_lo[i], w_hi[i]
        for e in range(-cap, cap + 1):
            if e == 0:
                lo2, hi2 = s_lo, s_hi
            elif e > 0:
                lo2, hi2 = s_lo + e * wl, s_hi + e * wh
            else:
                lo2, hi2 = s_lo + e * wh, s_hi + e * wl
            assign[i] = e
            rec(i + 1, m - abs(e), tb - (abs(e) if is_tail[i] else 0),
                lo2, hi2)
            if not state[1]:
                break
        assign[i] = 0

    rec(0, order, 2, 0.0, 0.0)
    K = np.frombuffer(rows, dtype=np.int8).reshape(len(rows) // max(n, 1), n)
    return modes, K, state[1], state[0]


def _below(div: np.ndarray, K: np.ndarray, wv: np.ndarray, thr: float,
           order: int) -> np.ndarray:
    """Mask of the rows k of K with |wv.k| < thr, given div = K @ wv.

    With |k| <= order the product is off the exactly-rounded sum by less
    than (n + 1) eps order max|wv| over n columns; rows within twice that
    of thr are decided by `math.fsum`, as `omega_dot` decides them.
    """
    a = np.abs(div)
    live = a < thr
    band = 2 * (len(wv) + 1) * np.finfo(float).eps * order * \
        np.max(np.abs(wv), initial=0.0)
    for ri in np.flatnonzero(np.abs(a - thr) <= band):
        nz = np.flatnonzero(K[ri])
        live[ri] = abs(math.fsum(wv[nz] * K[ri, nz])) < thr
    return live


def enumerate_near_resonances(q: DivisorQuery) -> EnumerationResult:
    """All k with 0 < |k| <= r+2, tail mass <= 2, |omega.k| < gamma/N^alpha.

    Branch-and-bound over frequencies sorted by size; the returned list is
    canonically sorted, so it does not depend on the search order.  A node
    budget overrun is reported through the complete flag, never silently.
    """
    modes, w, tail = _domain(q)
    thr, order = q.threshold, q.r + 2
    modes, K, complete, nodes = _dfs(modes, w, w, tail, order, thr,
                                     q.node_cap)
    wv = q.omega.vector(modes)
    hits: List[ResonanceHit] = []
    for row in K[_below(K @ wv, K, wv, thr, order)]:
        pairs = [(modes[i], int(row[i])) for i in np.flatnonzero(row)]
        hits.append(ResonanceHit(dict(pairs), omega_dot(q.omega, pairs)))
    hits.sort(key=ResonanceHit.key)
    return EnumerationResult(hits, complete, nodes, thr)


def enumerate_brute_force(q: DivisorQuery) -> EnumerationResult:
    """Exhaustive reference enumeration over the full exponent box.

    Only the defining constraints are applied, so this shares no pruning
    logic with the branch-and-bound search; intended as a test oracle on
    small domains.
    """
    modes, w, tail = _domain(q)
    n = len(modes)
    R = q.r + 2
    width = 2 * R + 1
    if width ** n > BRUTE_FORCE_BOX_CAP:
        raise ValueError("brute-force box %d^%d exceeds cap" % (width, n))
    grids = np.meshgrid(*([np.arange(-R, R + 1)] * n), indexing="ij")
    K = np.stack([g.ravel() for g in grids], axis=1)
    a = np.abs(K)
    order = a.sum(axis=1)
    keep = (order > 0) & (order <= R)
    tcols = [i for i in range(n) if tail[i]]
    if tcols:
        keep &= a[:, tcols].sum(axis=1) <= 2
    K = K[keep]
    wv = np.asarray(w)
    div = K @ wv
    thr = q.threshold
    # wide pre-filter, then exactly-rounded recheck on the borderline
    slack = 64 * np.finfo(float).eps * R * (np.max(np.abs(wv)) if n else 0.0)
    near = np.abs(div) < thr + slack
    hits = []
    for row in K[near]:
        pairs = [(modes[i], int(row[i])) for i in range(n) if row[i]]
        value = omega_dot(q.omega, pairs)
        if abs(value) < thr:
            hits.append(ResonanceHit(dict(pairs), value))
    hits.sort(key=ResonanceHit.key)
    return EnumerationResult(hits, True, int(K.shape[0]), thr)


# -- exceptional patterns ------------------------------------------------


def _exception_rule(model: str, params: dict) -> Tuple[str, float]:
    """(pattern, cutoff) of a model's exceptional-resonance rule."""
    tag = model.lower()
    if tag == "nlw_periodic":
        return PATTERN_PAIR_TAIL, params["b"] * math.log(params["N"])
    if tag == "nls_coupled":
        return PATTERN_PAIR_TAIL, params.get("C", 1.0) * params["N"] ** \
            math.sqrt(2.0 * params["alpha"])
    if tag == "pair":
        return PATTERN_PAIR_TAIL, params.get("cutoff", 0.0)
    if tag in ("nls_dd", "convolution_d", "shell"):
        m = params.get("m_decay", params.get("decay"))
        if m is None:
            raise ValueError("m_decay: required for shell classification")
        return PATTERN_SHELL, params["N"] ** math.sqrt(params["alpha"] / m)
    raise ValueError("unknown model tag %r" % model)


def classify_rows(K: np.ndarray, modes: Sequence[Mode],
                  rules: Sequence[Tuple[str, float]]) -> np.ndarray:
    """Tag of each row of K (one column per mode): the pattern of the first
    rule (pattern, cutoff) whose group sums all vanish, else NONE.  Each mode
    with |j| <= cutoff is a group of its own; beyond it the groups are the
    shells for SHELL and the pairs {j, -j} for PAIR_TAIL, where a mode
    without its partner among the columns (or the zero mode) stands alone.
    An empty row takes the first rule's pattern."""
    tags = np.full(len(K), PATTERN_NONE, dtype=object)
    open_rows = np.ones(len(K), dtype=bool)
    for pattern, cutoff in rules:
        c2 = cutoff * cutoff
        groups: Dict[object, int] = {}
        col = []
        for i, j in enumerate(modes):
            a2 = mode_abs2(j)
            if a2 <= c2:
                key = ("alone", i)
            elif pattern == PATTERN_SHELL:
                key = a2
            else:
                key = min(j, tuple(-c for c in j))
            col.append(groups.setdefault(key, len(groups)))
        G = np.zeros((len(modes), len(groups)), dtype=np.int64)
        G[np.arange(len(modes)), col] = 1
        match = open_rows & ~np.any(K @ G, axis=1)
        tags[match] = pattern
        open_rows &= ~match
    return tags


def classify_exception(hit, model: str, params: dict) -> str:
    """Pattern tag for a hit under a model's exceptional-resonance rule.

    nlw_periodic: pair cancellation beyond b*ln(N).
    nls_coupled:  pair cancellation beyond C*N^sqrt(2*alpha).
    pair:         pair cancellation beyond an explicit cutoff (default 0).
    nls_dd / convolution_d / shell: zero shell sums beyond N^sqrt(alpha/m).
    """
    k = dict(hit.k) if isinstance(hit, ResonanceHit) else dict(hit)
    row = np.array(list(k.values()), dtype=np.int64).reshape(1, len(k))
    return classify_rows(row, list(k), [_exception_rule(model, params)])[0]


@dataclass
class PairCalibration:
    b: float
    j_cutoff: int
    gap_threshold: float
    worst_gap_beyond: float


def calibrate_pair_cutoff(table: FrequencyTable, gamma: float, alpha: float,
                          N: int) -> PairCalibration:
    """Smallest b with |omega_j - omega_{-j}| < gamma/(2 N^alpha) past b*lnN.

    Scans the pairs present in the (finite) table; modes beyond it are out
    of the model by construction.
    """
    thr = gamma / (2.0 * N ** alpha)
    gaps = {}
    for m in table.omega:
        n = m[0]
        if len(m) == 1 and n > 0 and (-n,) in table.omega:
            gaps[n] = abs(table.omega[m] - table.omega[(-n,)])
    j_cut = 0
    for n in sorted(gaps):
        if gaps[n] >= thr:
            j_cut = n
    beyond = [g for n, g in gaps.items() if n > j_cut]
    worst = max(beyond) if beyond else 0.0
    if j_cut == 0:
        b = 0.0
    elif N > 1:
        b = j_cut / math.log(N)
    else:
        raise ValueError("N: cannot place a b*ln(N) cutoff at N=1 "
                         "with near-degeneracy failing at j=%d" % j_cut)
    return PairCalibration(b, j_cut, thr, worst)


def normal_form_membership(mono: Monomial, omega: FrequencyTable,
                           gamma: float, alpha: float, N: int) -> bool:
    """Small divisor within threshold and at most two tail exponents.

    The boundary |omega.(k-l)| == gamma/N^alpha counts as a member: the
    normalization keeps boundary terms rather than dividing by a minimal
    divisor, and membership has to agree with that split.
    """
    div = abs(omega_dot(omega, net_exponents(mono)))
    return div <= gamma / N ** alpha and mono.tail_degree(N) <= 2


# -- Monte Carlo measure of the violating set ----------------------------


@dataclass
class MeasureEstimate:
    gamma: float
    threshold: float
    samples: int
    skipped: int
    violations: int
    fraction: float
    wilson_low: float
    wilson_high: float
    half_width: float
    pattern_histogram: Dict[str, int] = field(default_factory=dict)
    complete: bool = True


def wilson_interval(v: int, n: int) -> Tuple[float, float, float]:
    if n <= 0:
        return 0.0, 1.0, 0.5
    p = v / n
    z2 = Z95 * Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    hw = Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return center - hw, center + hw, hw


def sample_seeds(seed: int, samples: int) -> List[int]:
    """Named per-sample sub-streams of a single master seed."""
    return [int(np.random.SeedSequence(entropy=seed, spawn_key=(i,))
                .generate_state(1)[0]) for i in range(samples)]


def _measure_rules(family: str, params: dict, q: DivisorQuery,
                   table: Optional[FrequencyTable], gamma: float) -> list:
    """Exception rules of a measure family, in priority order."""
    if family == "convolution_d":
        # the real-symmetric coefficient slice makes omega_k = omega_{-k}
        # exactly, so pure pair cancellations are degenerate by
        # construction and exempted at any index; SHELL wins over them
        return [_exception_rule("shell", {
            "N": q.N, "alpha": q.alpha, "m_decay": _param(params, "decay")}),
            (PATTERN_PAIR_TAIL, 0.0)]
    if family == "nlw_periodic":
        b = params.get("b")
        if b is None:
            b = calibrate_pair_cutoff(table, gamma, q.alpha, q.N).b
        return [_exception_rule("nlw_periodic", {"b": b, "N": q.N})]
    return []


def _family_table(family: str, sample: PotentialSample,
                  q: DivisorQuery) -> FrequencyTable:
    f = family.lower()
    if f == "nlw_periodic":
        return periodic_nlw_table(sample, int(q.jmax))[0]
    if f == "nls_cosine":
        res = sturm_liouville(sample, "dirichlet", int(q.jmax))
        om = {(j,): float(res.lams[j - 1]) for j in range(1, int(q.jmax) + 1)}
        return FrequencyTable("nls_dirichlet", om)
    raise ValueError("unknown family %r" % family)


def _convolution_candidates(params: dict, q: DivisorQuery, gamma_max: float
                            ) -> Tuple[list, np.ndarray, bool]:
    """Exponent vectors that can be hits for SOME potential in the ensemble.

    Frequencies are intervals |k|^2 +- envelope(k); one interval search
    covers every sample, after which per-sample divisors are plain dot
    products.
    """
    modes = lattice_modes(_param(params, "d", int), q.jmax)
    probe = PotentialSample(family="convolution_d", params=params, seed=0,
                            coeffs={}, mass=0.0)
    base = [float(mode_abs2(m)) for m in modes]
    env = [probe.envelope(m) for m in modes]
    modes, K, complete, _ = _dfs(
        modes, [b - e for b, e in zip(base, env)],
        [b + e for b, e in zip(base, env)],
        [mode_abs2(m) > q.N * q.N for m in modes], q.r + 2,
        gamma_max / q.N ** q.alpha, q.node_cap)
    # float64, exact for these small integers: every sample's divisors are
    # one product K @ wv, which an integer K would cast on each call
    return modes, K.astype(float), complete


def measure_scan(family: str, params: dict, q: DivisorQuery,
                 gammas: Sequence[float], samples: int, seed: int
                 ) -> List[MeasureEstimate]:
    """Violation fraction per gamma over one shared set of sampled potentials.

    A sample violates at gamma when it has any hit classified NONE.  Reusing
    the same potentials across the grid makes the fraction exactly
    nonincreasing in gamma.
    """
    if samples < 30:
        raise ValueError("samples: must be >= 30")
    f = family.lower()
    gammas = sorted(gammas, reverse=True)
    seeds = sample_seeds(seed, samples)
    thrs = [g / q.N ** q.alpha for g in gammas]
    violations = [0] * len(gammas)
    hist: List[Counter] = [Counter() for _ in gammas]
    skipped = 0
    complete = True
    table = None
    if f == "convolution_d":
        # one interval search covers every sample: each sample only
        # re-weights the fixed candidate matrix
        modes, K, complete = _convolution_candidates(params, q, gammas[0])

    for s in seeds:
        sample = sample_potential(f, params, s)
        if f == "convolution_d":
            wv = np.array([mode_abs2(m) + sample.coeffs.get(m, 0.0)
                           for m in modes])
        else:
            try:
                table = _family_table(f, sample, q)
            except SpectralError:
                skipped += 1
                continue
            modes, w, tail = _domain(replace(q, omega=table))
            modes, K, ok, _ = _dfs(modes, w, w, tail, q.r + 2, thrs[0],
                                   q.node_cap)
            complete = complete and ok
            wv = table.vector(modes)
        div = K @ wv
        for gi, thr in enumerate(thrs):
            live = _below(div, K, wv, thr, q.r + 2)
            if not live.any():
                continue
            tags = classify_rows(K[live], modes, _measure_rules(
                f, params, q, table, gammas[gi]))
            hist[gi].update(tags.tolist())
            violations[gi] += bool(np.any(tags == PATTERN_NONE))

    n_eff = samples - skipped
    out = []
    for gi, g in enumerate(gammas):
        lo, hi, hw = wilson_interval(violations[gi], n_eff)
        out.append(MeasureEstimate(
            gamma=g, threshold=thrs[gi], samples=samples, skipped=skipped,
            violations=violations[gi],
            fraction=violations[gi] / n_eff if n_eff else 0.0,
            wilson_low=lo, wilson_high=hi, half_width=hw,
            pattern_histogram=dict(hist[gi]), complete=complete))
    return out


def measure_estimate(family: str, params: dict, q: DivisorQuery,
                     samples: int, seed: int) -> MeasureEstimate:
    return measure_scan(family, params, q, [q.gamma], samples, seed)[0]


# -- CSV -----------------------------------------------------------------


def write_hits_csv(result: EnumerationResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k_serialized", "divisor", "pattern"])
        for h in result.hits:
            w.writerow([h.serialize(), f17(h.value), h.pattern])


def write_measure_csv(estimates: Iterable[MeasureEstimate], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "threshold", "samples", "skipped", "violations",
                    "fraction", "wilson_low", "wilson_high", "patterns",
                    "complete"])
        for e in estimates:
            pats = ";".join("%s:%d" % (k, v)
                            for k, v in sorted(e.pattern_histogram.items()))
            w.writerow([f17(e.gamma), f17(e.threshold), e.samples,
                        e.skipped, e.violations, f17(e.fraction),
                        f17(e.wilson_low), f17(e.wilson_high), pats,
                        int(e.complete)])
