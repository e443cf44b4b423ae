"""Test-only operations on polynomials and divisors.

The package never calls these; the tests use them to state and check the
package's results from their definitions.
"""
import itertools
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from bnfsim import dynamics as D
from bnfsim import resonance
from bnfsim.fields import (FieldTable, QuadratureField, _column_product,
                           _row_blocks, _work_matrix, eta_gradient_table)
from bnfsim.modes import (as_mode, f17, in_ball, lattice_modes, mode_abs,
                          mode_abs2, mode_str, weight)
from bnfsim.norms import majorant_norm
from bnfsim.exact import GaussRat
from bnfsim.poly import PRUNE_REL, Polynomial, _state, monomial
from bnfsim.resonance import (DivisorQuery, EnumerationResult, ResonanceHit,
                               _domain, omega_dot)
from bnfsim.spectra import (CONVOLUTION_D, NLW_PERIODIC, EigenBasis,
                            ExpansionFit, FrequencyTable, PotentialSample,
                            SpectralError, _cosine_coeffs, _param, _solve,
                            mode_eigenvalues, sample_potential)


class Monomial(tuple):
    """An exponent pattern xi^k eta^l, the key of a polynomial's terms: the
    tuple (degree, xi, eta), whose order is by degree, then xi, then eta.

    `xi` and `eta` are sorted tuples of (mode, exponent) pairs with
    positive integer exponents.  It compares and hashes as the plain tuple,
    so it looks up the keys of `Polynomial.terms`.
    """

    __slots__ = ()

    def __new__(cls, xi=(), eta=()):
        # a mapping's pairs are sorted and its zero exponents dropped
        xi, eta = (tuple((as_mode(m), int(e)) for m, e in (
            sorted((m, e) for m, e in x.items() if e) if isinstance(x, dict)
            else x)) for x in (xi, eta))
        if any(e <= 0 for _, e in xi + eta):
            raise ValueError("exponents must be positive")
        return tuple.__new__(cls, (sum(e for _, e in xi + eta), xi, eta))

    def __getnewargs__(self):
        """pickle and deepcopy rebuild a key as Monomial(xi, eta)."""
        return self[1], self[2]

    degree = property(itemgetter(0))
    xi = property(itemgetter(1))
    eta = property(itemgetter(2))

    def flip(self) -> "Monomial":
        """Swap the xi and eta exponent patterns."""
        return tuple.__new__(Monomial, (self[0], self[2], self[1]))

    def __repr__(self):
        parts = ["xi[%s]^%d" % (mode_str(m), e) for m, e in self.xi]
        parts += ["eta[%s]^%d" % (mode_str(m), e) for m, e in self.eta]
        return " ".join(parts) if parts else "1"


def terms(p: Polynomial) -> dict:
    """p's {Monomial: coefficient} terms, in term order."""
    return {tuple.__new__(Monomial, k): c for k, c in p.terms.items()}


def poly_of(mapping: dict) -> Polynomial:
    """The polynomial of a {Monomial: coefficient} mapping, its terms in
    the mapping's order, pruned as `Polynomial` prunes."""
    mapping = dict(mapping)
    return Polynomial.from_entries(*_state(
        [(t, part, m, e) for t, k in enumerate(mapping) for part in (0, 1)
         for m, e in k[1 + part]], list(mapping.values())))


def xi(j, coeff=1.0) -> Polynomial:
    return monomial(coeff, xi={as_mode(j): 1})


def eta(j, coeff=1.0) -> Polynomial:
    return monomial(coeff, eta={as_mode(j): 1})


def action(j, coeff=1.0) -> Polynomial:
    """The action monomial I_j = xi_j eta_j."""
    return monomial(coeff, xi={j: 1}, eta={j: 1})


def domain(q: DivisorQuery) -> tuple:
    """`resonance._domain` with its modes' frequencies: (modes, w, tail)."""
    modes, tail = _domain(q)
    return modes, [q.omega.omega_of(m) for m in modes], tail


def small_divisor(omega, k) -> float:
    """|omega.k|; raises KeyError on modes outside the table."""
    return abs(omega_dot(omega, k))


def allclose(p: Polynomial, q: Polynomial, tol: float = 1e-12) -> bool:
    return (p - q).l1() <= tol


def conj_flip(p: Polynomial) -> Polynomial:
    """conj(c_{kl}) attached to xi^l eta^k; equals p iff real-flagged."""
    return poly_of({m.flip(): c.conjugate() for m, c in terms(p).items()})


def momentum(mono: Monomial) -> tuple:
    """Total momentum sum k_j j - sum l_j j of xi^k eta^l, a term at a time;
    () for the constant."""
    d = max((len(m) for m, _ in mono.xi + mono.eta), default=0)
    mom = [0] * d
    for m, e in mono.xi:
        for i, c in enumerate(m):
            mom[i] += c * e
    for m, e in mono.eta:
        for i, c in enumerate(m):
            mom[i] -= c * e
    return tuple(mom)


def tail_degree(mono: Monomial, cutoff: float) -> int:
    """Total exponent mass carried by modes with |j| > cutoff, outside the
    package's ball (`modes.in_ball`)."""
    return sum(e for m, e in mono.xi + mono.eta if not in_ball(m, cutoff))


def momentum_filter(p: Polynomial) -> Polynomial:
    """Zero-total-momentum part of the polynomial."""
    return p.filter([not any(momentum(m)) for m in terms(p)])


def net_exponents(mono: Monomial) -> dict:
    """Net exponent k - l per mode of xi^k eta^l (zeros included)."""
    net = {}
    for j, e in mono.xi:
        net[j] = net.get(j, 0) + e
    for j, e in mono.eta:
        net[j] = net.get(j, 0) - e
    return net


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    xk = dict(a.xi)
    for m, e in b.xi:
        xk[m] = xk.get(m, 0) + e
    ek = dict(a.eta)
    for m, e in b.eta:
        ek[m] = ek.get(m, 0) + e
    return Monomial(xk, ek)


def product(p: Polynomial, q: Polynomial) -> Polynomial:
    """The polynomial product p q, accumulated term pair by term pair."""
    acc, q_terms = {}, terms(q).items()
    for m1, c1 in terms(p).items():
        for m2, c2 in q_terms:
            _accum(acc, mono_mul(m1, m2), c1 * c2)
    return poly_of(acc)


# The term operations as the dict code they were before a polynomial became
# arrays: each gives the {Monomial: coefficient} dict the operation built,
# pruned, and `Polynomial` must hold the same terms, coefficient bits and
# order.


def _accum(acc: dict, mono: Monomial, c):
    cur = acc.get(mono)
    acc[mono] = c if cur is None else cur + c


def prune_reference(terms: dict) -> dict:
    if not terms:
        return {}
    if isinstance(next(iter(terms.values())), GaussRat):
        return {m: c for m, c in terms.items() if c}
    top = max(abs(c) for c in terms.values())
    if top == 0.0:
        return {}
    thr = PRUNE_REL * top
    return {m: complex(c) for m, c in terms.items() if abs(c) > thr}


def monomial_reference(coeff, xi=(), eta=()) -> Polynomial:
    """`poly.monomial` as it was: one Monomial key, through the dict
    constructor (`poly_of`)."""
    xd, ed = ({as_mode(m): e for m, e in (x.items() if isinstance(x, dict)
                                          else x)} for x in (xi, eta))
    return poly_of({Monomial(xd, ed): coeff})


def quadratic_diagonal_reference(freqs: dict) -> Polynomial:
    """`poly.quadratic_diagonal` as it was: a Monomial per mode, sorted."""
    norm = {as_mode(k): v for k, v in freqs.items()}
    return poly_of({Monomial({j: 1}, {j: 1}): norm[j]
                       for j in sorted(norm)})


def exps_text(pairs) -> str:
    """(mode, exponent) pairs as the text form's `mode:exponent` tokens."""
    return " ".join("%s:%d" % (mode_str(m), e) for m, e in pairs)


def to_text_reference(p: Polynomial, hexfloat: bool = False) -> str:
    """`poly.to_text` as it was: the sorted Monomial keys, a line each."""
    def fmt(x: float) -> str:
        return x.hex() if hexfloat else repr(x)
    return "".join("%s %s | %s | %s\n" % (fmt(c.real), fmt(c.imag),
                                          exps_text(m.xi), exps_text(m.eta))
                   for m, c in sorted(terms(p).items()))


def repr_reference(p: Polynomial) -> str:
    """`Polynomial.__repr__` as it was: the first 8 terms by sorted
    Monomial key."""
    if not p:
        return "Polynomial(0)"
    bits = ["(%r)*%r" % (c, m) for m, c in sorted(terms(p).items())]
    return "Polynomial[" + " + ".join(bits[:8]) \
        + (" ..." if len(bits) > 8 else "") + "]"


def term_key_reference(mono: Monomial) -> str:
    """The membership key of a term as it was: xi tokens|eta tokens."""
    return exps_text(mono.xi) + "|" + exps_text(mono.eta)


def add_reference(p: Polynomial, q: Polynomial) -> dict:
    acc = dict(terms(p))
    for mono, c in terms(q).items():
        _accum(acc, mono, c)
    return prune_reference(acc)


def scale_reference(p: Polynomial, a) -> dict:
    return prune_reference({m: a * c for m, c in terms(p).items()})


def filter_reference(p: Polynomial, pred) -> dict:
    return prune_reference({m: c for m, c in terms(p).items() if pred(m)})


def tail_split_reference(p: Polynomial, cutoff: float) -> tuple:
    parts: tuple = ({}, {})
    for m, c in terms(p).items():
        parts[tail_degree(m, cutoff) > 2][m] = c
    return tuple(prune_reference(d) for d in parts)


def reality_defect_reference(p: Polynomial) -> float:
    d = 0.0
    for m, c in terms(p).items():
        d = max(d, abs(c.conjugate() - p.terms.get(m.flip(), 0.0)))
    return d


def _deriv(p: Polynomial, mode, wrt_xi: bool) -> Polynomial:
    mode = as_mode(mode)
    acc = {}
    for mono, c in terms(p).items():
        d = dict(mono.xi if wrt_xi else mono.eta)
        e = d.get(mode, 0)
        if e == 0:
            continue
        if e == 1:
            del d[mode]
        else:
            d[mode] = e - 1
        new = Monomial(d, mono.eta) if wrt_xi else Monomial(mono.xi, d)
        _accum(acc, new, c * e)
    return poly_of(acc)


def d_xi(p: Polynomial, mode) -> Polynomial:
    return _deriv(p, mode, True)


def d_eta(p: Polynomial, mode) -> Polynomial:
    return _deriv(p, mode, False)


def evaluate(p: Polynomial, xi_map: dict, eta_map: dict):
    """Evaluate at a point; missing modes count as zero, and a term with a
    zero factor is skipped."""
    xm = {as_mode(k): v for k, v in xi_map.items()}
    em = {as_mode(k): v for k, v in eta_map.items()}
    tot = 0.0
    for mono, c in terms(p).items():
        zs = [(xm.get(m, 0.0), e) for m, e in mono.xi] + \
            [(em.get(m, 0.0), e) for m, e in mono.eta]
        if all(z != 0.0 for z, _ in zs):
            v = c
            for z, e in zs:
                v = v * z ** e
            tot = tot + v
    return tot


def evaluate_real_slice(p: Polynomial, xi_map: dict):
    """Evaluate on eta = conj(xi)."""
    return evaluate(p, xi_map, {k: v.conjugate() for k, v in xi_map.items()})


# The Poisson bracket and its overflow as the term-pair loops they were
# before the contractions were taken as arrays; `poly.poisson_bracket` and
# `poly.bracket_overflow` must give the same polynomials and masses, to the
# bit and in the same dict order.


def poisson_bracket_reference(f: Polynomial, g: Polynomial,
                              cap: Optional[int] = None) -> Polynomial:
    """{f, g}, one Monomial per contribution, accumulated into a dict in
    pair order: f's terms, g's terms, the eta contractions, then the xi
    ones, each by mode."""
    acc, g_terms = {}, terms(g).items()
    for mf, cf in terms(f).items():
        fxi = dict(mf.xi)
        feta = dict(mf.eta)
        room = None if cap is None else cap + 2 - mf.degree
        for mg, cg in g_terms:
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
    return poly_of(acc)


def times_i(c):
    return c.times_i() if isinstance(c, GaussRat) else 1j * c


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


def bracket_overflow_reference(f: Polynomial, g: Polynomial,
                               cap: int) -> float:
    """`poly.bracket_overflow` from per-degree dicts of exponent masses."""
    def mass(p):
        out = {}
        for mono, c in terms(p).items():
            a = abs(c)
            xs, es = out.setdefault(mono.degree, ({}, {}))
            for m, e in mono.xi:
                xs[m] = xs.get(m, 0.0) + a * e
            for m, e in mono.eta:
                es[m] = es.get(m, 0.0) + a * e
        return out

    tot = 0.0
    for df, (fxi, feta) in mass(f).items():
        for dg, (gxi, geta) in mass(g).items():
            if df + dg - 2 > cap:
                tot += sum(a * gxi.get(m, 0.0) for m, a in feta.items())
                tot += sum(a * geta.get(m, 0.0) for m, a in fxi.items())
    return tot


BRUTE_FORCE_BOX_CAP = 40_000_000  # exponent vectors the oracle may form


def enumerate_brute_force(q: DivisorQuery) -> EnumerationResult:
    """Exhaustive reference enumeration over the full exponent box.

    Only the defining constraints are applied, so this shares no pruning
    logic with the branch-and-bound search; a test oracle on small domains.
    """
    modes, w, tail = domain(q)
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


def below_reference(div: np.ndarray, K: np.ndarray, W: np.ndarray,
                    thr: float, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Entries (i, s), in row-major order, with |K[i] . W[:, s]| < thr,
    given div = K @ W.

    With |k| <= order the product is off the exactly-rounded sum by less
    than (n + 1) eps order max|w| over n columns; entries within twice that
    of thr, with each column's own max|w|, are decided by `math.fsum`, as
    `omega_dot` decides them.
    """
    band = 2 * (len(W) + 1) * np.finfo(float).eps * order * \
        np.max(np.abs(W), axis=0, initial=0.0)
    ri, si = np.nonzero(np.abs(div) < thr + band)
    a = np.abs(div[ri, si])
    keep = a < thr
    for e in np.flatnonzero(np.abs(a - thr) <= band[si]):
        nz = np.flatnonzero(K[ri[e]])
        keep[e] = abs(math.fsum(W[nz, si[e]] * K[ri[e], nz])) < thr
    return ri[keep], si[keep]


def below_rows(div: np.ndarray, K: np.ndarray, W: np.ndarray, thrs,
               order: int) -> list:
    """`resonance._below` on |div|, div = K @ W up to rounding, with every
    row of K its own group row: per threshold, its group and member
    entries as one list of entries (i, s) in row-major order."""
    out = []
    for (g, s), (m, ms) in resonance._below(np.abs(div), K,
                                            np.arange(len(K)), W, thrs,
                                            order):
        ri, si = np.concatenate([g, m]), np.concatenate([s, ms])
        at = np.lexsort((si, ri))
        out.append((ri[at], si[at]))
    return out


def pattern_tags(K: np.ndarray, modes, rules) -> np.ndarray:
    """The tag of each row of K under the rules (pattern, cutoff), by name:
    the PATTERNS entry of its `apply_rules` code under `compile_rules`."""
    codes = resonance.apply_rules(K, resonance.compile_rules(modes, rules))
    return np.array(resonance.PATTERNS, dtype=object)[codes]


def enumerate_mode_level(q: DivisorQuery, rules=()) -> EnumerationResult:
    """`resonance.enumerate_near_resonances` as it searched the modes: `_dfs`
    over every mode of the table, `_below` on K @ W, then both signs of
    each hit tagged under the rules; sorted canonically."""
    modes, w, tail = domain(q)
    thr, order = q.threshold, q.r + 2
    modes, K, complete, nodes = resonance._dfs(modes, w, w, tail, order, thr,
                                               q.node_cap)
    W = q.omega.vector(modes)[:, None]
    K = K[below_rows(K @ W, K, W, [thr], order)[0][0]]
    K = np.concatenate([K, -K])
    hits = []
    for row, tag in zip(K, pattern_tags(K, modes, rules)):
        pairs = [(modes[i], int(row[i])) for i in np.flatnonzero(row)]
        hits.append(ResonanceHit(dict(pairs), omega_dot(q.omega, pairs), tag))
    hits.sort(key=ResonanceHit.key)
    return EnumerationResult(hits, complete, nodes, thr)


def convolution_sample_reference(params: dict, seed: int) -> PotentialSample:
    """The convolution_d draw one mode at a time, as `sample_potential` took
    it before its draws were columns: one uniform call on the seed's stream
    over the half-lattice k <= -k, then v_k = v_{-k} = R u_k / (1+|k|)^decay
    in Python floats, pair by pair."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = _param(params, "R")
    d, kmax = _param(params, "d", int), _param(params, "kmax", int)
    decay = _param(params, "decay")
    half = [k for k in lattice_modes(d, kmax) if k <= tuple(-c for c in k)]
    coeffs = {}
    for k, u in zip(half, rng.uniform(-0.5, 0.5, len(half)).tolist()):
        coeffs[k] = coeffs[tuple(-c for c in k)] = \
            r * u / (1.0 + mode_abs(k)) ** decay
    return PotentialSample(CONVOLUTION_D, dict(params), seed, coeffs)


def envelope(sample: PotentialSample, k) -> float:
    """Bound guaranteed for |v_k| by the sample family's envelope."""
    p = sample.params
    r = _param(p, "R")
    if sample.family == CONVOLUTION_D:
        return 0.5 * r / (1.0 + mode_abs(k)) ** _param(p, "decay")
    return 0.5 * r * math.exp(-_param(p, "sigma") * abs(k))


def envelope_candidates(params: dict, q: DivisorQuery, gamma_max: float
                        ) -> Tuple[list, np.ndarray, bool, int]:
    """`_dfs` over the convolution_d ensemble's frequency intervals
    |k|^2 +- envelope(k): the exponent vectors that can be hits at gamma_max
    for SOME potential of the ensemble, one sign of each pair +-k, as int8
    rows, with the search's complete and nodes.  It pins the tree search:
    its emission order, node count and independence of the block size."""
    modes = lattice_modes(_param(params, "d", int), q.jmax)
    probe = PotentialSample(CONVOLUTION_D, params, 0, {})
    base = [float(mode_abs2(m)) for m in modes]
    env = [envelope(probe, m) for m in modes]
    return resonance._dfs(modes, [b - e for b, e in zip(base, env)],
                          [b + e for b, e in zip(base, env)],
                          [mode_abs2(m) > q.N * q.N for m in modes], q.r + 2,
                          gamma_max / q.N ** q.alpha, q.node_cap)


@dataclass
class PerSampleScan:
    violations: list
    pattern_histogram: list
    skipped: int
    complete: bool
    nodes: int


def measure_scan_per_sample(family: str, params: dict, q: DivisorQuery,
                            gammas: Sequence[float], samples: int, seed: int
                            ) -> PerSampleScan:
    """The measure scan one sample at a time, as the 1-d families once ran
    it: each sample's table (a SpectralError skips it) is searched on its
    own at the largest gamma, its rows are decided on its own column, and
    its hits under each gamma are tagged with that (gamma, table)'s
    exception rules.  Tables are built through the `resonance` module's
    names, so a test that patches them there patches both routes."""
    gammas = sorted(gammas, reverse=True)
    thrs = [g / q.N ** q.alpha for g in gammas]
    order = q.r + 2
    viol = [0] * len(gammas)
    hists = [{} for _ in gammas]
    skipped = nodes = 0
    complete = True
    for s in resonance.sample_seeds(seed, samples):
        sample = sample_potential(family, params, s)
        try:
            if family == NLW_PERIODIC:
                table = resonance.periodic_nlw_table(sample, int(q.jmax))[0]
            else:
                table = FrequencyTable(mode_eigenvalues(
                    resonance.sturm_liouville(sample, "dirichlet",
                                              int(q.jmax))))
        except SpectralError:
            skipped += 1
            continue
        modes, w, tail = domain(replace(q, omega=table))
        modes, K, ok, n = resonance._dfs(modes, w, w, tail, order, thrs[0],
                                         q.node_cap)
        complete, nodes = complete and ok, nodes + n
        W = table.vector(modes)[:, None]
        found = below_rows(K @ W, K, W, thrs, order)
        for gi, (ri, _) in enumerate(found):
            rules = resonance.family_rules(family, params, q, table,
                                           gammas[gi])
            tags = pattern_tags(K[ri], modes, rules).tolist()
            for tag in tags:  # row k stands for the pair +-k
                hists[gi][tag] = hists[gi].get(tag, 0) + 2
            viol[gi] += resonance.PATTERN_NONE in tags
    return PerSampleScan(viol, hists, skipped, complete, nodes)


def tally_reference(K: np.ndarray, modes, W: np.ndarray, thrs, order: int,
                    rule_sets, rule_of: np.ndarray, violates: np.ndarray,
                    hist: list) -> None:
    """`tally_shared_rows` without its shared rows: every row of K takes its
    own product with W, a block of rows at a time, and is decided on it.

    Row k stands for the pair +-k, so it counts twice.  At threshold
    thrs[g] a hit under column s is tagged under the rules
    rule_sets[rule_of[g, s]]; the tags go to hist[g], and a NONE hit sets
    violates[g, s]."""
    step = max(1, resonance.SCAN_BLOCK_BYTES // (8 * (K.shape[1]
                                                       + W.shape[1])))
    for lo in range(0, len(K), step):
        Kb = K[lo:lo + step].astype(float)
        found = below_rows(Kb @ W, Kb, W, thrs, order)
        live = np.unique(np.concatenate([ri for ri, _ in found]))
        tags = np.stack([pattern_tags(Kb[live], modes, rules)
                         for rules in rule_sets])
        for gi, (ri, si) in enumerate(found):
            hit = tags[rule_of[gi, si], np.searchsorted(live, ri)]
            for tag in hit.tolist():
                hist[gi][tag] = hist[gi].get(tag, 0) + 2
            violates[gi, si[hit == resonance.PATTERN_NONE]] = True


def shared_rows(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One row index per distinct row of the float64 key, the first of its
    rows, and the position in that list of each row's own key.  Each pair
    of words is read as one complex128 (an odd last word pairs with 0), so
    the sort takes half as many keys, and compares them in the same order."""
    odd = np.zeros((len(key), key.shape[1] % 2))
    key = np.concatenate([key, odd], axis=1).view(np.complex128)
    at = np.lexsort(key.T[::-1])
    key = key[at]
    new = np.ones(len(at), dtype=bool)
    new[1:] = np.any(key[1:] != key[:-1], axis=1)
    share = np.empty(len(at), dtype=np.intp)
    share[at] = np.cumsum(new) - 1
    return at[new], share


def group_digits(W: np.ndarray, order: int) -> np.ndarray:
    """The key words of `tally_shared_rows`: row i of K @ group_digits packs
    the sums of row i over the groups of equal rows of W, as balanced
    base-(2 order + 1) digits, `per` to a float64 word."""
    base = 2 * order + 1
    per = 1  # the most digits with base^per < 2^52
    while base ** (per + 1) < 1 << 52:
        per += 1
    grp = np.unique(W, axis=0, return_inverse=True)[1].ravel()
    digits = np.zeros((len(W), grp.max(initial=0) // per + 1))
    digits[np.arange(len(W)), grp // per] = base ** (grp % per)
    return digits


def tally_shared_rows(K: np.ndarray, modes, W: np.ndarray, thrs, order: int,
                      rule_sets, rule_of: np.ndarray, violates: np.ndarray,
                      hist: list) -> int:
    """The mode-level measure tally: add the hits among the rows of K (a
    search over the modes) under each column (sample) of W, and return the
    number of rows whose divisors were multiplied out.

    Modes whose rows of W are equal form a group, and a row's divisors
    depend only on its group sums, which |k| <= order bounds by order.  So
    a row's key packs them as balanced base-(2 order + 1) digits, `per` to
    a float64 word, each word exact below 2^52; one row per distinct key
    in a block of rows takes the product with W, and its divisors stand
    for every row of the key in one `_below` pass.  Row k stands for the
    pair +-k, so it counts twice; tags and violations as in
    `tally_reference`."""
    digits = group_digits(W, order)
    step = max(1, resonance.SCAN_BLOCK_BYTES // (8 * (K.shape[1]
                                                       + W.shape[1])))
    compiled = [resonance.compile_rules(modes, rules) for rules in rule_sets]
    counts = np.zeros((len(thrs), len(resonance.PATTERNS)), dtype=np.int64)
    decided = 0
    for lo in range(0, len(K), step):
        Kb = K[lo:lo + step].astype(float)
        first, share = shared_rows(Kb @ digits)
        decided += len(first)
        found = below_rows((Kb[first] @ W)[share], Kb, W, thrs, order)
        live = np.unique(np.concatenate([ri for ri, _ in found]))
        codes = np.stack([resonance.apply_rules(Kb[live], c)
                          for c in compiled])
        for gi, (ri, si) in enumerate(found):
            hit = codes[rule_of[gi, si], np.searchsorted(live, ri)]
            counts[gi] += np.bincount(hit, minlength=len(resonance.PATTERNS))
            violates[gi, si[hit == 0]] = True
    for h, row in zip(hist, counts.tolist()):
        h.update({t: h.get(t, 0) + 2 * n
                  for t, n in zip(resonance.PATTERNS, row) if n})
    return decided


def scan_mode_level(modes, W: np.ndarray, tail, thrs, order: int,
                    node_cap: int, compiled) -> Tuple[bool, int, int,
                                                      Iterable]:
    """`resonance._scan` as the measure scan ran it over the modes: `_dfs`
    over every mode's box [min, max] of W, then each block of its rows
    decided in one `_below` pass on the products of its distinct key rows
    (`tally_shared_rows`), each row its own group row, listed and tagged
    under each compiled rule set; returns complete, nodes, rows and the
    blocks as `_scan`'s pieces, their rows over the modes in the given
    order."""
    found, K, complete, nodes = resonance._dfs(
        modes, W.min(axis=1).tolist(), W.max(axis=1).tolist(), tail, order,
        thrs[0], node_cap)
    at = {m: i for i, m in enumerate(found)}
    K, digits = K[:, [at[m] for m in modes]], group_digits(W, order)
    step = max(1, resonance.SCAN_BLOCK_BYTES // (8 * (K.shape[1]
                                                       + W.shape[1])))
    n = len(resonance.PATTERNS)

    def block(Kb):
        first, share = shared_rows(Kb @ digits)
        src = np.arange(len(Kb))  # every row its own group row
        codes = np.stack([resonance.apply_rules(Kb, c) for c in compiled])
        return resonance.Piece(
            Kb, src, codes, np.eye(n, dtype=np.int64)[codes],
            resonance._below(np.abs(Kb[first] @ W)[share], Kb, src, W, thrs,
                             order), len(Kb))
    return complete, nodes, len(K), map(block, (
        K[lo:lo + step] for lo in range(0, len(K), step)))


def tally_blocks(scan, modes, rule_sets, rule_of: np.ndarray,
                 violates: np.ndarray, hist: list) -> Tuple[bool, int, int]:
    """The measure tally of a `_scan` result (complete, nodes, rows, pieces),
    a tag at a time: a group entry is a hit of every member of its group
    row, and at threshold g a hit under column s is tagged under
    rule_sets[rule_of[g, s]] into hist[g], twice for +-k, and a NONE hit
    sets violates[g, s]; a piece of counted rows, which lists no member,
    adds its group rows' histograms.  Returns complete, nodes and rows."""
    complete, nodes, rows, pieces = scan
    for p in pieces:
        tags = [pattern_tags(p.Km, modes, rules) for rules in rule_sets]
        for gi, ((g, gs), (m, ms)) in enumerate(p.found):
            if not len(p.Km):
                for row, s in zip(g.tolist(), gs.tolist()):
                    h = p.hist[rule_of[gi, s], row].tolist()
                    for tag, c in zip(resonance.PATTERNS, h):
                        if c:
                            hist[gi][tag] = hist[gi].get(tag, 0) + 2 * c
                    violates[gi, s] |= h[0] > 0
                continue
            # a group entry is a hit of every member of its group row
            at = [np.flatnonzero(p.src == row) for row in g.tolist()]
            ri = np.concatenate([m] + at).astype(int)
            si = np.concatenate([ms] + [np.full(len(a), c)
                                        for a, c in zip(at, gs.tolist())])
            for r, s in zip(ri.tolist(), si.tolist()):
                tag = tags[rule_of[gi, s]][r]
                hist[gi][tag] = hist[gi].get(tag, 0) + 2
                violates[gi, s] |= tag == resonance.PATTERN_NONE
    return complete, nodes, rows


def split_counts_reference(m: int, order: int) -> np.ndarray:
    """`resonance._split_counts` by listing: every integer vector over m
    modes with |v|_1 <= order + 2 (order // 2), tallied by its sum t and
    half-cost c = (|v|_1 - |t|) / 2 into N[t + order, c]."""
    X = order // 2
    N = np.zeros((2 * order + 1, X + 1), dtype=np.int64)

    def walk(i, t, l1):
        if i == m:
            c = (l1 - abs(t)) // 2
            if abs(t) <= order and c <= X:
                N[t + order, c] += 1
            return
        for v in range(l1 - order - 2 * X, order + 2 * X - l1 + 1):
            walk(i + 1, t + v, l1 + abs(v))
    walk(0, 0, 0)
    return N


def dense_rule_tags(K: np.ndarray, compiled) -> np.ndarray:
    """The tag codes of `resonance.apply_rules` as it took them from a
    dense product: each rule's group sums are K times its mode -> group
    indicator, in int64, over every mode."""
    codes = np.zeros(len(K), dtype=np.int8)
    K = K.astype(np.int64)
    for code, inside, label in reversed(compiled):
        G = np.zeros((len(label), label.max(initial=0) + 1), dtype=np.int64)
        G[np.arange(len(label)), label] = 1
        codes[~np.any(K[:, inside], axis=1) & ~np.any(K @ G, axis=1)] = code
    return codes


def listed_histograms(S: np.ndarray, groups, tail, compiled,
                      order: int) -> np.ndarray:
    """The tag histogram of each group row of S by listing its members
    (`resonance._members`; the zero row's of one sign, the first nonzero
    entry positive, without the all-zero member) and tagging each with
    `dense_rule_tags` under each compiled rule set: (rule sets, rows,
    PATTERNS)."""
    n = len(resonance.PATTERNS)
    hist = np.zeros((len(compiled), len(S), n), dtype=np.int64)
    for Km, src in resonance._members(S, groups, tail, order, 1 << 20):
        for row, g in zip(Km, src):
            nz = np.flatnonzero(row)
            if not S[g].any() and (not len(nz) or row[nz[0]] < 0):
                continue
            for s, rules in enumerate(compiled):
                hist[s, g, dense_rule_tags(row[None], rules)[0]] += 1
    return hist


def classify_rows_reference(K: np.ndarray, modes, rules) -> np.ndarray:
    """The tags `pattern_tags` reads off `resonance.apply_rules`, with the
    cutoff folded into the groups: each mode with |j|^2 <= cutoff^2 is a
    group of its own, and beyond it the groups are the shells for SHELL
    and the pairs {j, -j} for PAIR_TAIL, where a mode without its partner
    among the columns (or the zero mode) stands alone; the first rule whose
    group sums all vanish tags the row."""
    tags = np.full(len(K), resonance.PATTERN_NONE, dtype=object)
    open_rows = np.ones(len(K), dtype=bool)
    for pattern, cutoff in rules:
        c2 = cutoff * cutoff
        groups = {}
        col = []
        for i, j in enumerate(modes):
            a2 = mode_abs2(j)
            if a2 <= c2:
                key = ("alone", i)
            elif pattern == resonance.PATTERN_SHELL:
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


def action_groups_reference(system) -> list:
    """`dynamics.action_groups` with its own loops: pairs keyed by |j| with
    base 1 + |j|, shells keyed by M = |j|^2 with base 1 + sqrt(M)."""
    modes = system.modes()
    groups = {}
    if system.grouping == D.PAIRS:
        for i, m in enumerate(modes):
            groups.setdefault(abs(m[0]), []).append(i)
        return [("J_%d" % k, v, 1.0 + k) for k, v in sorted(groups.items())]
    if system.grouping == D.SHELLS:
        for i, m in enumerate(modes):
            groups.setdefault(mode_abs2(m), []).append(i)
        return [("J_M%d" % k, v, 1.0 + math.sqrt(k))
                for k, v in sorted(groups.items())]
    return [("I_%s" % "_".join(str(c) for c in m), [i], 1.0 + mode_abs(m))
            for i, m in enumerate(modes)]


def distinct_divisor_rows(K: np.ndarray, W: np.ndarray) -> int:
    """Rows of K, summed over the blocks `tally_shared_rows` takes, that
    differ in their sums over the modes whose rows of W are equal: the
    rows whose divisors the tally multiplies out."""
    group = {}
    cols = [group.setdefault(row.tobytes(), len(group)) for row in W]
    G = np.zeros((len(W), len(group)), dtype=np.int64)
    G[np.arange(len(W)), cols] = 1
    step = max(1, resonance.SCAN_BLOCK_BYTES // (8 * (K.shape[1]
                                                       + W.shape[1])))
    blocks = (K[lo:lo + step].astype(np.int64) @ G
              for lo in range(0, len(K), step))
    return sum(len({r.tobytes() for r in sums}) for sums in blocks)


def dirichlet_matrix_reference(coeffs: dict, m: int) -> np.ndarray:
    """Matrix of -d2/dx2 + sum v_k cos(kx) in the sine basis on (0, pi),
    assembled one basis function at a time."""
    h = np.zeros((m, m))
    idx = np.arange(1, m + 1)
    h[np.diag_indices(m)] = idx.astype(float) ** 2
    for k, v in coeffs.items():
        if k == 0:
            h[np.diag_indices(m)] += v
            continue
        for i in range(1, m + 1):
            # cos(kx) sin(ix) = [sin((i+k)x) + sin((i-k)x)] / 2
            j = i + k
            if j <= m:
                h[j - 1, i - 1] += 0.5 * v
            j = i - k
            if 1 <= j:
                h[j - 1, i - 1] += 0.5 * v
            j = k - i
            if 1 <= j <= m:
                h[j - 1, i - 1] -= 0.5 * v
    return 0.5 * (h + h.T)


def neumann_matrix_reference(coeffs: dict, m: int) -> np.ndarray:
    """The same operator in the cosine basis cos(nx), n = 0..m-1, assembled
    one basis function at a time."""
    h = np.zeros((m, m))
    idx = np.arange(m)
    h[np.diag_indices(m)] = idx.astype(float) ** 2
    norms = np.full(m, math.sqrt(2.0 / math.pi))
    norms[0] = math.sqrt(1.0 / math.pi)
    # sq[n] = integral over (0, pi) of cos(nx)^2
    sq = np.full(m, math.pi / 2)
    sq[0] = math.pi
    for k, v in coeffs.items():
        if k == 0:
            h[np.diag_indices(m)] += v
            continue
        for n in range(m):
            for target in (n + k, abs(n - k)):
                if target < m:
                    h[target, n] += v * 0.5 * norms[target] * norms[n] * sq[target]
    return 0.5 * (h + h.T)


def table_reference(p: Polynomial, modes, grad: bool) -> tuple:
    """(layout, vidx, coeff, out) of `fields.eta_gradient_table` (`grad`)
    or `fields.value_table`, compiled one term at a time."""
    ms = sorted({as_mode(m) for m in modes})
    index = {m: i for i, m in enumerate(ms)}
    n = len(ms)

    def factors(mono, drop=None):
        idxs = []
        for m, e in mono.xi:
            idxs += [index[m]] * e
        for m, e in mono.eta:
            idxs += [n + index[m]] * (e - (m == drop))
        return idxs
    if grad:
        rows = [(complex(c) * e, factors(mono, m), index[m])
                for mono, c in terms(p).items() for m, e in mono.eta]
    else:
        rows = [(complex(c), factors(mono), 0) for mono, c in terms(p).items()]
    vidx = np.full((len(rows), max(0, p.max_degree() - grad)), 2 * n,
                   dtype=np.int64, order="F")
    coeff = np.empty(len(rows), dtype=complex)
    out = np.empty(len(rows), dtype=np.int64)
    for r, (c, idxs, o) in enumerate(rows):
        coeff[r] = c
        out[r] = o
        vidx[r, :len(idxs)] = idxs
    return ms, vidx, coeff, out


def field_table_eval_reference(table: FieldTable, x) -> np.ndarray:
    """`FieldTable.eval` summing every row block back to the modes through
    its columns of one dense (n x rows) 0/1 matrix of the whole table."""
    rows = len(table.out)
    scatter = np.zeros((len(table.modes), rows))
    scatter[table.out, np.arange(rows)] = 1.0
    X = np.atleast_2d(x)
    G = _work_matrix(X)
    F = np.zeros((len(table.modes), 2 * len(X)))
    for r in _row_blocks(rows, len(X)):
        vals = _column_product(G, table.vidx[r])
        vals *= table.coeff[r, None]
        F += scatter[:, r] @ vals.view(float)
    F = F.view(complex).T
    return F if np.ndim(x) == 2 else F[0]


def merge_quartic_reference(modes: list, tuples: np.ndarray,
                            values: np.ndarray, scale: float) -> Polynomial:
    """`dynamics._merge_quartic`, building each Monomial from its sorted key
    by grouping equal variables."""
    n = len(modes)
    keys = np.sort(tuples, axis=1)
    code = np.ravel_multi_index(keys.T, (2 * n,) * 4)
    _, first, inv = np.unique(code, return_index=True, return_inverse=True)
    coeffs = scale * np.bincount(inv, weights=values, minlength=len(first))
    acc = {}
    for key, c in zip(keys[first].tolist(), coeffs.tolist()):
        xi, eta = [], []
        for v, grp in itertools.groupby(key):
            (xi if v < n else eta).append((modes[v % n], len(tuple(grp))))
        acc[Monomial(xi, eta)] = c
    return poly_of(acc)


# -- flows and the reference integrator ---------------------------------------


def hamiltonian_flow_field(H: Polynomial, x) -> np.ndarray:
    """xi-dot = -i dH/d(eta) at the state x over H.modes, on the real
    slice."""
    defect = H.reality_defect()
    if defect > 1e-10 * max(1.0, H.l1()):
        raise ValueError("H: not real-flagged (defect %.3e)" % defect)
    layout = H.modes
    return -1j * eta_gradient_table(H, layout).eval(
        D._state(x, len(layout), "x"))


def total_momentum(x: np.ndarray, modes) -> tuple:
    """sum_j j I_j of a state over the lattice modes."""
    return tuple(D.actions(x) @ np.array(modes, dtype=float))


# The implicit midpoint step and the quadrature field as written before the
# step's constants were kept per step size, its update ran in place and the
# field's products were compiled; `dynamics.integrate` must give the same
# trajectories, to the bit.


class QuadratureFieldReference:
    """`QuadratureField.eval` of the same compiled matrices, one product of
    the legs at a time."""

    def __init__(self, quad: QuadratureField):
        self.q = quad

    def _legs(self, x):
        z = np.concatenate([x, np.conj(x)])
        return (z[None, :] @ self.q.legs_of_z).reshape(-1, self.q.grid)

    def _product(self, L, skip):
        prod = self.q.weight
        for u, (Lu, m) in enumerate(zip(L, self.q.mult)):
            for _ in range(m - (u == skip)):
                prod = prod * Lu
        return prod

    def eval(self, x):
        L = self._legs(x)
        prods = np.concatenate([self._product(L, u) for u in self.q.eta_legs])
        return (self.q.field_of_legs @ prods[:, None])[:, 0]


def midpoint_step_reference(x0, dt, omv, nl, tol):
    a = 1.0 - 0.5j * dt * omv
    b = 1.0 + 0.5j * dt * omv
    rhs0 = a * x0
    x1 = rhs0 / b
    for it in range(1, D.MIDPOINT_MAX_ITER + 1):
        mid = 0.5 * (x0 + x1)
        x1n = (rhs0 + dt * (-1j) * nl.eval(mid)) / b
        err = float(np.abs(x1n - x1).max())
        x1 = x1n
        if not math.isfinite(err):
            return x1, False, it
        if err <= tol * (1.0 + float(np.abs(x1).max())):
            return x1, True, it
    return x1, False, D.MIDPOINT_MAX_ITER


def _advance_reference(x, dt, omv, nl, tol, depth):
    x1, ok, evals = midpoint_step_reference(x, dt, omv, nl, tol)
    if ok:
        return x1, depth, evals
    if depth >= D.MAX_HALVINGS:
        raise ArithmeticError("midpoint solver diverged at dt=%.3e" % dt)
    xh, d1, e1 = _advance_reference(x, 0.5 * dt, omv, nl, tol, depth + 1)
    x1, d2, e2 = _advance_reference(xh, 0.5 * dt, omv, nl, tol, depth + 1)
    return x1, max(d1, d2), evals + e1 + e2


def integrate_reference(H, x0, T: float, dt: float, tol: float = 1e-12,
                        stride: int = 1) -> "D.Trajectory":
    """`dynamics.integrate` on the same compiled parts, stepped by
    `midpoint_step_reference`, with a quadrature field evaluated by
    `QuadratureFieldReference`."""
    if isinstance(H, D.ModelSystem):
        layout = H.modes()
        omv, nl, ht = H.flow_parts
        if isinstance(nl, QuadratureField):
            nl = QuadratureFieldReference(nl)
    else:
        layout = H.modes
        omv, nl, ht = D._flow_parts(H, layout)
    x = D._state(x0, len(layout), "x0")
    nsteps = max(1, int(round(T / dt)))
    dt_eff = T / nsteps
    times, frames = [0.0], [x]
    worst = evals = 0
    for n in range(1, nsteps + 1):
        x, depth, e = _advance_reference(x, dt_eff, omv, nl, tol, 0)
        worst = max(worst, depth)
        evals += e
        if n % stride == 0 or n == nsteps:
            times.append(n * dt_eff)
            frames.append(x)
    states = np.array(frames)
    return D.Trajectory(layout, times, states,
                        ht.eval(states).real.tolist(), dt_eff, worst, evals)


def write_drift_csv_reference(rows: Sequence[D.DriftRow], path) -> None:
    """`dynamics.write_drift_csv` with every column written out by name."""
    with open(path, "w") as fh:
        fh.write("model,eps,seed,t,H,norm_s,max_weighted_action_drift,"
                 "max_weighted_J_drift,torus_dist,escaped\n")
        for r in rows:
            fh.write(",".join([r.model, f17(r.eps), str(r.seed),
                               f17(r.t), f17(r.H), f17(r.norm_s),
                               f17(r.max_weighted_action_drift),
                               f17(r.max_weighted_J_drift),
                               f17(r.torus_dist), str(r.escaped)]) + "\n")


# -- spectral and norm diagnostics ------------------------------------------


def nu_homogeneous(f_r: Polynomial, s: float) -> float:
    """nu_s of a homogeneous polynomial (sum of per-term contributions)."""
    return math.fsum(abs(c) * nu_term_reference(m, s)
                     for m, c in terms(f_r).items())


def nu_term_reference(mono: Monomial, s: float) -> float:
    """The per-term majorant factor nu_s (coefficient excluded) as a loop
    over the occurrence pairs: a weight call per occurrence, every output
    slot and every denominator taken.  `norms.majorant_norm` must give the
    floats of `majorant_norm_reference`, which sums it, to the bit."""
    slots = [(m, e) for m, e in mono.xi] + [(m, e) for m, e in mono.eta]
    if mono.degree == 0:
        return 0.0
    if mono.degree == 1:
        return math.sqrt(weight(slots[0][0], s))
    occ = [m for m, e in slots for _ in range(e)]
    best = 0.0
    for mode_v, e_v in slots:
        rest0 = list(occ)
        rest0.remove(mode_v)
        w_out = weight(mode_v, s)
        for idx in range(len(rest0)):
            denom = weight(rest0[idx], s)
            for jdx, mj in enumerate(rest0):
                if jdx != idx:
                    denom *= weight(mj, 1.0)
            best = max(best, e_v * math.sqrt(w_out / denom))
    return best


def majorant_norm_reference(f: Polynomial, s: float, radius: float) -> float:
    by_deg = {}
    for m, c in terms(f).items():
        by_deg[m.degree] = by_deg.get(m.degree, 0.0) \
            + abs(c) * nu_term_reference(m, s)
    return math.fsum(v * radius ** (r - 1) for r, v in by_deg.items())


def field_entries_reference(f: Polynomial):
    """`norms._field_entries` as the per-Monomial loop it was: per term, per
    (kind, mode, exponent) slot, the slot's mode, |c| * exponent and the
    other occurrences, the slot's own less one."""
    entries = []
    for mono, c in terms(f).items():
        a = abs(c)
        slots = [("xi", m, e) for m, e in mono.xi]
        slots += [("eta", m, e) for m, e in mono.eta]
        for kind, m, e in slots:
            rest = []
            for kind2, m2, e2 in slots:
                n = e2 - 1 if (kind2, m2) == (kind, m) else e2
                rest.extend([(kind2, m2)] * n)
            entries.append((m, a * e, tuple(rest)))
    return entries


def orthonormality_defect(basis: EigenBasis) -> float:
    g = basis.coeffs.T @ basis.coeffs
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def c0_defect(fit: ExpansionFit) -> float:
    return abs(fit.c0 - fit.mean_value)


@dataclass
class LocalizationReport:
    n: int
    c_n: float
    worst: tuple


def check_localization(basis: EigenBasis, n: int = 2) -> LocalizationReport:
    """Smallest C_n with |phi_j^k| <= C_n / (1 + min|k -+ j|)^n.

    j labels the eigenfunction (1-based for Dirichlet, 0-based Neumann),
    k the trigonometric wavenumber of the expansion coefficient.
    """
    coeffs = np.abs(basis.coeffs)
    waven = basis.wavenumbers
    offset = 1 if basis.bc == "dirichlet" else 0
    c_n = 0.0
    worst = (0, 0)
    for col in range(coeffs.shape[1]):
        j = col + offset
        dist = np.minimum(np.abs(waven - j), np.abs(waven + j))
        vals = coeffs[:, col] * (1.0 + dist) ** n
        i = int(np.argmax(vals))
        if vals[i] > c_n:
            c_n = float(vals[i])
            worst = (j, int(waven[i]))
    return LocalizationReport(n, c_n, worst)


def fit_A(P: Polynomial, s: float, radii: Sequence[float] = (0.25, 0.5, 1.0)
          ) -> float:
    """Smallest A with majorant(P, s, R) <= A R^2 over the probe radii."""
    return max(majorant_norm(P, s, R) / (R * R) for R in radii)


@dataclass
class DerivativeCheck:
    j: int
    k: int
    bc: str
    fd_derivative: float
    leading_term: float
    abs_error: float
    step: float


def eigenvalue_derivative_check(potential, j: int, k: int, bc: str = "dirichlet",
                                step: float = 1e-5, jmax: Optional[int] = None,
                                basis_size: Optional[int] = None) -> DerivativeCheck:
    """Central finite difference of lambda_j along the cos(kx) coefficient.

    The leading term is -delta_{k,2j}/2 for Dirichlet eigenvalues and
    +delta_{k,2j}/2 for Neumann ones; corrections are exponentially small
    in the potential's analyticity width.  (The resonant pairing is k = 2j:
    differentiating lambda_j along cos(2j x) moves it by -+1/2, which is
    what the perturbative eigenvalue formulas actually use.)
    """
    coeffs = _cosine_coeffs(potential)
    size = basis_size or max(4 * (jmax or (j + 8)), 32)

    def lam(vk):
        c = dict(coeffs)
        c[k] = c.get(k, 0.0) + vk
        lams = _solve(c, bc, size)[0]
        # Dirichlet lams[j-1] is mode j, Neumann lams[j] is mode -j
        return float(lams[j - 1] if bc == "dirichlet" else lams[j])

    fd = (lam(step) - lam(-step)) / (2 * step)
    lead = 0.0
    if k == 2 * j:
        lead = -0.5 if bc == "dirichlet" else 0.5
    return DerivativeCheck(j, k, bc, fd, lead, abs(fd - lead), step)
