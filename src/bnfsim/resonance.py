"""Near-resonance enumeration and exceptional-pattern classification.

A frequency table and a screening threshold gamma/N^alpha split integer
combinations omega.k into small divisors (kept in the normal form) and safe
ones (eliminated).  This module enumerates the small combinations under the
order and tail constraints, classifies the structured patterns that survive
in the paired and lattice-shell models, and Monte Carlo-estimates the measure
of the violating potential set over the random ensembles.  Both jobs take
one search (`_scan`) over the columns of a frequency matrix W: one table
for `enumerate_near_resonances`, every drawn sample for the measure scan,
on the box [min, max] of its draws, so node_cap is one budget per scan.
Modes of equal rows of W and tail flags form a group (the pairs +-k of an
even potential, the shells of the flat torus, single modes in 1-d); `_dfs`
searches the group sums depth first, within node_cap tree nodes.  One
accept step (`_below`) decides the candidate group rows under a list of
thresholds in one pass.  Decisions agree with exactly-rounded summation:
each member (row over the modes) of an entry within the rounding error of
the product is rechecked by `fsum_rows`; a naive sum misclassifies there.
The measure scan reads only the tag histogram of a group row clear of
that band, so it counts the row's members by tag (`_TagCounter`) and
lists them (`_members`) only for the band, as the enumeration lists all.

The patterns are group cancellations.  A combination, as a row of an
integer matrix K over the modes, is exceptional when it has no weight on
the ball |j| <= cutoff and sums to zero over every group of `mode_groups`:
the pairs {j, -j} (PAIR_TAIL: periodic NLW, coupled NLS) or the shells
|j|^2 = M (SHELL: NLS on the d-torus), whose actions J are the ones the
normal form nearly conserves.  `apply_rules` sums each row's few
non-zero entries over each rule's groups, labelled once per rule
(`compile_rules`), and gives integer tag codes.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .modes import Mode, f17, in_ball, mode_groups, mode_str
from .poly import TAIL_BUDGET, Polynomial
from .spectra import (CONVOLUTION_D, NLW_PERIODIC, FrequencyTable,
                      SpectralError, _param, convolution_columns,
                      mode_eigenvalues, periodic_nlw_table, sample_potential,
                      sturm_liouville)

PATTERN_NONE = "NONE"
PATTERN_PAIR_TAIL = "PAIR_TAIL"
PATTERN_SHELL = "SHELL"
# a tag as a small integer: code c is PATTERNS[c], and 0 is no exception
PATTERNS = (PATTERN_NONE, PATTERN_SHELL, PATTERN_PAIR_TAIL)

Z95 = 1.959963984540054  # two-sided 95% normal quantile

DEFAULT_NODE_CAP = 2_000_000
# float64 group rows and divisors per block of `_scan`; int8 members per piece
SCAN_BLOCK_BYTES = 1 << 22
CHUNK = 4096  # live nodes per block of the candidate search


def fsum_rows(rows: np.ndarray, prods: np.ndarray, n: int) -> np.ndarray:
    """Per row i < n, `math.fsum` of the prods of its entries (rows sorted):
    the one exactly rounded divisor of a hit, a term or a band member."""
    ends, v = np.bincount(rows, minlength=n).cumsum().tolist(), prods.tolist()
    return np.array([math.fsum(v[a:b]) for a, b in zip([0] + ends, ends)])


def term_divisors(p: Polynomial, omega: FrequencyTable) -> List[float]:
    """omega.(k - l) of each term xi^k eta^l of p, in term order: the
    `fsum_rows` of its modes of non-zero net exponent in p's entries."""
    n = max(len(p.modes), 1)
    cells, at = np.unique(p.t * n + p.col % n, return_inverse=True)
    net = np.bincount(at, weights=np.where(p.col < n, p.e, -p.e)).astype(int)
    t, k = np.divmod(cells[net != 0], n)
    used, k = np.unique(k, return_inverse=True)
    w = omega.vector([p.modes[j] for j in used.tolist()])
    return fsum_rows(t, w[k] * net[net != 0], len(p)).tolist()


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
class EnumerationResult:
    """The hits, one row per sign of each k, in canonical order: k's
    non-zero exponents exp[i] and their indices idx[i] into modes (sorted),
    by mode, padded with (-1, 0) to width r+2; omega.k and the tag code."""
    modes: list
    idx: np.ndarray
    exp: np.ndarray
    divisor: np.ndarray
    code: np.ndarray
    complete: bool
    nodes: int


def _domain(q: DivisorQuery) -> Tuple[list, list]:
    """Modes within |j| <= jmax with their tail flags."""
    if q.omega is None:
        raise ValueError("omega: required for enumeration")
    modes = [m for m in q.omega.modes() if in_ball(m, q.jmax)]
    return modes, [not in_ball(m, q.N) for m in modes]


def _dfs(modes: Sequence[Mode], lo: Sequence[float], hi: Sequence[float],
         tail: Sequence[bool], order: int, threshold: float, node_cap: int
         ) -> Tuple[list, np.ndarray, bool, int]:
    """Depth-first search over exponent vectors with interval pruning, a
    block of nodes at a time.

    Each frequency lies in [lo[i], hi[i]] with lo[i] <= hi[i] (point
    queries pass equal endpoints); modes are searched by decreasing
    max(|lo|, |hi|).  A branch is cut when no completion within the order
    budget (2 of it on the tail) can bring |sum| under the threshold.
    Divisors, constraints and group sums are all even in k, so only one
    sign of each pair +-k is visited: the first nonzero exponent is
    positive.

    A stack holds blocks of at most CHUNK nodes of one level.  A popped
    block yields all its children, in parent order and then by exponent
    ascending; a child's bounds are its parent's plus e*w, one IEEE multiply
    and add each, so no prune decision depends on the blocking.  The
    survivors go back in CHUNK pieces, the first on top, so the leaves come
    out in depth-first order.  `nodes` counts the root and every child made,
    pruned or not, and is checked after each block: a search past node_cap
    stops incomplete, at most one block's children past it, with the leaves
    found so far.  Returns the modes in search order, the leaves as int8
    rows over them, complete, nodes.
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
    limit = threshold + 1e-9 * (1.0 + threshold + order * sufmax[0])
    E = np.arange(-order, order + 1, dtype=np.int8)
    A = np.abs(E)
    up = E > 0
    rows = array("b")
    nodes, complete = 1, True
    # (level, budget m, tail budget tb, s_lo, s_hi, exponents assigned)
    root = (0, np.array([order], np.int8), np.array([TAIL_BUDGET], np.int8),
            np.zeros(1), np.zeros(1), np.zeros((1, 0), np.int8))
    stack = [root] if n else []
    while stack:
        i, m, tb, s_lo, s_hi, K = stack.pop()
        cap = (np.minimum(m, tb) if is_tail[i] else m).astype(np.intp)
        c0 = np.where(m == order, order, order - cap)  # no exponent: e >= 0
        size = order + 1 + cap - c0
        p = np.repeat(np.arange(len(m)), size)
        c = np.arange(len(p)) + (c0 + size - np.cumsum(size))[p]
        nodes += len(p)
        if nodes > node_cap:
            complete = False
            break
        m = m[p] - A[c]
        tb = tb[p] - A[c] if is_tail[i] else tb[p]
        s_lo = s_lo[p] + (E * np.where(up, w_lo[i], w_hi[i]))[c]
        s_hi = s_hi[p] + (E * np.where(up, w_hi[i], w_lo[i]))[c]
        reach = m * sufmax[i + 1]
        # lo <= hi, so |sum| > limit throughout iff either end is past it
        keep = ~((s_lo - reach > limit) | (s_hi + reach < -limit))
        if i + 1 == n:
            keep &= m < order  # some exponent is nonzero
        p = p[keep]
        K2 = np.empty((len(p), i + 1), dtype=np.int8)
        K2[:, :i] = K[p]
        K2[:, i] = E[c[keep]]
        if i + 1 == n:
            rows.frombytes(K2.tobytes())
            continue
        m, tb, s_lo, s_hi = m[keep], tb[keep], s_lo[keep], s_hi[keep]
        for a in range((len(p) - 1) // CHUNK * CHUNK, -1, -CHUNK):
            b = slice(a, a + CHUNK)
            stack.append((i + 1, m[b], tb[b], s_lo[b], s_hi[b], K2[b]))
    K = np.frombuffer(rows, dtype=np.int8).reshape(len(rows) // max(n, 1), n)
    return modes, K, complete, nodes


def _band(W: np.ndarray, order: int) -> np.ndarray:
    """Per column of W (n modes), twice the bound (n + 1) eps order max|w|
    on the rounding of a row's product with it, |k| <= order."""
    return 2 * (len(W) + 1) * np.finfo(float).eps * order * \
        np.max(np.abs(W), axis=0, initial=0.0)


def _below(div: np.ndarray, Km: np.ndarray, src: np.ndarray, W: np.ndarray,
           thrs: Sequence[float], order: int) -> List[tuple]:
    """Per threshold of the non-increasing thrs, the entries with
    |k . W[:, s]| < thr of the members Km of group rows src (sorted), given
    div, |products| of the group rows with W up to rounding: group entries
    (g, s), hits of every member of row g, and member entries (i, s) within
    `_band` of thr, decided on their own rows by `fsum_rows`, as a hit's
    divisor is, each summed once for all thresholds.  One pass over div
    finds the entries under thrs[0] plus the band; each smaller
    threshold's candidates are a subset of those.
    """
    band = _band(W, order)
    gi, si = np.divmod(np.flatnonzero(div < thrs[0] + band), div.shape[1])
    a = div[gi, si]
    # per entry and threshold: under it plus the band, and within the band
    c = a[:, None] < np.add(thrs, band[si, None])
    near = np.abs(a[:, None] - thrs) <= band[si, None]
    lo, hi = np.searchsorted(src, [gi, gi + 1])
    e = np.repeat(np.arange(len(a)), np.where(near.any(axis=1), hi - lo, 0))
    i, s = lo[e] + np.arange(len(e)) - np.searchsorted(e, e), si[e]
    r, j = np.nonzero(Km[i])  # each member i of a band entry e, under s
    d = np.abs(fsum_rows(r, W[j, s[r]] * Km[i[r], j], len(i)))
    G, M = c & ~near, (c & near)[e] & (d[:, None] < thrs)
    return [((gi[g], si[g]), np.stack([i[m], s[m]])) for g, m in zip(G.T, M.T)]


def _members(S: np.ndarray, groups: Sequence[np.ndarray],
             tail: Sequence[bool], order: int, cap: int
             ) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
    """Every int8 row over the modes whose sums over the groups (mode
    indices, one group per column of S) are a row of S, within the order
    and tail budgets, and the row of S it splits, in order, in pieces of at
    most cap rows (or one row's splits).  A group's last mode holds what is
    left of its sum t: giving v of it to the next mode spends |v| + |t - v|
    - |t| of the budget that |S| leaves, so no split stalls."""
    K = np.zeros((len(S), len(tail)), np.int8)
    K[:, [g[-1] for g in groups]] = S
    steps = [(j, g[-1]) for g in groups for j in g[:-1]]
    ex = order - np.abs(K).sum(axis=1, dtype=np.intp)
    tex = TAIL_BUDGET - np.abs(K[:, tail]).sum(axis=1, dtype=np.intp)
    stack = [(0, (np.arange(len(S)), K, ex, tex))] if len(S) else []
    while stack:
        i, (src, K, ex, tex) = stack.pop()
        if i == len(steps):
            yield K, src
            continue
        j, last = steps[i]
        t = K[:, last].astype(np.intp)
        half = (np.minimum(ex, tex) if tail[j] else ex) // 2
        size = np.abs(t) + 2 * half + 1
        ends = np.cumsum(size)
        if len(t) > 1 and ends[-1] > cap:  # halve the rows, first on top
            part, h = (src, K, ex, tex), len(t) // 2
            stack += [(i, [x[h:] for x in part]), (i, [x[:h] for x in part])]
            continue
        p = np.repeat(np.arange(len(t)), size)
        v = (np.minimum(t, 0) - half - ends + size)[p] + np.arange(len(p))
        used = np.abs(v) + np.abs(t[p] - v) - np.abs(t[p])
        K = K[p]
        K[:, j], K[:, last] = v, t[p] - v
        stack.append((i + 1, (src[p], K, ex[p] - used,
                              tex[p] - used * tail[j])))


@lru_cache(maxsize=None)
def _split_counts(m: int, order: int) -> np.ndarray:
    """N[t + order, c]: the integer vectors over m modes that sum to t at
    cost |v|_1 - |t| = 2c, for |t| <= order and c <= order // 2.  For
    t >= 0 such a vector's positive entries sum to t + c and its negative
    ones to -c (the reverse for t < 0): choose i and j of the modes for
    them, and split each sum into that many positive parts."""
    def parts(s, k):
        return math.comb(s - 1, k - 1) if s >= k > 0 else int(s == k == 0)
    N = np.zeros((2 * order + 1, order // 2 + 1), dtype=np.int64)
    for t in range(-order, order + 1):
        for c in range(order // 2 + 1):
            p = abs(t) + c
            N[t + order, c] = sum(math.comb(m, i) * math.comb(m - i, j) *
                                  parts(p, i) * parts(c, j)
                                  for i in range(min(m, p) + 1)
                                  for j in range(min(m - i, c) + 1))
    return N


class _TagCounter:
    """The tag histograms of group rows' members, counted, not listed.

    A member splits each group sum t_g over the group's m modes, at the
    even cost |v|_1 - |t_g| = 2c of the order budget (and of TAIL_BUDGET on
    a tail group).  So the members of a group row are the coefficients,
    with half-cost a <= (order - sum |t_g|) // 2 and tail half-cost b
    within what the tail budget leaves, of a product over the groups of
    polynomials in (x, y): sum_c N(m, t_g, c) x^c (y^c on the tail), each
    kept on the grid a <= order // 2, b <= TAIL_BUDGET // 2, flattened.

    A_U, the members that every rule of a subset U of a rule set accepts,
    are counted the same way.  Under a rule, a group wholly inside the
    cutoff takes the zero split only; a rule group that is a union of
    search groups has its sum read off the group row (`apply_rules` on the
    group rows); a group that is a union of rule groups takes the splits
    whose every rule group sums to zero.  The first rule that accepts a
    member tags it, so rule r tags |A_r minus (A_1 u ... u A_{r-1})|
    members, by inclusion-exclusion over the subsets whose last rule is r,
    and NONE the rest.  `bad` says that some group is none of these: it
    straddles a cutoff, crosses a rule group, or is split two ways.

    Per subset, B is the product over every group at t_g = 0, and a row
    multiplies B by F_g(t_g) / F_g(0) for each of its at most `order`
    non-zero entries, one pass per entry rank, vectorized over the rows.
    """

    def __init__(self, groups, tail, compiled, order):
        X, Y, G, n = order // 2, TAIL_BUDGET // 2, len(groups), len(tail)
        a, b = np.divmod(np.arange((X + 1) * (Y + 1)), Y + 1)
        # the pairs of cells whose product stays on the grid, by product
        # cell: a cell's flat index is linear in (a, b), so it is i + j
        i, j = np.nonzero((a[:, None] + a <= X) & (b[:, None] + b <= Y))
        at = np.argsort(i + j, kind="stable")
        self.i, self.j = i[at], j[at]
        self.cell = np.flatnonzero(np.diff(self.i + self.j, prepend=-1))
        self.a, self.b, self.order = a, b, order
        unit = (a + b == 0).astype(np.int64)
        grp = np.zeros(n, dtype=np.intp)
        for g, idx in enumerate(groups):
            grp[idx] = g
        size = np.bincount(grp, minlength=G)
        self.tail = np.array([tail[idx[0]] for idx in groups], dtype=bool)
        first = np.array([idx[0] for idx in groups], dtype=np.intp)
        self.bad, self.labels = False, []

        def relate(inside, label):
            # per group under one rule: wholly inside the cutoff, and the
            # partition of its modes where it is a union of rule groups;
            # and the label of each group for `apply_rules` on group rows:
            # its rule group where that is a union of search groups, else
            # one of its own, so that t_g = 0
            cg, cl = np.divmod(np.unique(grp * n + label), n)
            nl = np.bincount(cg, minlength=G)  # rule groups on each group
            union = np.ones(n, dtype=bool)
            union[cl[nl[cg] > 1]] = False
            fine = np.ones(G, dtype=bool)
            fine[cg[np.bincount(cl, minlength=n)[cl] > 1]] = False
            row = union[label[first]] & (nl == 1)
            ins = np.bincount(grp, weights=inside, minlength=G)
            zero = ins == size
            self.bad |= np.any((ins > 0) & ~zero | ~(zero | row | fine))
            self.labels.append(np.where(row, label[first], n + np.arange(G)))
            return zero, {g: tuple(np.unique(label[groups[g]],
                                             return_inverse=True)[1])
                          for g in np.flatnonzero(fine & ~row & ~zero)}

        factors = {}

        def factor(key):  # F_g(t) for every t, and F_g(t) / F_g(0)
            if key not in factors:
                kind, sizes, on_tail = key
                F = np.zeros((2 * order + 1, len(a)), dtype=np.int64)
                F[order] = unit
                for m in sizes:  # a "part" group: each rule group sums to 0
                    f = np.where(b == a * on_tail,
                                 _split_counts(m, order)[:, a], 0)
                    F = f if kind == "free" else self.mul(F, f[order])
                inv, D = unit, unit - F[order]
                for _ in range(X):  # 1 / F(0) = sum of (1 - F(0))^k, and
                    # each term of 1 - F(0) is of degree 1 or more in x
                    inv = unit + self.mul(D, inv)
                factors[key] = (F[order], self.mul(F, inv))
            return factors[key]

        F0, Q, M, self.subsets, self.first = [], [], [], [], []
        k = len(PATTERNS)
        for s, rules in enumerate(compiled):
            rel = [relate(inside, label) for _, inside, label in rules]
            for r, (_, part) in enumerate(rel):
                for _, other in rel[:r]:  # a group split two ways
                    self.bad |= any(part[g] != other[g]
                                    for g in set(part) & set(other))
            self.first.append(rules[0][0] if rules else 0)
            for u in range(1 << len(rules)):
                U = [r for r in range(len(rules)) if u >> r & 1]
                zero, part = np.zeros(G, dtype=bool), {}
                for r in U:
                    zero |= rel[r][0]
                    part.update(rel[r][1])
                f0, q = zip(*[factor(
                    ("zero", (), False) if zero[g] else
                    ("part", tuple(np.bincount(part[g])), self.tail[g])
                    if g in part else ("free", (size[g],), self.tail[g]))
                    for g in range(G)])
                F0.append(np.stack(f0))
                Q.append(np.stack(q))
                self.subsets.append([len(self.labels) - len(rules) + r
                                     for r in U])
                m = np.zeros(len(compiled) * k, dtype=np.int64)
                if U:  # the members whose first accepting rule is U's last
                    sign = (-1) ** (len(U) - 1)
                    m[s * k + rules[U[-1]][0]] += sign
                    m[s * k] -= sign
                else:
                    m[s * k] = 1
                M.append(m)
        B = np.stack(F0)
        while B.shape[1] > 1:  # the product over the groups, pairwise
            if B.shape[1] % 2:
                B = np.concatenate([B, np.broadcast_to(unit, B[:, :1].shape)],
                                   axis=1)
            B = self.mul(B[:, 0::2], B[:, 1::2])
        self.B, self.Q, self.M = B[:, 0], np.stack(Q), np.stack(M)

    def mul(self, f, g):
        """The product of polynomials on the grid, truncated to it."""
        return np.add.reduceat(f[..., self.i] * g[..., self.j], self.cell,
                               axis=-1)

    def __call__(self, S):
        """The tag histogram of each row's members, per rule set: (rule
        sets, rows, PATTERNS); the zero row stands for one sign, without
        its all-zero member."""
        rr, gg = np.nonzero(S)
        t = S[rr, gg].astype(np.intp)
        P = np.repeat(self.B[:, None], len(S), axis=1)
        rank = np.arange(len(rr)) - np.searchsorted(rr, rr)
        for k in range(rank.max(initial=-1) + 1):  # each row's k-th entry
            e = rank == k
            P[:, rr[e]] = self.mul(P[:, rr[e]],
                                   self.Q[:, gg[e], t[e] + self.order])
        spent = np.abs(S).astype(np.intp)  # the half-costs left per row:
        ha = (self.order - spent.sum(axis=1)) // 2  # of the order budget
        hb = (TAIL_BUDGET - spent[:, self.tail].sum(axis=1)) // 2  # tail
        fit = (self.a <= ha[:, None]) & (self.b <= hb[:, None])
        count = np.einsum("urk,rk->ur", P, fit)
        nowhere = np.zeros(S.shape[1], dtype=bool)
        fails = np.array([apply_rules(S, [(1, nowhere, label)]) == 0
                          for label in self.labels]).reshape(-1, len(S))
        for u, rules in enumerate(self.subsets):
            count[u, fails[rules].any(axis=0)] = 0
        hist = (count.T @ self.M).reshape(len(S), len(self.first), -1)
        zero = ~S.any(axis=1)  # without the all-zero member, one sign
        hist[zero] = (hist[zero] - np.eye(hist.shape[2], dtype=np.int64)[
            self.first]) // 2
        return hist.transpose(1, 0, 2)


class Piece(NamedTuple):
    """A piece of `_scan`: member rows Km over the modes and their group
    rows src (sorted, from 0 in each piece), their tag codes and their
    group rows' tag histograms per rule set, `_below`'s entries per
    threshold, and the group rows whose members the block lists."""
    Km: np.ndarray
    src: np.ndarray
    codes: np.ndarray
    hist: np.ndarray
    found: list
    listed: int


def _scan(modes: Sequence[Mode], W: np.ndarray, tail: Sequence[bool],
          thrs: Sequence[float], order: int, node_cap: int,
          compiled: Sequence[list], count: bool = True
          ) -> Tuple[bool, int, int, Iterable[Piece]]:
    """Search the rows over the modes under each column of W, at each of the
    non-increasing thresholds thrs, and tag them under each compiled rule
    set.  Returns the search's complete, nodes and candidate group rows,
    and a lazy iterator of pieces.

    Modes of equal rows of W and tail flags form a group; a row's divisors
    depend only on its group sums, which keep within its budgets: `_dfs`
    searches them on the groups' boxes, and a block of group rows at a
    time takes one product |div| with the group frequencies.  The rows
    under thrs[0] plus the band in some column, and the zero row, which
    the search never emits, are live.  With count, and unless a group
    cannot be counted (`_TagCounter.bad`), a live row with no entry within
    the band of any threshold has its tag histograms counted; the other
    live rows are split into members (`_members`), at most
    SCAN_BLOCK_BYTES of int8 rows a piece, and tagged (`apply_rules`), and
    `_below` rechecks their members within the band.  Each block yields
    the piece of its counted rows, which lists no members, then those of
    its listed rows.  Row k stands for +-k: a group row holds one sign, a
    zero-row member the one that leads with e > 0, and a counted zero row
    half its members but the all-zero one.
    """
    first, grp = np.unique(np.column_stack([W, tail]), axis=0,
                           return_index=True, return_inverse=True)[1:]
    at = {modes[i]: g for g, i in enumerate(first)}
    reps, K, complete, nodes = _dfs(list(at), W[first].min(axis=1).tolist(),
                                    W[first].max(axis=1).tolist(),
                                    [tail[i] for i in first], order,
                                    thrs[0], node_cap)
    cols = [at[m] for m in reps]
    groups = [np.flatnonzero(grp.ravel() == g) for g in cols]
    WgT, band = np.ascontiguousarray(W[first[cols]].T), _band(W, order)
    step = max(1, SCAN_BLOCK_BYTES // (8 * (K.shape[1] + W.shape[1])))
    cap = max(1, SCAN_BLOCK_BYTES // max(len(tail), 1))
    tally = _TagCounter(groups, tail, compiled, order) if count else None
    tally = None if tally is None or tally.bad else tally  # list them all
    n = len(PATTERNS)
    empty = (np.zeros((0, len(tail)), np.int8), np.zeros(0, np.intp),
             np.zeros((len(compiled), 0), np.int8),
             np.zeros((len(compiled), 0, n), np.int64))

    def block(Kb):
        div = WgT @ Kb.T.astype(float)  # samples x rows
        np.abs(div, out=div)
        live = np.flatnonzero(np.any(div < (thrs[0] + band)[:, None], axis=0))
        S, div = Kb[live], div[:, live].T
        lists = np.full(len(S), tally is None)
        if tally:
            for thr in thrs:  # an entry within the band of thr
                lists |= np.any((np.abs(div - thr) <= band) &
                                (div < thr + band), axis=1)
        c = ~lists
        yield Piece(*empty[:3], tally(S[c]) if c.any() else empty[3],
                    _below(div[c], *empty[:2], W, thrs, order),
                    int(lists.sum()))
        rows = np.flatnonzero(lists)
        zero = ~S[rows].any(axis=1)
        for Km, src in _members(S[rows], groups, tail, order, cap):
            if zero.any():  # the zero row's members lead with e > 0
                lead = Km[np.arange(len(Km)), np.argmax(Km != 0, axis=1)]
                keep = ~zero[src] | (lead > 0)
                Km, src = Km[keep], src[keep]
            if len(src):
                g, src = rows[src[0]:src[-1] + 1], src - src[0]
                codes = np.stack([apply_rules(Km, c) for c in compiled])
                hist = np.stack([np.bincount(src * n + c, minlength=n * (
                    src[-1] + 1)) for c in codes]).reshape(len(codes), -1, n)
                yield Piece(Km, src, codes, hist,
                            _below(div[g], Km, src, W, thrs, order), 0)
    zero = np.zeros((1, K.shape[1]), np.int8)
    rows = [np.concatenate([zero, K[:step]])] + \
        [K[lo:lo + step] for lo in range(step, len(K), step)]
    return complete, nodes, len(K), (p for Kb in rows for p in block(Kb))


def enumerate_near_resonances(q: DivisorQuery,
                              rules: Sequence[Tuple[str, float]] = ()
                              ) -> EnumerationResult:
    """All k with 0 < |k| <= r+2, tail mass <= 2, |omega.k| < gamma/N^alpha,
    each tagged under the exception rules by `apply_rules` (NONE without).

    The search of `_scan` with the table as the one column of W; each
    piece's hits (the members of its group hits, and its member hits) are
    made rows as they come out, both signs, and -k takes k's tag.  One
    lexsort over the padded slots, padding below every mode, sorts them as
    key tuples compare, whatever the search order.  A node budget overrun
    is reported through the complete flag.
    """
    modes, tail = _domain(q)
    w, width = q.omega.vector(modes), q.r + 2
    complete, nodes, _, pieces = _scan(
        modes, w[:, None], tail, [q.threshold], width, q.node_cap,
        [compile_rules(modes, rules)], count=False)
    parts = []
    for p in pieces:  # one at least: the first block holds the zero row
        [((g, _), (m, _))] = p.found
        at = np.concatenate([np.flatnonzero(np.isin(p.src, g)), m])
        I, E = _slots(p.Km[at], -1, width)
        I, E = np.concatenate([I, I]), np.concatenate([E, -E])
        r, c = np.divmod(np.flatnonzero(E), width)
        parts.append((I, E, fsum_rows(r, w[I[r, c]] * E[r, c], len(E)),
                      np.tile(p.codes[0, at], 2)))
    idx, exp, div, code = map(np.concatenate, zip(*parts))
    at = np.lexsort([k[:, s] for s in range(width)[::-1] for k in (exp, idx)])
    return EnumerationResult(modes, idx[at], exp[at], div[at], code[at],
                             complete, nodes)


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


def compile_rules(modes: Sequence[Mode], rules: Sequence[Tuple[str, float]]
                  ) -> list:
    """Each rule (pattern, cutoff) over the columns modes as its tag code,
    the mask of the modes with |j| <= cutoff, and each mode's group label:
    its shell for SHELL, its pair for PAIR_TAIL."""
    return [(PATTERNS.index(p),
             np.array([in_ball(j, c) for j in modes], dtype=bool),
             mode_groups(modes, p == PATTERN_SHELL).nonzero()[1])
            for p, c in rules]


def _slots(K: np.ndarray, pad: int, width: int = 0) -> tuple:
    """Each row's non-zero (column, value) entries, padded with (pad, 0)."""
    r, c = np.divmod(np.flatnonzero(K != 0), K.shape[1])
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    C = np.full((len(K), max(width, rank.max(initial=-1) + 1)), pad, np.int32)
    V = np.zeros(C.shape, dtype=K.dtype)
    C[r, rank], V[r, rank] = c, K[r, c]
    return C, V


def apply_rules(K: np.ndarray, compiled: list) -> np.ndarray:
    """Tag code of each row of K (one column per mode): that of the first
    compiled rule under which the row has no weight inside the cutoff and
    sums to zero over every group, else 0 (NONE).  An empty row takes the
    first rule's code.  The group sums are taken from the rows' non-zero
    entries (at most `order` a member row), not over every mode."""
    C, V = _slots(K, K.shape[1])
    codes = np.zeros(len(K), dtype=np.int8)
    for code, inside, label in reversed(compiled):  # so the first rule wins
        L = np.append(label, -1)[C]  # each entry's group, -1 for padding
        same = (L[:, :, None] == L[:, None, :]).view(np.int8)
        off = np.einsum("rij,rj->ri", same, V).any(axis=1)
        codes[~off & ~np.append(inside, False)[C].any(axis=1)] = code
    return codes


def classify_exception(k: dict, model: str, params: dict) -> str:
    """Pattern tag of {mode: exponent} under a model's exceptional rule.

    nlw_periodic: pair cancellation beyond b*ln(N).
    nls_coupled:  pair cancellation beyond C*N^sqrt(2*alpha).
    pair:         pair cancellation beyond an explicit cutoff (default 0).
    nls_dd / convolution_d / shell: zero shell sums beyond N^sqrt(alpha/m).
    """
    row = np.array(list(k.values()), dtype=np.int64).reshape(1, len(k))
    rule = compile_rules(list(k), [_exception_rule(model, params)])
    return PATTERNS[apply_rules(row, rule)[0]]


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
    of the model by construction.  b is the smallest float whose cutoff
    b*lnN, as the rule computes it, is not below the last failing pair.
    """
    thr = gamma / (2.0 * N ** alpha)
    w = table.omega
    gaps = {m[0]: abs(w[m] - w[(-m[0],)]) for m in w
            if len(m) == 1 and m[0] > 0 and (-m[0],) in w}
    j_cut = max([n for n, g in gaps.items() if g >= thr], default=0)
    worst = max([g for n, g in gaps.items() if n > j_cut], default=0.0)
    if j_cut == 0:
        b = 0.0
    elif N > 1:
        log_n = math.log(N)
        b = j_cut / log_n
        while b * log_n < j_cut:
            b = math.nextafter(b, math.inf)
        while math.nextafter(b, 0.0) * log_n >= j_cut:
            b = math.nextafter(b, 0.0)
    else:
        raise ValueError("N: cannot place a b*ln(N) cutoff at N=1 "
                         "with near-degeneracy failing at j=%d" % j_cut)
    return PairCalibration(b, j_cut, thr, worst)


def normal_form_membership(p: Polynomial, omega: FrequencyTable,
                           gamma: float, alpha: float, N: int) -> List[bool]:
    """Per term of p, in term order: small divisor within threshold and at
    most two tail exponents.

    The boundary |omega.(k-l)| == gamma/N^alpha counts as a member: the
    normalization keeps boundary terms rather than dividing by a minimal
    divisor, and membership has to agree with that split.
    """
    thr = gamma / N ** alpha
    low = (p.tail_degrees(N) <= TAIL_BUDGET).tolist()
    return [abs(d) <= thr and ok
            for d, ok in zip(term_divisors(p, omega), low)]


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
    pattern_histogram: Dict[str, int] = field(default_factory=dict)
    complete: bool = True
    nodes: int = 0  # of the scan's one search
    rows: int = 0  # the search's candidate group rows, not their members
    listed: int = 0  # the group rows whose members were listed


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


def family_rules(family: str, params: dict, q: DivisorQuery,
                 table: Optional[FrequencyTable], gamma: float) -> list:
    """Exception rules of a potential family, in priority order: none for a
    family without a theorem of its own (nls_cosine, explicit, none)."""
    if family == "convolution_d":
        # the real-symmetric coefficient slice makes omega_k = omega_{-k}
        # exactly, so pure pair cancellations are degenerate by
        # construction and exempted at any index; SHELL wins over them
        return [_exception_rule("shell", {
            "N": q.N, "alpha": q.alpha, "m_decay": _param(params, "decay")}),
            (PATTERN_PAIR_TAIL, 0.0)]
    if family == "nlw_periodic":
        b = calibrate_pair_cutoff(table, gamma, q.alpha, q.N).b \
            if params.get("b") is None else _param(params, "b")
        return [_exception_rule("nlw_periodic", {"b": b, "N": q.N})]
    return []


def measure_scan(family: str, params: dict, q: DivisorQuery,
                 gammas: Sequence[float], samples: int, seed: int
                 ) -> List[MeasureEstimate]:
    """Violation fraction per gamma over one shared set of sampled potentials.

    A sample violates at gamma when it has any hit classified NONE.  Reusing
    the same potentials across the grid makes the fraction exactly
    nonincreasing in gamma.  A sample whose table fails (SpectralError) is
    skipped.  convolution_d draws every sample's frequencies as one array
    (`convolution_columns`); the 1-d families build one table per draw.
    One search (`_scan`) over the box of the draws decides every sample.
    A group hit counts the tag histogram of its group row's members, a
    member hit (a listed member within the rounding band) its own tag,
    under its (gamma, sample)'s exception rules, asked for once per gamma,
    and per kept draw too where they read its table.  The histograms of
    group rows clear of the band are counted, not listed; `listed` counts
    the group rows whose members were listed.
    """
    if samples < 30:
        raise ValueError("resonance.samples: must be >= 30")
    if not all(g > 0 for g in gammas):
        raise ValueError("resonance.gammas: must be > 0")
    f = family.lower()
    gammas = sorted(gammas, reverse=True)
    thrs = [g / q.N ** q.alpha for g in gammas]
    seeds, tables = sample_seeds(seed, samples), []
    if f == CONVOLUTION_D:  # every draw's lattice frequencies as one array
        modes, W = convolution_columns(params, seeds, q.jmax)
    else:
        for s in seeds:
            sample = sample_potential(f, params, s)
            try:  # the periodic wave model or the Dirichlet NLS
                tables.append(periodic_nlw_table(sample, int(q.jmax))[0]
                              if f == NLW_PERIODIC else
                              FrequencyTable(mode_eigenvalues(sturm_liouville(
                                  sample, "dirichlet", int(q.jmax)))))
            except SpectralError:
                continue
        modes, W = [], np.zeros((0, 0))
        if tables:
            modes = _domain(replace(q, omega=tables[0]))[0]
            W = np.column_stack([t.vector(modes) for t in tables])
    tail = [not in_ball(m, q.N) for m in modes]
    n_eff = W.shape[1]
    violates = np.zeros((len(gammas), n_eff), dtype=bool)
    counts = np.zeros((len(gammas), len(PATTERNS)), dtype=np.int64)
    complete, nodes, rows, listed = True, 0, 0, 0
    if n_eff:
        # only a calibrated nlw_periodic reads its table for the rules
        per = tables if f == NLW_PERIODIC and params.get("b") is None \
            else [None]
        rule_sets: Dict[tuple, int] = {}
        rule_of = np.broadcast_to(np.array([[rule_sets.setdefault(
            tuple(family_rules(f, params, q, t, g)), len(rule_sets))
            for g in gammas] for t in per]).T, (len(gammas), n_eff))
        compiled = [compile_rules(modes, rules) for rules in rule_sets]
        complete, nodes, rows, pieces = _scan(modes, W, tail, thrs, q.r + 2,
                                              q.node_cap, compiled)
        one = np.eye(len(PATTERNS), dtype=np.int64)
        for p in pieces:
            listed += p.listed
            for gi, ((g, s), (m, ms)) in enumerate(p.found):
                h = np.concatenate([p.hist[rule_of[gi, s], g],
                                    one[p.codes[rule_of[gi, ms], m]]])
                counts[gi] += 2 * h.sum(axis=0)  # row k stands for +-k
                violates[gi, np.concatenate([s, ms])[h[:, 0] > 0]] = True

    out = []
    for gi, g in enumerate(gammas):
        v = int(violates[gi].sum())
        lo, hi, _ = wilson_interval(v, n_eff)
        out.append(MeasureEstimate(
            gamma=g, threshold=thrs[gi], samples=samples,
            skipped=samples - n_eff, violations=v,
            fraction=v / n_eff if n_eff else 0.0, wilson_low=lo,
            wilson_high=hi, pattern_histogram={t: n for t, n in zip(
                PATTERNS, counts[gi].tolist()) if n},
            complete=complete, nodes=nodes, rows=rows, listed=listed))
    return out


# -- CSV -----------------------------------------------------------------


def write_hits_csv(result: EnumerationResult, path) -> None:
    # the token of slot (i, e) at [i + 1, e + top], each made once; row 0,
    # the padding's, is "" (top = r+2 bounds every |exponent|)
    top, rows = result.exp.shape[1], len(result.divisor)
    tokens = np.array([[""] * (2 * top + 1)] + [
        ["%s:%d" % (text, e) for e in range(-top, top + 1)]
        for text in map(mode_str, result.modes)], dtype=object)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k_serialized", "divisor", "pattern"])
        for b in np.array_split(np.arange(rows), 1 + rows // 65536):
            k = tokens[result.idx[b] + 1, result.exp[b] + top].tolist()
            k = map(str.rstrip, map(" ".join, k))
            w.writerows(zip(k, map(f17, result.divisor[b].tolist()),
                            [PATTERNS[c] for c in result.code[b].tolist()]))


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
