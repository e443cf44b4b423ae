"""Mode labels and geometry, Sobolev-type mode weights and the CSV format.

A mode is a point of Z^d, a tuple of ints (plain ints are 1-d modes).  The
geometry is stated here once: the ball |j| <= r (`in_ball`) and the groups
of modes, the pairs {j, -j} or the shells |j|^2 = M (`mode_groups`).
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence, Union

import numpy as np

ModeLike = Union[int, Sequence[int]]
Mode = tuple


def as_mode(j: ModeLike) -> tuple:
    """Canonical tuple form of a mode label."""
    if isinstance(j, tuple):
        return j
    if isinstance(j, int):
        return (j,)
    return tuple(int(c) for c in j)


def mode_abs(j: ModeLike) -> float:
    """Euclidean norm |j| of a lattice mode, rounded once from |j|^2."""
    m = as_mode(j)
    if len(m) == 1:
        return float(abs(m[0]))
    return math.sqrt(sum(c * c for c in m))


def mode_abs2(j: ModeLike) -> int:
    """Squared Euclidean norm, exact integer."""
    m = as_mode(j)
    return sum(c * c for c in m)


def in_ball(j: ModeLike, r: float) -> bool:
    """|j| <= r: a radius math.sqrt(M) holds the shell |j|^2 = M, not M+1."""
    return mode_abs(j) <= r


def mode_groups(modes: Sequence[ModeLike], shells: bool) -> np.ndarray:
    """The mode -> group indicator, one column per group in order of first
    member: the shells |j|^2 = M when shells, else the pairs {j, -j}, where
    a mode without its partner, like the zero mode, is alone."""
    keys = [mode_abs2(j) if shells else min(j, tuple(-c for c in j))
            for j in modes]
    col = {k: g for g, k in enumerate(dict.fromkeys(keys))}
    G = np.zeros((len(keys), len(col)), dtype=np.int64)
    G[np.arange(len(keys)), [col[k] for k in keys]] = 1
    return G


def weight(j: ModeLike, s: float) -> float:
    """Mode weight w_s(j) = (1 + |j|)^(2 s)."""
    return (1.0 + mode_abs(j)) ** (2.0 * s)


def mode_str(j: ModeLike) -> str:
    m = as_mode(j)
    if len(m) == 1:
        return str(m[0])
    return ",".join(str(c) for c in m)


def parse_mode(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def lattice_modes(d: int, jmax: float) -> tuple:
    """All modes of Z^d with Euclidean norm <= jmax (the zero mode
    included), canonically sorted."""
    rng = range(-int(jmax), int(jmax) + 1)
    # product runs in lexicographic order, which is the sorted order
    return tuple(k for k in itertools.product(rng, repeat=d)
                 if in_ball(k, jmax))


def f17(x) -> str:
    """CSV text of a float: 17 significant digits round-trip a double."""
    return "%.17g" % float(x)
