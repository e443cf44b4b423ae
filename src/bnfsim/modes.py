"""Mode labels, Sobolev-type mode weights and the CSV float format.

A mode is a point of the integer lattice Z^d, stored as a tuple of ints.
For 1-d problems plain ints are accepted everywhere and normalized to
1-tuples internally.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence, Union

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
    """Euclidean norm |j| of a lattice mode."""
    m = as_mode(j)
    if len(m) == 1:
        return float(abs(m[0]))
    return math.sqrt(sum(c * c for c in m))


def mode_abs2(j: ModeLike) -> int:
    """Squared Euclidean norm, exact integer."""
    m = as_mode(j)
    return sum(c * c for c in m)


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


@functools.lru_cache(maxsize=64)
def lattice_modes(d: int, jmax: float) -> tuple:
    """All modes of Z^d with Euclidean norm <= jmax (the zero mode
    included), canonically sorted; kept, since every sample of a scan asks
    for the same lattice."""
    jmax2 = jmax * jmax + 1e-12
    rng = range(-int(jmax), int(jmax) + 1)
    # product runs in lexicographic order, which is the sorted order
    return tuple(k for k in itertools.product(rng, repeat=d)
                 if sum(c * c for c in k) <= jmax2)


def f17(x) -> str:
    """CSV text of a float: 17 significant digits round-trip a double."""
    return "%.17g" % float(x)
