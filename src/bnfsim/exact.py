"""Exact Gaussian-rational coefficients for oracle-grade algebra tests.

Polynomial operations are duck-typed over their coefficient arithmetic, so
switching complex floats for GaussRat gives exactly-zero identities (bracket
antisymmetry, Jacobi, Leibniz) instead of 1e-12 ones.  Only the operations
the bracket algebra needs are implemented.
"""
from __future__ import annotations

import math
from fractions import Fraction


class GaussRat:
    """A Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def times_i(self):
        return GaussRat(-self.im, self.re)

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)


def _coerce(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x, 0)
    return NotImplemented
