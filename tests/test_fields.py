import random

import numpy as np
import pytest

from bnfsim import dynamics as D
from bnfsim import poly
from bnfsim.fields import (Leg, QuadratureField, _row_blocks,
                           eta_gradient_table, value_table)


def test_quadrature_field_repeated_leg_and_variable():
    # one leg u = 2 xi_1 + xi_1 - eta_2 (xi_1 listed twice) on three grid
    # points, passed four times as the same object
    rows = np.array([[1.0, 0.5, -0.2], [1.0, 0.5, -0.2], [0.25, -1.0, 0.7]])
    leg = Leg(np.array([0, 0, 3]), np.array([2.0, 1.0, -1.0]), rows)
    layout = [(1,), (2,)]
    quad = QuadratureField(2, (leg,) * 4, 0.3)
    P = D._assemble_quartic(layout, (leg,) * 4, 1.0, 0.3)
    x = np.array([0.4 + 0.1j, -0.2 + 0.3j])
    u = 3.0 * x[0] * rows[0] - np.conj(x[1]) * rows[2]
    assert value_table(P, layout).eval(x) == pytest.approx(
        0.3 * np.sum(u ** 4), rel=1e-14)
    F = eta_gradient_table(P, layout).eval(x)
    assert np.max(np.abs(quad.eval(x) - F)) <= 1e-14 * np.max(np.abs(F))


def random_polynomial(seed, nterms=60, modes=5):
    rnd = random.Random(seed)
    terms = {}
    for _ in range(nterms):
        deg = rnd.randint(1, 6)
        xi, eta = {}, {}
        for _ in range(deg):
            side = xi if rnd.random() < 0.5 else eta
            m = rnd.randint(1, modes)
            side[m] = side.get(m, 0) + 1
        terms[poly.Monomial(xi, eta)] = complex(rnd.uniform(-1, 1),
                                               rnd.uniform(-1, 1))
    return poly.Polynomial(terms)


def test_column_products_match_row_products():
    p = random_polynomial(19)
    layout = [(m,) for m in range(1, 6)]
    field = eta_gradient_table(p, layout)
    value = value_table(p, layout)
    assert field.vidx.flags["F_CONTIGUOUS"]
    n = len(layout)
    rng = np.random.default_rng(np.random.SeedSequence(23))
    for _ in range(5):
        x = 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        G = np.concatenate([x, np.conj(x), [1.0]])
        vals = field.coeff * np.prod(G[field.vidx], axis=1)
        ref = (np.bincount(field.out, vals.real, minlength=n)
               + 1j * np.bincount(field.out, vals.imag, minlength=n))
        assert np.max(np.abs(field.eval(x) - ref)) \
            <= 1e-15 * np.max(np.abs(ref))
        vref = complex(np.sum(value.coeff * np.prod(G[value.vidx], axis=1)))
        assert abs(value.eval(x) - vref) <= 1e-15 * abs(vref)


@pytest.mark.parametrize("batch", [0, 1, 7, 300])
def test_batched_eval_matches_single_evaluations(batch):
    # 300 states split the table into several row blocks
    p = random_polynomial(29, nterms=200)
    layout = [(m,) for m in range(1, 6)]
    field = eta_gradient_table(p, layout)
    value = value_table(p, layout)
    if batch == 300:
        assert len(_row_blocks(len(field.coeff), batch)) >= 3
    rng = np.random.default_rng(np.random.SeedSequence(31))
    X = 0.8 * (rng.standard_normal((batch, 5))
               + 1j * rng.standard_normal((batch, 5)))
    F = field.eval(X)
    V = value.eval(X)
    assert F.shape == (batch, 5) and V.shape == (batch,)
    for x, f, v in zip(X, F, V):
        one = field.eval(x)
        assert one.shape == (5,)
        assert np.max(np.abs(f - one)) <= 1e-15 * np.max(np.abs(one))
        # the value sums all terms into one number, which may cancel: its
        # rounding scales with the sum of the terms' moduli
        G = np.abs(np.concatenate([x, np.conj(x), [1.0]]))
        mass = np.sum(np.abs(value.coeff) * np.prod(G[value.vidx], axis=1))
        assert abs(v - value.eval(x)) <= 1e-15 * mass
    empty = eta_gradient_table(poly.zero(), layout)
    assert np.array_equal(empty.eval(X), np.zeros((batch, 5)))
    assert np.array_equal(empty.eval(np.ones(5)), np.zeros(5))
    assert np.array_equal(value_table(poly.zero(), layout).eval(X),
                          np.zeros(batch))
