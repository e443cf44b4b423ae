import random

import numpy as np
import pytest

from bnfsim import birkhoff as B
from bnfsim import cli
from bnfsim import dynamics as D
from bnfsim import poly
from bnfsim.fields import (Leg, QuadratureField, _row_blocks,
                           eta_gradient_table, value_table)

from helpers import field_table_eval_reference, table_reference


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


def test_successive_evals_return_distinct_arrays():
    # each eval runs into a fresh array, so a kept result stays as it was;
    # a kernel run writes the bits eval returns
    sys1 = D.build_model_hamiltonian("nls1d_dirichlet", jmax=6, kappa=0.25)
    layout = sys1.modes()
    rng = np.random.default_rng(np.random.SeedSequence(73))
    x, y = 0.3 * (rng.standard_normal((2, len(layout)))
                  + 1j * rng.standard_normal((2, len(layout))))
    for field in (sys1.quadrature_field(),
                  eta_gradient_table(sys1.P, layout)):
        F = field.eval(x)
        kept = F.copy()
        G = field.eval(y)
        assert not np.shares_memory(F, G)
        assert np.array_equal(F, kept) and not np.array_equal(F, G)
        kern = field.kernel()
        kern.x[:] = y
        out = np.empty(len(layout), dtype=complex)
        kern.run(out)
        assert np.array_equal(out, G)


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


def lattice_polynomial(seed, nterms=60):
    """Terms over d=2 modes with exponents 1 to 3 on either side."""
    rnd = random.Random(seed)
    grid = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 2)]

    def side(least):
        return {rnd.choice(grid): rnd.randint(1, 3)
                for _ in range(rnd.randint(least, 3))}
    return poly.Polynomial({poly.Monomial(side(0), side(1)):
                            complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
                            for _ in range(nterms)})


def test_tables_match_the_per_term_compile():
    # the same rows, factor indices and coefficient bits, signed zeros too,
    # on layouts wider than the polynomial, on d=2 modes with exponents
    # above 1, and on an empty polynomial
    p = random_polynomial(37, nterms=80)
    signed = poly.Polynomial({m: complex(-0.0, c.imag) if k % 2 else c.real
                              for k, (m, c) in enumerate(p.terms.items())})
    line = [(m,) for m in range(0, 7)]
    lattice = [(a, b) for a in (-1, 0, 1, 3) for b in (-1, 0, 1, 2)]
    for q, layout in ((p, line), (signed, line), (poly.zero(), line),
                      (lattice_polynomial(43), lattice)):
        for grad, compile_ in ((True, eta_gradient_table),
                               (False, value_table)):
            table = compile_(q, layout)
            ms, vidx, coeff, out = table_reference(q, layout, grad)
            assert table.modes == ms
            assert np.array_equal(table.vidx, vidx)
            assert table.vidx.flags["F_CONTIGUOUS"]
            assert table.coeff.tobytes() == coeff.tobytes()
            if grad:
                assert np.array_equal(table.out, out)


def test_table_eval_is_bit_equal_to_the_dense_scatter_reference():
    # each block's 0/1 map built from `out` is the block's columns of the
    # whole table's map, so BLAS takes the same product: the transport
    # workload's 720-row generator table, the 27,261-row d=2 jmax=4 P table
    # of nls_dd, an empty table and a one-mode table
    cfg = {"model": "nls1d_dirichlet", "jmax": 6, "kappa": 0.25,
           "potential.family": "nls_cosine",
           "potential.params": {"R": 0.5, "sigma": 0.4, "kmax": 9},
           "potential.seed": 3, "r_star": 2, "gamma": 0.002, "N": 6,
           "s": 4.0}
    system = cli.build_system(cfg, 0)
    res = B.normalize(system.table, system.P, cli.resolved_params(cfg))
    [transport] = B.transport_plan(res.generators, system.modes()).steps
    dd = D.build_model_hamiltonian("nls_dd", d=2, jmax=4, kappa=0.1)
    big = eta_gradient_table(dd.P, dd.modes())
    assert (len(transport.out), len(big.out), len(big.modes)) == \
        (720, 27261, 49)
    empty = eta_gradient_table(poly.zero(), [(1,), (2,)])
    one = eta_gradient_table(poly.monomial(0.5, xi={1: 2}, eta={1: 2})
                             + poly.monomial(-1.5, xi={1: 1}, eta={1: 1}),
                             [(1,)])
    rng = np.random.default_rng(np.random.SeedSequence(61))
    for table in (transport, big, empty, one):
        n = len(table.modes)
        for batch in (1, 2, 3, 5, 8, 13, 41, 64, 100):
            X = 0.3 * (rng.standard_normal((batch, n))
                       + 1j * rng.standard_normal((batch, n)))
            assert np.array_equal(table.eval(X),
                                  field_table_eval_reference(table, X))
        x = X[0]
        assert table.eval(x).shape == (n,)
        assert np.array_equal(table.eval(x),
                              field_table_eval_reference(table, x))
