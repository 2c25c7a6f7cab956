"""Jet arithmetic against closed forms and the finite-difference oracle."""

import math

import numpy as np
import pytest

from kahlercheck.errors import ConfigurationError, OrderError, SingularJetError
from kahlercheck.jets import (
    WirtingerJet,
    _JetSpace,
    derivative,
    derivative_block,
    jet_constant,
    jet_mat_det,
    jet_mat_inv,
    jet_mat_mul,
    jet_variable,
    quadratic_jet,
    variable_jets,
)
from reference import fd_cross_check, jet_mat_trace, mul_table_by_pairs


def random_jet(rng, m, order, scale=1.0):
    space = jet_constant(0.0, m, order).space
    coeffs = scale * (rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size))
    return WirtingerJet(space, coeffs)


def abs2(j):
    return j * j.conj()


# -- basic structure ----------------------------------------------------------------


def test_variable_jet_coefficients():
    z = jet_variable(0, 0.5 + 0.25j, 1, 3)
    assert z.value == 0.5 + 0.25j
    assert derivative(z, (1,), (0,)) == 1.0
    assert derivative(z, (0,), (1,)) == 0.0
    assert derivative(z, (2,), (0,)) == 0.0


def test_conj_swaps_slots():
    z = jet_variable(0, 0.3 - 0.7j, 1, 2)
    zb = z.conj()
    assert zb.value == 0.3 + 0.7j
    assert derivative(zb, (0,), (1,)) == 1.0
    assert derivative(zb, (1,), (0,)) == 0.0


def test_abs2_mixed_coefficient():
    z = jet_variable(0, 0.0, 1, 2)
    f = abs2(z)
    assert derivative(f, (1,), (1,)) == pytest.approx(1.0)
    assert derivative(f, (2,), (0,)) == 0.0


def test_ball_potential_derivative_at_origin():
    # -log(1 - |z|^2) has d^2/dz dzbar equal to 1 at z = 0
    z = jet_variable(0, 0.0, 1, 4)
    phi = -(1 - abs2(z)).log()
    assert derivative(phi, (1,), (1,)) == pytest.approx(1.0, abs=1e-14)
    # quartic term of the expansion t + t^2/2 + ...
    assert complex(phi.coeffs[phi.space.index[(2, 2)]]) == pytest.approx(0.5, abs=1e-14)


def test_holomorphic_jets_have_no_antiholomorphic_part():
    z1, z2 = variable_jets([0.2 + 0.1j, -0.3j], 2, 3)
    f = (z1 * z1 * z2 + 2.5 * z2) / (1 + z1 * 0.25)
    for idx, mono in enumerate(f.space.monomials):
        if any(mono[2:]):
            assert abs(f.coeffs[idx]) < 1e-14


# -- ring and analytic identities -------------------------------------------------------


def test_product_derivative_matches_convolution():
    rng = np.random.default_rng(11)
    a = random_jet(rng, 2, 3)
    b = random_jet(rng, 2, 3)
    prod = a * b
    # independent convolution: sum over exponent splits
    for idx, mono in enumerate(prod.space.monomials):
        acc = 0.0 + 0.0j
        for i, ei in enumerate(a.space.monomials):
            rem = tuple(m - e for m, e in zip(mono, ei))
            if min(rem) < 0:
                continue
            acc += a.coeffs[i] * b.coeffs[b.space.index[rem]]
        assert abs(prod.coeffs[idx] - acc) < 1e-12


def test_log_exp_roundtrip():
    rng = np.random.default_rng(5)
    j = random_jet(rng, 2, 4, scale=0.3) + 2.0
    back = j.log().exp()
    assert np.max(np.abs(back.coeffs - j.coeffs)) < 1e-12
    fwd = j.exp().log()
    assert np.max(np.abs(fwd.coeffs - j.coeffs)) < 1e-12


def test_reciprocal_roundtrip():
    rng = np.random.default_rng(6)
    j = random_jet(rng, 1, 4, scale=0.5) + 1.5
    one = j * j.reciprocal()
    expected = np.zeros_like(one.coeffs)
    expected[0] = 1.0
    assert np.max(np.abs(one.coeffs - expected)) < 1e-12


def test_division_by_near_zero_constant_is_singular():
    z = jet_variable(0, 0.0, 1, 3)
    with pytest.raises(SingularJetError):
        (1 / z).value
    with pytest.raises(SingularJetError):
        z.log()


def test_order_and_variable_limits():
    with pytest.raises(ConfigurationError):
        jet_constant(1.0, 5, 2)
    with pytest.raises(ConfigurationError):
        jet_constant(1.0, 1, 99)
    j = jet_variable(0, 1.0, 1, 2)
    with pytest.raises(OrderError):
        derivative(j, (2,), (1,))
    for a, b in (((1, 0), (0,)), ((-1,), (1,))):  # a wrong length, a negative entry
        with pytest.raises(ConfigurationError, match="invalid for m=1"):
            derivative(j, a, b)
    with pytest.raises(ConfigurationError):
        jet_variable(3, 0.0, 2, 2)


def test_jets_of_different_orders_do_not_mix():
    a = jet_variable(0, 1.0, 1, 4)
    b = jet_variable(0, 1.0, 1, 2)
    for op in (lambda: a * b, lambda: a + b, lambda: b * a, lambda: b + a):
        with pytest.raises(ConfigurationError, match="matching orders"):
            op()
    assert a.truncated(2).order == 2
    with pytest.raises(OrderError):
        b.truncated(4)


# -- finite-difference oracle -----------------------------------------------------------


CHART_FIELDS = {
    "flat2": lambda p: float(np.sum(np.abs(p) ** 2)),
    "ball2": lambda p: -np.log(1 - np.sum(np.abs(p) ** 2)),
    "fs2": lambda p: np.log(1 + np.sum(np.abs(p) ** 2)),
    "disk_component": lambda p: 4.0 / (1 - abs(p[0]) ** 2) ** 2,
}

JET_FIELDS = {
    "flat2": lambda zs: sum((abs2(z) for z in zs[1:]), abs2(zs[0])),
    "ball2": lambda zs: -(1 - sum((abs2(z) for z in zs[1:]), abs2(zs[0]))).log(),
    "fs2": lambda zs: (1 + sum((abs2(z) for z in zs[1:]), abs2(zs[0]))).log(),
    "disk_component": lambda zs: 4.0 / ((1 - abs2(zs[0])) ** 2),
}


@pytest.mark.parametrize("name", sorted(CHART_FIELDS))
def test_fd_oracle_matches_jets(name):
    field = CHART_FIELDS[name]
    jet_field = JET_FIELDS[name]
    m = 1 if name == "disk_component" else 2
    rng = np.random.default_rng(42)
    space = jet_constant(0.0, m, 2).space
    pairs = [(mono[:m], mono[m:]) for mono in space.monomials if 0 < sum(mono) <= 2]
    for _ in range(25):
        pt = 0.4 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2)
        jet = jet_field(variable_jets(pt, m, 2))
        for a, b in pairs:
            got = derivative(jet, a, b)
            want = fd_cross_check(field, pt, a, b)
            assert abs(got - want) <= 1e-6 * (1 + abs(got))


def test_fd_oracle_rejects_high_orders_and_bad_steps():
    with pytest.raises(ConfigurationError):
        fd_cross_check(CHART_FIELDS["flat2"], [0.1, 0.1], (2,0), (1,0))
    with pytest.raises(ConfigurationError):
        fd_cross_check(CHART_FIELDS["flat2"], [0.1, 0.1], (1,0), (0,0), step=0.0)
    for a, b in (((1,), (0, 0)), ((-1, 0), (1, 0))):  # a wrong length, a negative entry
        with pytest.raises(ConfigurationError, match="invalid for m=2"):
            fd_cross_check(CHART_FIELDS["flat2"], [0.1, 0.1], a, b)


# -- jet matrices -------------------------------------------------------------------------


def test_jet_matrix_inverse_and_det():
    rng = np.random.default_rng(9)
    m = 3
    mat = [[random_jet(rng, 2, 3, scale=0.2) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        mat[i][i] = mat[i][i] + 2.0
    inv = jet_mat_inv(mat)
    prod = jet_mat_mul(mat, inv)
    for i in range(m):
        for j in range(m):
            target = 1.0 if i == j else 0.0
            expected = np.zeros_like(prod[i][j].coeffs)
            expected[0] = target
            assert np.max(np.abs(prod[i][j].coeffs - expected)) < 1e-10
    # det of triangularizable sanity: det(I * c) = c^m
    c = jet_constant(2.0, 2, 3)
    ident = [[c if i == j else jet_constant(0.0, 2, 3) for j in range(m)] for i in range(m)]
    assert jet_mat_det(ident).value == pytest.approx(8.0)
    assert jet_mat_trace(ident).value == pytest.approx(6.0)


@pytest.mark.parametrize("m,order", [(1, 2), (2, 2), (2, 4), (3, 3)])
def test_derivative_block_matches_derivative(m, order):
    rng = np.random.default_rng(17)
    grid = [[random_jet(rng, m, order) for _ in range(2)] for _ in range(3)]
    units = np.eye(m, dtype=int)
    zero = (0,) * m
    grad = derivative_block(grid, "grad")
    levi = derivative_block(grid, "levi")
    hess = derivative_block(grid, "hess")
    assert grad.shape == (3, 2, m) and levi.shape == hess.shape == (3, 2, m, m)
    for i in range(3):
        for j in range(2):
            jet = grid[i][j]
            for a in range(m):
                assert grad[i, j, a] == derivative(jet, units[a], zero)
                for b in range(m):
                    assert levi[i, j, a, b] == derivative(jet, units[a], units[b])
                    assert hess[i, j, a, b] == derivative(jet, units[a] + units[b], zero)
    assert np.array_equal(derivative_block(grid[0][0], "levi"), levi[0, 0])


def test_derivative_block_needs_the_order():
    jet = jet_variable(0, 0.3, 2, 1)
    assert np.array_equal(derivative_block(jet, "grad"), [1.0, 0.0])
    with pytest.raises(OrderError):
        derivative_block(jet, "levi")
    with pytest.raises(ConfigurationError):
        derivative_block(jet, "curl")


@pytest.mark.parametrize("num_vars, order",
                         [(m, n) for m in range(1, 5) for n in range(5)] + [(2, 8)])
def test_the_multiplication_table_is_the_pair_by_pair_one(num_vars, order):
    got = _JetSpace(num_vars, order).mul_table
    want = mul_table_by_pairs(_JetSpace(num_vars, order))
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_antiholomorphic_ranks_mark_barred_monomials():
    space = jet_constant(0.0, 2, 3).space
    barred = set(space.antiholomorphic.tolist())
    for rank, exps in enumerate(space.monomials):
        assert (rank in barred) == any(exps[2:])
    assert jet_constant(0.0, 2, 0).space.antiholomorphic.size == 0


def test_quadratic_jet_is_the_polynomial_in_the_displacement():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    value, grad, quad = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                         for shape in ((3,), (3, 2), (3, 2, 2)))
    dz = [z - points[:, c] for c, z in enumerate(variable_jets(points, 2, 2))]
    want = jet_constant(value, 2, 2, (3,))
    for c in range(2):
        want = want + grad[:, c] * dz[c]
        for d in range(2):
            want = want + quad[:, c, d] * dz[c] * dz[d]
    got = quadratic_jet(value, grad, quad)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-14)
    assert got.order == 2 and got.points == (3,)
