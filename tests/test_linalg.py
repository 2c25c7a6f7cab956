import numpy as np
import pytest
import scipy.linalg

from kahlercheck.errors import FrameError, MetricError
from kahlercheck.linalg import (
    check_positive_definite,
    cholesky_frame,
    frame_normalizer,
    g_orthonormalize,
    haar_unitary,
    pencil_eigh,
    rng_for,
)


def random_metric(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m @ m.conj().T + dim * np.eye(dim)


def test_frame_normalizer_orthonormalizes():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 4):
        g = random_metric(rng, dim)
        c = frame_normalizer(g)
        np.testing.assert_allclose(c.T @ g @ c.conj(), np.eye(dim), atol=1e-10)


def test_g_orthonormalize_preserves_span_and_normalizes():
    rng = np.random.default_rng(4)
    g = random_metric(rng, 4)
    v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    w = g_orthonormalize(g, v)
    np.testing.assert_allclose(w.T @ g @ w.conj(), np.eye(2), atol=1e-10)
    # columns of w stay inside the span of v
    proj, *_ = np.linalg.lstsq(v, w, rcond=None)
    np.testing.assert_allclose(v @ proj, w, atol=1e-9)


def test_g_orthonormalize_rejects_dependent_vectors():
    g = np.eye(3, dtype=complex)
    v = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(FrameError):
        g_orthonormalize(g, v)


def test_pencil_eigenvalues_are_ratio_extremes():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 4):
        g = random_metric(rng, dim)
        a = random_metric(rng, dim) - 2 * np.eye(dim)
        vals, vecs = pencil_eigh(a, g)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals, scipy.linalg.eigh(a, g, eigvals_only=True),
                                   rtol=1e-13, atol=0)
        for k in range(dim):
            v = vecs[:, k]
            num = v @ a @ v.conj()
            den = v @ g @ v.conj()
            assert abs(den - 1.0) <= 1e-10
            assert abs(num / den - vals[k]) <= 1e-10
        # sampled ratios never escape the eigenvalue range
        for _ in range(200):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            ratio = ((v @ a @ v.conj()) / (v @ g @ v.conj())).real
            assert vals[0] - 1e-10 <= ratio <= vals[-1] + 1e-10


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, rng_for(11, 0))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    again = haar_unitary(4, rng_for(11, 0))
    np.testing.assert_array_equal(u, again)
    other = haar_unitary(4, rng_for(11, 1))
    assert np.max(np.abs(u - other)) > 1e-3


def test_validation_rejects_bad_metrics():
    with pytest.raises(MetricError):
        check_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(MetricError):
        check_positive_definite(np.diag([1.0, -2.0]).astype(complex))


def test_stacked_check_names_the_first_bad_matrix():
    rng = np.random.default_rng(8)
    stack = np.array([random_metric(rng, 3) for _ in range(6)])
    np.testing.assert_array_equal(check_positive_definite(stack),
                                  [check_positive_definite(g) for g in stack])
    stack[3] = np.diag([1.0, -0.5, 2.0])
    stack[5] = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(MetricError, match=r"^g \(matrix 3\) is not positive definite "
                                          r"\(min eigenvalue -5\.000e-01\)$"):
        check_positive_definite(stack, "g")
    with pytest.raises(MetricError, match=r"^g is not positive definite \(min eigenvalue"):
        check_positive_definite(stack[3], "g")
    with pytest.raises(MetricError, match=r"^g \(matrix 1\) is not positive definite"):
        check_positive_definite(stack[2:].reshape(2, 2, 3, 3), "g")
    # Hermitian defects, NaN and inf entries are caught before any decomposition
    stack[4, 0, 1] += 1.0
    with pytest.raises(MetricError, match=r"^g \(matrix 4\) is not Hermitian \(defect 1\.000e\+00\)$"):
        check_positive_definite(stack, "g")
    for entry in (np.nan, np.inf):
        stack[1, 2, 2] = entry
        with pytest.raises(MetricError, match=r"^g \(matrix 1\) is not Hermitian"), \
                np.errstate(invalid="ignore"):  # inf − inf
            check_positive_definite(stack, "g")
    # an off-diagonal inf whose mirror is finite, against a defect scaled by the entries
    stack[1, 2, 2] = 1.0
    stack[1, 0, 2] = np.inf
    with pytest.raises(MetricError, match=r"^g \(matrix 1\) is not Hermitian \(defect inf\)$"):
        check_positive_definite(stack, "g")


def test_stacked_cholesky_frame_equals_the_per_matrix_result():
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3):
        stack = check_positive_definite(np.array([random_metric(rng, dim) for _ in range(5)]))
        frames = cholesky_frame(stack)
        eye = np.eye(dim, dtype=complex)
        for g, frame in zip(stack, frames):
            assert np.array_equal(frame, cholesky_frame(g))
            want = scipy.linalg.solve_triangular(np.linalg.cholesky(g), eye, lower=True).T
            np.testing.assert_allclose(frame, want, rtol=1e-14, atol=0)
            np.testing.assert_allclose(frame.T @ g @ frame.conj(), eye, atol=1e-12)
        assert cholesky_frame(stack[:4].reshape(2, 2, dim, dim)).shape == (2, 2, dim, dim)


def test_rayleigh_quotient_reads_numbers_and_jets_alike():
    from kahlercheck.jets import jet_constant, jet_mat_inv, variable_jets
    from reference import rayleigh_quotient

    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = x @ x.conj().T + 3 * np.eye(3)
    y = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    a = y @ y.conj().T
    c = np.conj(np.linalg.inv(g))
    for s in range(3):
        want = np.einsum("b,ab,a->", c[s, :], a, c[:, s]) / c[s, s]
        assert rayleigh_quotient(a, c, s) == pytest.approx(want, rel=1e-13)
    # the same body on jets: g and a as functions of one variable z, at z = 0.2
    zs = variable_jets([0.2], 1, 2)
    g_jets = [[jet_constant(g[i, j], 1, 2) + (i == j) * zs[0] * zs[0].conj()
               for j in range(3)] for i in range(3)]
    a_jets = [[jet_constant(a[i, j], 1, 2) for j in range(3)] for i in range(3)]
    c_jets = [[entry.conj() for entry in row] for row in jet_mat_inv(g_jets)]
    g_here = g + 0.04 * np.eye(3)
    want = rayleigh_quotient(a, np.conj(np.linalg.inv(g_here)), 1)
    assert rayleigh_quotient(a_jets, c_jets, 1).value == pytest.approx(want, rel=1e-12)
