"""Hermitian-form linear algebra shared by the geometry and map layers.

Conventions, used consistently everywhere downstream:

* a metric matrix ``G`` stores ``G[a, b] = <e_a, e_b>`` and is Hermitian
  in the numpy sense (``G == G.conj().T``) and positive definite;
* the pairing of coefficient vectors is ``u @ G @ v.conj()``;
* a frame is the columns of a matrix ``E``; the frame is orthonormal for
  ``G`` when ``E.T @ G @ E.conj() == I``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import FrameError, MetricError

HERMITIAN_TOL = 1e-10
DEFINITENESS_FLOOR = 1e-10


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for a seed plus a stream-identifying key path."""
    return np.random.default_rng([int(seed), *map(int, keys)])


def hermitian_inner(u: np.ndarray, v: np.ndarray, g: np.ndarray) -> complex:
    return complex(np.asarray(u) @ g @ np.asarray(v).conj())


def check_hermitian(g: np.ndarray, label: str = "metric") -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    defect = np.max(np.abs(g - g.conj().T)) if g.size else 0.0
    if defect > HERMITIAN_TOL:
        raise MetricError(f"{label} is not Hermitian (defect {defect:.3e})")
    return 0.5 * (g + g.conj().T)


def check_positive_definite(g: np.ndarray, label: str = "metric") -> np.ndarray:
    """Validate and return the symmetrized matrix; eigenvalue floor 1e-10."""
    g = check_hermitian(g, label)
    smallest = scipy.linalg.eigvalsh(g)[0]
    if smallest <= DEFINITENESS_FLOOR:
        raise MetricError(f"{label} is not positive definite (min eigenvalue {smallest:.3e})")
    return g


def frame_normalizer(g: np.ndarray) -> np.ndarray:
    """Columns of the result are a g-orthonormal frame: ``C.T @ g @ C.conj() = I``."""
    return cholesky_frame(check_positive_definite(g))


def cholesky_frame(g: np.ndarray) -> np.ndarray:
    """:func:`frame_normalizer` for a ``g`` that :func:`check_positive_definite` returned."""
    chol = np.linalg.cholesky(g)  # g = L L^H
    return scipy.linalg.solve_triangular(chol, np.eye(len(g), dtype=complex), lower=True).T


def g_orthonormalize(g: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Replace the columns of ``vectors`` by a g-orthonormal frame of their span."""
    vectors = np.asarray(vectors, dtype=complex)
    gram = check_hermitian(vectors.T @ g @ vectors.conj(), "Gram matrix")
    spectrum = scipy.linalg.eigvalsh(gram)
    if spectrum[0] <= 1e-12 * max(spectrum[-1], 1.0):
        raise FrameError("frame vectors are linearly dependent")
    chol = np.linalg.cholesky(gram)
    coeff = scipy.linalg.solve_triangular(chol, np.eye(vectors.shape[1], dtype=complex),
                                          lower=True).T
    return vectors @ coeff


def pencil_eigh(a: np.ndarray, g: np.ndarray):
    """Eigenvalues/vectors of the Hermitian pencil (a, g), ascending.

    The eigenvalues are the critical values of the ratio
    ``(v @ a @ v.conj()) / (v @ g @ v.conj())`` over nonzero v; the
    returned vectors satisfy that ratio at the matching eigenvalue,
    with coefficient columns normalized so ``v @ g @ v.conj() = 1``.
    """
    a = check_hermitian(a, "pencil numerator")
    g = check_positive_definite(g, "pencil denominator")
    # eigh solves A q = w G q with q^H A q critical; our ratio reads
    # v A v.conj, so the critical v are the conjugated eigenvectors
    vals, q = scipy.linalg.eigh(a, g)
    return vals, q.conj()


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

