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

from .errors import FrameError, MetricError

HERMITIAN_TOL = 1e-10
DEFINITENESS_FLOOR = 1e-10


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for a seed plus a stream-identifying key path."""
    return np.random.default_rng([int(seed), *map(int, keys)])


def _raise_first(failing, values, label: str, message: str):
    """MetricError for the first flagged matrix, carrying its flat index; in a stack the
    message names it by that index."""
    bad = np.flatnonzero(failing)
    if bad.size:
        k = int(bad[0])
        name = label if np.ndim(failing) == 0 else f"{label} (matrix {k})"
        raise MetricError(f"{name} {message.format(np.ravel(values)[k])}", index=k)


def check_hermitian(g: np.ndarray, label: str = "metric") -> np.ndarray:
    """Validate and return the symmetrized matrix, or stack of matrices ``(..., n, n)``.

    A matrix's defect is compared with ``HERMITIAN_TOL * (1 + max |entry|)``, so
    rounding in large entries does not fail it; a non-finite entry always does.
    """
    g = np.asarray(g, dtype=complex)
    g_h = np.conj(g).swapaxes(-1, -2)
    if g.size:
        defect = np.max(np.abs(g - g_h), axis=(-2, -1))
        scale = 1.0 + np.max(np.abs(g), axis=(-2, -1))
    else:
        defect = scale = np.zeros(g.shape[:-2])
    # the negated test also fails NaN entries; an inf entry leaves the scale infinite
    _raise_first(~((defect <= HERMITIAN_TOL * scale) & np.isfinite(scale)), defect, label,
                 "is not Hermitian (defect {:.3e})")
    return 0.5 * (g + g_h)


def check_positive_definite(g: np.ndarray, label: str = "metric") -> np.ndarray:
    """Validate and return the symmetrized matrix or stack; eigenvalue floor 1e-10.

    A stack ``(..., n, n)`` is checked in one call: first every matrix
    for its Hermitian defect, then every one for definiteness.  An
    error names the first matrix that fails.
    """
    g = check_hermitian(g, label)
    smallest = np.linalg.eigvalsh(g)[..., 0]
    _raise_first(~(smallest > DEFINITENESS_FLOOR), smallest, label,
                 "is not positive definite (min eigenvalue {:.3e})")
    return g


def frame_normalizer(g: np.ndarray) -> np.ndarray:
    """Columns of the result are a g-orthonormal frame: ``C.T @ g @ C.conj() = I``."""
    return cholesky_frame(check_positive_definite(g))


def cholesky_frame(g: np.ndarray) -> np.ndarray:
    """:func:`frame_normalizer` for a ``g`` (or stack) that :func:`check_positive_definite` returned."""
    # g = L L^H; the frame is L^{-T}, inverted matrix by matrix, so a matrix's
    # frame is the same alone or in any stack
    return np.linalg.inv(np.linalg.cholesky(g)).swapaxes(-1, -2)


def g_orthonormalize(g: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Replace the columns of ``vectors`` by a g-orthonormal frame of their span."""
    vectors = np.asarray(vectors, dtype=complex)
    gram = check_hermitian(vectors.T @ g @ vectors.conj(), "Gram matrix")
    spectrum = np.linalg.eigvalsh(gram)
    if spectrum[0] <= 1e-12 * max(spectrum[-1], 1.0):
        raise FrameError("frame vectors are linearly dependent")
    return vectors @ cholesky_frame(gram)


def pencil_eigh(a: np.ndarray, g: np.ndarray):
    """Eigenvalues/vectors of the Hermitian pencil (a, g), or of a stack of them, ascending.

    The eigenvalues are the critical values of the ratio
    ``(v @ a @ v.conj()) / (v @ g @ v.conj())`` over nonzero v; the
    returned vectors satisfy that ratio at the matching eigenvalue,
    with coefficient columns normalized so ``v @ g @ v.conj() = 1``.
    """
    a = check_hermitian(a, "pencil numerator")
    g = check_positive_definite(g, "pencil denominator")
    # in a g-orthonormal frame E the pencil is the ordinary Hermitian problem
    # (E.T a E.conj()) y = w y, and v = E y.conj() has v g v.conj() = y^H y = 1
    frame = cholesky_frame(g)
    vals, y = np.linalg.eigh(frame.swapaxes(-1, -2) @ a @ frame.conj())
    return vals, frame @ y.conj()


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

