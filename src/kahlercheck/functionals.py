"""Scalar curvature functionals: H, bisectional, Ricci, scalar, S_k, Ric_k.

All functions consume a :class:`~kahlercheck.geometry.CurvaturePoint`
and tangent vectors expressed in the chart coordinates at that point;
H, bisectional, Ricci and scalar curvature also take a stack of points
(leading axes, which the vectors' leading axes broadcast against) and
give one value per row.  Quantities that are real by symmetry are
validated (imaginary residual at most 1e-10 relative) and returned as
floats, or arrays of them; a failed check names a stack's first bad row.

The k-scalar curvature is computed in its algebraic trace form
Σ_{i,j} R(E_i, Ē_i, E_j, Ē_j); the Gaussian-moment averaging argument
makes this equal to k(k+1)/2 times the spherical average of the
normalized holomorphic sectional curvature over the subspace (the
tests check it against a Monte-Carlo estimate of that average).
k-Ricci extremization is a seeded multistart gradient search over
orthonormal frames; its results are search bounds, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, FrameError, MetricError
from .geometry import CurvaturePoint
from .jets import first_bad
from .linalg import g_orthonormalize, haar_unitary, rng_for

FRAME_GRAM_TOL = 1e-10
REAL_TOL = 1e-10
ZERO_NORM_SQ = 1e-28
# step length of the k-Ricci frame ascent, before the gradient-norm damping
ASCENT_STEP = 0.15


@dataclass(frozen=True)
class SubspaceFrame:
    """Columns of ``vectors`` span a k-dim subspace, g-orthonormal."""

    vectors: np.ndarray  # shape (m, k)

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


def subspace_frame(cp: CurvaturePoint, vectors) -> SubspaceFrame:
    """Orthonormalize spanning vectors (columns) into a SubspaceFrame."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    return SubspaceFrame(g_orthonormalize(cp.g, v))


def _check_frame(cp: CurvaturePoint, frame: SubspaceFrame) -> np.ndarray:
    e = np.asarray(frame.vectors, dtype=complex)
    gram = e.T @ cp.g @ np.conj(e)
    defect = np.max(np.abs(gram - np.eye(e.shape[1])))
    if defect > FRAME_GRAM_TOL:
        raise FrameError(f"frame is not g-orthonormal (Gram defect {defect:.3e})")
    return e


def _row(shape: tuple[int, ...], flat: int) -> str:
    """Which row of a stack of ``shape`` a flat index is, for a message; empty at one point."""
    return f" at row {', '.join(map(str, np.unravel_index(flat, shape)))}" if shape else ""


def _real(value, what: str):
    value = np.asarray(value, dtype=complex)
    if (bad := first_bad(np.abs(value.imag) > REAL_TOL * (1.0 + np.abs(value)))) is not None:
        raise MetricError(f"{what} has spurious imaginary part "
                          f"{np.ravel(value.imag)[bad]:.3e}{_row(value.shape, bad)}")
    return value.real if value.shape else float(value.real)


def _nonzero(cp: CurvaturePoint, v, what: str) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(v, dtype=complex)
    # row-matrix products, which round like one point's v @ g @ conj(v)
    norm_sq = _real((v[..., None, :] @ cp.g @ np.conj(v)[..., :, None])[..., 0, 0], f"|{what}|^2")
    if (bad := first_bad(np.asarray(norm_sq <= ZERO_NORM_SQ))) is not None:
        raise DegenerateInputError(f"{what} is numerically zero{_row(np.shape(norm_sq), bad)}")
    return v, norm_sq


def _contract(riem: np.ndarray, x, y, z, w):
    """R(x, ȳ, z, w̄) with the lowered tensor, one value per row of a stack."""
    return np.einsum("...abcd,...a,...b,...c,...d->...", riem, x, np.conj(y), z, np.conj(w))


def _gaussian_vectors(rng: np.random.Generator, rows: tuple[int, ...], dims) -> list[np.ndarray]:
    """Complex Gaussian vectors of each size d in ``dims`` at each of ``rows``, shape rows + (d,),
    drawn at once in the order of a loop of ``rng.normal(size=d) + 1j * rng.normal(size=d)``."""
    raw = rng.normal(size=(*rows, 2 * sum(dims)))
    ends = np.cumsum([0, *(2 * d for d in dims)])
    return [raw[..., a:a + d] + 1j * raw[..., a + d:b] for a, b, d in zip(ends, ends[1:], dims)]


def holo_sectional(cp: CurvaturePoint, z):
    """(raw, normalized) holomorphic sectional curvature along z.

    raw = R(z, z̄, z, z̄); normalized divides by |z|⁴ so it is invariant
    under complex rescaling of z.
    """
    z, norm_sq = _nonzero(cp, z, "Z")
    raw = _real(_contract(cp.riem, z, z, z, z), "H raw")
    with np.errstate(over="ignore"):  # past a metric scale of about 1e154; divide twice there
        square = np.square(norm_sq)
    normalized = np.where(np.isfinite(square), raw / square, raw / norm_sq / norm_sq)
    return raw, normalized if normalized.ndim else float(normalized)


def bisectional(cp: CurvaturePoint, x, y):
    """R(x, x̄, y, ȳ); coincides with raw H when x = y."""
    x, _ = _nonzero(cp, x, "X")
    y, _ = _nonzero(cp, y, "Y")
    return _real(_contract(cp.riem, x, x, y, y), "bisectional")


def ricci(cp: CurvaturePoint) -> np.ndarray:
    """Ric_{γδ̄} = g^{αβ̄} R_{αβ̄γδ̄} as a Hermitian matrix."""
    ric = np.einsum("...ba,...abcd->...cd", cp.g_inv, cp.riem)
    return 0.5 * (ric + np.conj(ric).swapaxes(-1, -2))


def scalar_curvature(cp: CurvaturePoint):
    """Full metric trace of the Ricci form."""
    return _real(np.trace(ricci(cp) @ cp.g_inv, axis1=-2, axis2=-1), "scalar curvature")


def k_scalar(cp: CurvaturePoint, frame: SubspaceFrame) -> float:
    """Trace form Σ_{i,j} R(E_i, Ē_i, E_j, Ē_j) over the frame."""
    e = _check_frame(cp, frame)
    partial = np.einsum("abcd,ag,bg->cd", cp.riem, e, np.conj(e))
    return _real(np.einsum("cd,cj,dj->", partial, e, np.conj(e)), "k-scalar")


# -- k-Ricci extremization ---------------------------------------------------


@dataclass(frozen=True)
class KRicciExtremes:
    """Search extremes of Ric_k over frames; bounds only up to search quality."""

    k: int
    max_eig: float
    max_frame: SubspaceFrame
    max_vector: np.ndarray
    min_eig: float
    min_frame: SubspaceFrame
    min_vector: np.ndarray


def _frame_ricci_matrix(riem: np.ndarray, e: np.ndarray) -> np.ndarray:
    """k×k Hermitian M[s,t] = Σ_γ R(E_γ, Ē_γ, E_s, Ē_t)."""
    partial = np.einsum("abcd,ag,bg->cd", riem, e, np.conj(e))
    m = e.T @ partial @ np.conj(e)
    return 0.5 * (m + m.conj().T)


def _frame_extreme(riem: np.ndarray, e: np.ndarray, sign: float):
    """Best (value, direction coefficients) of sign·Ric restricted to the frame."""
    vals, vecs = np.linalg.eigh(_frame_ricci_matrix(riem, e))
    idx = -1 if sign > 0 else 0
    return vals[idx], vecs[:, idx]


def _ascend(cp: CurvaturePoint, k: int, sign: float, restarts: int,
            iterations: int, seed: int):
    riem = cp.riem
    m = cp.g.shape[0]
    best_val = -np.inf
    best_e = None
    best_w = None
    for r in range(restarts):
        rng = rng_for(seed, 5, int(sign > 0), r)
        e = g_orthonormalize(cp.g, haar_unitary(m, rng)[:, :k])
        for _ in range(iterations):
            val, w = _frame_extreme(riem, e, sign)
            if sign * val > best_val:
                best_val, best_e, best_w = sign * val, e, w
            if k == m:
                break  # frame spans everything; the value is frame-independent
            v = e @ w
            # Wirtinger gradient of Σ_γ R(E_γ,Ē_γ,v,v̄) in conj(E), v held by w
            g1 = np.einsum("abcd,ag,c,d->bg", riem, e, v, np.conj(v))
            u = np.einsum("abcd,ag,bg,c->d", riem, e, np.conj(e), v)
            grad = sign * (g1 + np.outer(u, np.conj(w)))
            scale = ASCENT_STEP / (1.0 + float(np.linalg.norm(grad)))
            try:
                e = g_orthonormalize(cp.g, e + scale * grad)
            except FrameError:
                break
    return best_val, best_e, best_w


def k_ricci_extremes(
    cp: CurvaturePoint,
    k: int,
    restarts: int = 50,
    iterations: int = 200,
    seed: int = 0,
) -> KRicciExtremes:
    """Search extremes of Ric_{Σ}(v, v̄) = Σ_γ R(E_γ, Ē_γ, v, v̄).

    Runs Haar-seeded restarts of fixed-step gradient ascent over
    g-orthonormal k-frames; per frame the extreme over unit v ∈ Σ is an
    exact Hermitian eigenvalue.  Results are the best values found.
    """
    m = cp.g.shape[0]
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must be between 1 and {m}, got {k}")
    if restarts < 1 or iterations < 1:
        raise ConfigurationError("restarts and iterations must be positive")
    hi, hi_e, hi_w = _ascend(cp, k, +1.0, restarts, iterations, seed)
    lo, lo_e, lo_w = _ascend(cp, k, -1.0, restarts, iterations, seed)
    return KRicciExtremes(
        k=k,
        max_eig=hi,
        max_frame=SubspaceFrame(hi_e),
        max_vector=hi_e @ hi_w,
        min_eig=-lo,
        min_frame=SubspaceFrame(lo_e),
        min_vector=lo_e @ lo_w,
    )
