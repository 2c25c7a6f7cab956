"""Closed-form references for the benchmark's output checks.

Everything here uses numpy alone and imports nothing from kahlercheck,
so a fault in the program cannot cancel out of a comparison.  Charts
are the five catalog families, maps are polynomials with known
coefficients, and every quantity a report states is recomputed from
the closed-form metric and the analytic Jacobian:

* the stretch spectrum of ∂f as the eigenvalues of the pencil
  (Jᵀ h(f) J̄, g), giving ‖∂f‖², the top stretch and D;
* the theorem's bound from the families' curvature constants, with
  the volume bound taken from the m-Ricci curvature of the target;
* a finite-difference complex Hessian of the closed-form energy
  ‖∂f‖², which the boch1 left-hand side must match.

Index conventions follow the program's documented ones:
``g[a, b] = ∂_a ∂̄_b φ`` and ``J[i, α] = ∂f^i/∂z^α``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SAMPLER_STREAM = 37  # the stream key of the manifest sampler (cli.SAMPLER_STREAM)
IDENTITY_CHECKS = ("boch1", "boch2", "log_w", "psh")
FD_TOLERANCE = 1e-6
VALUE_RTOL = 1e-9


# -- charts --------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A catalog chart: family, dimension and scale (a or c)."""

    family: str  # a catalog name: flat, poincare_disk, ..., fubini_study
    dim: int
    scale: float = 1.0

    def manifest(self) -> dict:
        params = {} if self.family == "poincare_disk" else {"dim": self.dim}
        if self.family in ("poincare_disk", "poincare_polydisk"):
            params["a"] = self.scale
        elif self.family in ("complex_hyperbolic_ball", "fubini_study"):
            params["c"] = self.scale
        return {"catalog": self.family, "params": params}

    def metric(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        n, s = self.dim, self.scale
        if self.family == "flat":
            return np.eye(n, dtype=complex)
        if self.family in ("poincare_disk", "poincare_polydisk"):
            return np.diag(s / (1.0 - np.abs(z) ** 2) ** 2).astype(complex)
        r2 = float(np.sum(np.abs(z) ** 2))
        outer = np.outer(np.conj(z), z)  # [a, b] = conj(z_a) z_b
        if self.family == "complex_hyperbolic_ball":
            return s * (np.eye(n) / (1.0 - r2) + outer / (1.0 - r2) ** 2)
        if self.family == "fubini_study":
            return s * (np.eye(n) / (1.0 + r2) - outer / (1.0 + r2) ** 2)
        raise ValueError(self.family)

    def inside(self, z: np.ndarray, margin: float = 0.0) -> bool:
        """Point lies in the chart's region, at least ``margin`` from its edge."""
        z = np.asarray(z, dtype=complex)
        if self.family in ("poincare_disk", "poincare_polydisk"):
            return bool(np.all(np.abs(z) < 1.0 - margin))
        if self.family == "complex_hyperbolic_ball":
            return float(np.linalg.norm(z)) < 1.0 - margin
        return True

    # closed-form curvature constants, normalized so the unit disk has H = -2
    @property
    def hol_range(self) -> tuple[float, float]:
        n, s = self.dim, self.scale
        return {
            "flat": (0.0, 0.0),
            "poincare_disk": (-2.0 / s, -2.0 / s),
            "poincare_polydisk": (-2.0 / s, -2.0 / (n * s)),
            "complex_hyperbolic_ball": (-2.0 / s, -2.0 / s),
            "fubini_study": (2.0 / s, 2.0 / s),
        }[self.family]

    @property
    def ricci(self) -> float:
        """The Ricci form is this multiple of the metric (every family is Einstein)."""
        n, s = self.dim, self.scale
        return {
            "flat": 0.0,
            "poincare_disk": -2.0 / s,
            "poincare_polydisk": -2.0 / s,
            "complex_hyperbolic_ball": -(n + 1.0) / s,
            "fubini_study": (n + 1.0) / s,
        }[self.family]

    @property
    def scalar(self) -> float:
        return self.dim * self.ricci

    def ricci_m_max(self, m: int) -> float:
        """Largest m-Ricci curvature over m-dimensional subspaces."""
        if m == self.dim:
            return self.ricci
        if self.family == "complex_hyperbolic_ball":
            return -(m + 1.0) / self.scale
        raise ValueError(f"no closed-form m-Ricci bound for {self.family} with m < n")


# -- polynomial maps ---------------------------------------------------------------

# a map is a list of components; a component is a list of (coefficient, exponents)


def coefficient_text(c: complex) -> str:
    """Parenthesized literal; the grammar allows a leading '-' only at the head."""
    text = repr(c.real)
    if c.imag != 0:
        text += f" {'-' if c.imag < 0 else '+'} {abs(c.imag)!r}*i"
    return f"({text})"


def component_text(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for coef, exps in terms:
        factors = [f"z{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(exps) if e]
        parts.append("*".join([coefficient_text(coef)] + factors))
    return " + ".join(parts)


def map_value(terms_list, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return np.array([sum((c * np.prod(z ** np.array(e)) for c, e in terms), 0j)
                     for terms in terms_list])


def map_jacobian(terms_list, z: np.ndarray) -> np.ndarray:
    """J[i, α] = ∂f^i/∂z^α of the polynomial map."""
    z = np.asarray(z, dtype=complex)
    m = len(z)
    jac = np.zeros((len(terms_list), m), dtype=complex)
    for i, terms in enumerate(terms_list):
        for coef, exps in terms:
            for a in range(m):
                if exps[a]:
                    lowered = np.array(exps)
                    lowered[a] -= 1
                    jac[i, a] += coef * exps[a] * np.prod(z ** lowered)
    return jac


# -- pointwise stretch data -----------------------------------------------------------


@dataclass(frozen=True)
class Stretch:
    singular_sq: np.ndarray  # descending, length m
    energy: float  # ‖∂f‖²
    volume: float  # D = det(f*h)/det(g), 0 below full rank


def stretch(domain: Chart, target: Chart, terms_list, z) -> Stretch:
    jac = map_jacobian(terms_list, z)
    g = domain.metric(z)
    h = target.metric(map_value(terms_list, z))
    pulled = jac.T @ h @ np.conj(jac)
    pulled = 0.5 * (pulled + pulled.conj().T)
    chol = np.linalg.cholesky(g)
    inv = np.linalg.inv(chol)
    spectrum = np.linalg.eigvalsh(inv @ pulled @ inv.conj().T)[::-1]
    spectrum = np.clip(spectrum, 0.0, None)
    energy = float(np.trace(np.linalg.solve(g, pulled)).real)
    m = domain.dim
    full = m <= target.dim and spectrum[-1] > 1e-10 * max(spectrum[0], 1e-30)
    volume = float(np.prod(spectrum)) if full else 0.0
    return Stretch(spectrum, energy, volume)


def energy(domain: Chart, target: Chart, terms_list, z) -> float:
    return stretch(domain, target, terms_list, z).energy


def fd_levi_form(fn, point: np.ndarray, v: np.ndarray, step: float = 5e-3) -> float:
    """∂_v∂̄_v of a real function by a fourth-order stencil on the complex line.

    Along t ↦ point + t·v the Levi form is a quarter of the Laplacian
    in (Re t, Im t).
    """
    point = np.asarray(point, dtype=complex)
    v = np.asarray(v, dtype=complex)
    weights = (-1.0, 16.0, -30.0, 16.0, -1.0)
    total = 0.0
    for axis in (1.0, 1j):
        samples = [fn(point + k * step * axis * v) for k in (-2, -1, 0, 1, 2)]
        total += sum(w * s for w, s in zip(weights, samples)) / (12.0 * step * step)
    return 0.25 * total


def scaled_residual(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a) + abs(b))


def close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- the manifest sampler -------------------------------------------------------------


def sample_points(seed: int, count: int, dim: int, radius: float) -> np.ndarray:
    """Seeded Gaussian cloud clamped into the radius, as the manifest format defines it."""
    rng = np.random.default_rng([int(seed), SAMPLER_STREAM])
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    pts = raw * (0.4 * radius)
    norms = np.linalg.norm(pts, axis=1)
    return pts * np.minimum(1.0, radius / np.maximum(norms, 1e-12))[:, None]


# -- expected bound reports -------------------------------------------------------------


@dataclass(frozen=True)
class BoundExpectation:
    kind: str
    observed: float
    bound: float
    verdict: str
    coefficient: str | None = None


def _rank(s: Stretch) -> int:
    return int(np.count_nonzero(s.singular_sq > 1e-10 * max(s.singular_sq[0], 1e-30)))


def _observed(kind: str, mode: str | None, m: int, stretches: list[Stretch]) -> float:
    if kind == "volume":
        return max(s.volume for s in stretches)
    if kind == "royden":
        return max(s.energy for s in stretches)
    if kind == "hoop" and mode == "volume":
        return max(s.volume ** (1.0 / m) for s in stretches)
    return max(float(s.singular_sq[0]) for s in stretches)  # schwarz, hoop stretching


def _theorem_bound(kind: str, mode: str | None, domain: Chart, target: Chart,
                   rank: int) -> float:
    """The bound from the curvature constants, each as the theorem states it."""
    m = domain.dim
    if kind == "schwarz":  # H^M ≥ −K, H^N ≤ −κ
        return domain.hol_range[0] / target.hol_range[1]
    if kind == "volume":  # S^M ≥ −K, Ric^N_m ≤ −κ
        return (domain.scalar / (m * target.ricci_m_max(m))) ** m
    if kind == "royden":  # Ric^M ≥ −K, H^N ≤ −κ
        return float(Fraction(2 * rank, rank + 1)) * domain.ricci / target.hol_range[1]
    if mode == "volume":  # Ric^M ≥ K, Ric^N ≤ κ
        return domain.ricci / target.ricci
    return domain.hol_range[0] / target.hol_range[1]  # H^M ≥ K, H^N ≤ κ


def expected_bound(kind: str, mode: str | None, domain: Chart, target: Chart,
                   stretches: list[Stretch], tol: float) -> BoundExpectation:
    """What a bound report must state, from the theorem and the closed forms."""
    name = f"hoop[{mode}]" if kind == "hoop" else kind
    observed = _observed(kind, mode, domain.dim, stretches)
    rank = max(_rank(s) for s in stretches)
    coefficient = str(Fraction(2 * rank, rank + 1)) if kind == "royden" else None
    bound = _theorem_bound(kind, mode, domain, target, rank)
    if kind == "hoop":
        verdict = "passed" if observed - bound >= -tol else "advisory"
    else:
        verdict = "passed" if bound - observed >= -tol else "failed"
    return BoundExpectation(name, observed, bound, verdict, coefficient)


def three_circle_maxima(coef: complex, power: int, radii) -> list[float]:
    """M(r) = sup of |∂f| on the r-circle for f = coef·z^power: |coef|·k·r^(k−1)."""
    return [abs(coef) * power * r ** (power - 1) for r in radii]


def parse_three_circle_notes(notes) -> list[float]:
    head = notes[0].split()
    return [float(item.split("=", 1)[1]) for item in head]
