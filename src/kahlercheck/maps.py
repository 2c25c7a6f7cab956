"""Holomorphic maps between charts and their pointwise invariants.

A map is stored as jet callables for its target components, so the
same object yields the pushforward, the pulled-back metric form, the
covariant Hessian, and the composition operations the identity checks
rely on.  The central construction is :func:`map_point_data`: the
stretch spectrum of ∂f at a point as the Hermitian-definite pencil
(A, g), together with adapted unitary frames in which ∂f is diagonal.

Frame conventions follow the linalg module: metric matrices pair as
``u @ G @ conj(v)``, frames are matrix columns, and a frame ``E`` is
g-unitary when ``E.T @ G @ conj(E) = I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import expressions
from .errors import ConfigurationError, DomainError, HolomorphyError, MetricError
from .geometry import (
    ChartMap,
    KahlerChart,
    PulledBackChart,
    _as_jet_function,
    christoffel,
    metric_at,
    normal_chart,
)
from .jets import WirtingerJet, derivative, jet_constant, variable_jets
from .linalg import cholesky_frame, haar_unitary, rng_for

HOLOMORPHY_TOL = 1e-12
RANK_RELATIVE_FLOOR = 1e-10
RANK_ABSOLUTE_FLOOR = 1e-30


class HoloMap:
    """Holomorphic map f: domain chart (dim m) → target chart (dim n)."""

    def __init__(self, domain: KahlerChart, target: KahlerChart, components,
                 label: str = "f"):
        components = list(components)
        if len(components) != target.dim:
            raise ConfigurationError(
                f"{label}: target has dimension {target.dim}, got {len(components)} components"
            )
        self.domain = domain
        self.target = target
        self.label = label
        self._components = [
            _as_jet_function(c, domain.dim, f"{label} component {i + 1}",
                             expressions.check_holomorphic)
            for i, c in enumerate(components)
        ]

    @property
    def m(self) -> int:
        return self.domain.dim

    @property
    def n(self) -> int:
        return self.target.dim

    def component_jets(self, point, order: int) -> list[WirtingerJet]:
        """Jets of the target components; validates holomorphy and the image."""
        pt = self.domain.require_inside(point)
        zs = variable_jets(pt, self.m, order)
        jets = []
        for i, fn in enumerate(self._components):
            val = fn(zs)
            bar_mass = _antiholomorphic_mass(val)
            if bar_mass > HOLOMORPHY_TOL * (1.0 + float(np.max(np.abs(val.coeffs)))):
                raise HolomorphyError(
                    f"{self.label} component {i + 1} is not holomorphic "
                    f"(antiholomorphic coefficient {bar_mass:.3e})"
                )
            jets.append(val)
        image = np.array([j.value for j in jets])
        if not self.target.domain.contains(image):
            raise DomainError(
                f"{self.label}: image {image} leaves the target domain ({self.target.domain})"
            )
        return jets

    def image_point(self, point) -> np.ndarray:
        return np.array([j.value for j in self.component_jets(point, 0)])

    def __repr__(self) -> str:
        return f"<HoloMap {self.label!r} {self.domain.label} -> {self.target.label}>"


def _antiholomorphic_mass(jet: WirtingerJet) -> float:
    m = jet.num_vars
    mask = np.array([any(e[m:]) for e in jet.space.monomials])
    return float(np.max(np.abs(jet.coeffs[mask]))) if mask.any() else 0.0


def pushforward(f: HoloMap, point) -> np.ndarray:
    """Matrix of first derivatives, P[i, α] = ∂f^i/∂z^α."""
    jets = f.component_jets(point, 1)
    return np.array([[jets[i].d_dz(a).value for a in range(f.m)] for i in range(f.n)])


@dataclass(frozen=True)
class MapPointData:
    """Stretch data of ∂f at one point.

    ``singular_sq`` holds |λ_α|² in descending order (length m, padded
    with zeros when n < m).  ``domain_frame``/``target_frame`` are the
    adapted unitary frames: columns are g- resp. h-orthonormal and
    ``inv(T) @ P @ E`` is diag(λ) padded with zero rows.  Deterministic
    up to exactly repeated singular values: each domain-frame column
    has its first significant entry rotated to the positive real axis.
    """

    point: np.ndarray
    image: np.ndarray
    pushforward: np.ndarray
    pullback: np.ndarray
    singular_sq: np.ndarray
    domain_frame: np.ndarray
    target_frame: np.ndarray
    g: np.ndarray
    h: np.ndarray
    rank: int
    threshold: float


def _phase_normalized(u: np.ndarray, vh: np.ndarray, paired: int):
    """First significant entry of each right vector made real positive."""
    v = vh.conj().T.copy()
    u = u.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size == 0:
            continue
        phase = col[nz[0]] / abs(col[nz[0]])
        v[:, j] = col / phase
        if j < paired:
            u[:, j] = u[:, j] / phase
    for j in range(paired, u.shape[1]):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            u[:, j] = col / (col[nz[0]] / abs(col[nz[0]]))
    return u, v


def map_point_data(f: HoloMap, point) -> MapPointData:
    """Pullback form, stretch spectrum, and adapted frames at a point."""
    jets = f.component_jets(point, 1)
    p_mat = np.array([[jets[i].d_dz(a).value for a in range(f.m)] for i in range(f.n)])
    pt = np.asarray(point, dtype=complex)
    image = np.array([jet.value for jet in jets])
    g = metric_at(f.domain, pt)
    h = metric_at(f.target, image)
    pullback = p_mat.T @ h @ np.conj(p_mat)
    pullback = 0.5 * (pullback + pullback.conj().T)
    # metric_at has validated g and h
    cg = cholesky_frame(g)
    ch = cholesky_frame(h)
    normalized = scipy.linalg.solve(ch, p_mat @ cg)
    u, s, vh = np.linalg.svd(normalized)
    u, v = _phase_normalized(u, vh, paired=len(s))
    domain_frame = cg @ v
    target_frame = ch @ u
    singular_sq = np.zeros(f.m)
    singular_sq[: len(s)] = s[: f.m] ** 2
    threshold = RANK_RELATIVE_FLOOR * max(float(singular_sq[0]) if f.m else 0.0,
                                          RANK_ABSOLUTE_FLOOR)
    rank = int(np.count_nonzero(singular_sq > threshold))
    return MapPointData(
        point=pt,
        image=image,
        pushforward=p_mat,
        pullback=pullback,
        singular_sq=singular_sq,
        domain_frame=domain_frame,
        target_frame=target_frame,
        g=g,
        h=h,
        rank=rank,
        threshold=threshold,
    )


def volume_ratio(f: HoloMap, point) -> float:
    """D = det(f*h)/det(g) = Π|λ_α|²; exactly 0 at rank-deficient points."""
    if f.m > f.n:
        raise ConfigurationError(
            f"volume ratio needs m <= n, got m={f.m}, n={f.n}"
        )
    data = map_point_data(f, point)
    if data.rank < f.m:
        return 0.0
    return float(np.prod(data.singular_sq))


def energy_density(f: HoloMap, point) -> float:
    """‖∂f‖² = g^{αβ̄}A_{αβ̄} = Σ|λ_α|²."""
    data = map_point_data(f, point)
    return float(np.trace(data.pullback @ np.linalg.inv(data.g)).real)


def max_norm(f: HoloMap, point) -> float:
    """‖∂f‖²_m = |λ_1|², the squared top stretch of ∂f."""
    return float(map_point_data(f, point).singular_sq[0])


def sigma_k(values: Sequence[float], k: int) -> float:
    """Elementary symmetric polynomial of degree k in the given values."""
    vals = [float(v) for v in values]
    if not 0 <= k <= len(vals):
        raise ConfigurationError(f"sigma_{k} undefined for {len(vals)} values")
    coeffs = np.zeros(k + 1)
    coeffs[0] = 1.0
    for v in vals:
        top = min(k, len(vals))
        for j in range(top, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return float(coeffs[k])


def map_hessian(f: HoloMap, point) -> np.ndarray:
    """Covariant Hessian f^i_{α,β}, symmetric in (α, β); zero iff totally geodesic here.

    f^i_{α,β} = ∂²f^i/∂z^α∂z^β − Γ^γ_{αβ} ∂f^i/∂z^γ + Γ^i_{jk} f^j_α f^k_β,
    with the target symbols contracted symmetrically on both derivative slots.
    """
    jets = f.component_jets(point, 2)
    m, n = f.m, f.n
    p_mat = np.array([[jets[i].d_dz(a).value for a in range(m)] for i in range(n)])
    units = np.eye(m, dtype=int)
    zero = (0,) * m
    raw = np.array(
        [[[derivative(jets[i], units[a] + units[b], zero) for b in range(m)]
          for a in range(m)]
         for i in range(n)]
    )
    gamma_dom = christoffel(f.domain, point)
    image = np.array([j.value for j in jets])
    gamma_tgt = christoffel(f.target, image)
    correction_dom = np.einsum("gab,ig->iab", gamma_dom, p_mat)
    correction_tgt = np.einsum("ijk,ja,kb->iab", gamma_tgt, p_mat, p_mat)
    return raw - correction_dom + correction_tgt


# -- composition ---------------------------------------------------------------


def precompose(f: HoloMap, change: ChartMap, label: str | None = None) -> HoloMap:
    """f ∘ ψ as a map from the pulled-back domain chart."""
    new_domain = PulledBackChart(f.domain, change, label=f"pulled[{f.domain.label}]")

    def component(i):
        def fn(ws):
            return f._components[i](change.on_jets(ws))

        return fn

    return HoloMap(
        new_domain,
        f.target,
        [component(i) for i in range(f.n)],
        label=label or f"{f.label}∘ψ",
    )


def postcompose(g_map: HoloMap, f: HoloMap, label: str | None = None) -> HoloMap:
    """g ∘ f; the charts must be compatible (f maps into g's domain chart)."""
    if f.target.dim != g_map.domain.dim:
        raise ConfigurationError("postcomposition needs matching dimensions")

    def component(j):
        def fn(zs):
            return g_map._components[j]([c(zs) for c in f._components])

        return fn

    return HoloMap(
        f.domain,
        g_map.target,
        [component(j) for j in range(g_map.n)],
        label=label or f"{g_map.label}∘{f.label}",
    )


def catalog_isometry(chart: KahlerChart, seed: int = 0) -> HoloMap:
    """A nontrivial isometry of a catalog chart onto itself, drawn from seed.

    Rotations for the ball and projective models, Möbius automorphisms
    for the disk (factorwise on the polydisk), unitary motions for the
    flat chart.
    """
    family = getattr(chart, "family", None)
    m = chart.dim
    rng = rng_for(seed, 929)

    def mobius_component(k, b, phase):
        b_conj = np.conj(b)

        def fn(zs):
            return phase * ((zs[k] - b) * (1.0 - b_conj * zs[k]).reciprocal())

        return fn

    if family == "flat":
        u_mat = haar_unitary(m, rng)
        shift = 0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m))

        def linear_component(i):
            def fn(zs):
                acc = jet_constant(shift[i], zs[0].num_vars, zs[0].order)
                for j in range(m):
                    acc = acc + u_mat[i, j] * zs[j]
                return acc

            return fn

        comps = [linear_component(i) for i in range(m)]
    elif family == "poincare_disk" or (family == "complex_hyperbolic_ball" and m == 1):
        b = 0.4 * (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
        theta = rng.uniform(0, 2 * np.pi)
        comps = [mobius_component(0, b, np.exp(1j * theta))]
    elif family in ("complex_hyperbolic_ball", "fubini_study"):
        u_mat = haar_unitary(m, rng)

        def rotation_component(i):
            def fn(zs):
                acc = jet_constant(0.0, zs[0].num_vars, zs[0].order)
                for j in range(m):
                    acc = acc + u_mat[i, j] * zs[j]
                return acc

            return fn

        comps = [rotation_component(i) for i in range(m)]
    elif family == "poincare_polydisk":
        comps = []
        for k in range(m):
            b = 0.4 * (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
            theta = rng.uniform(0, 2 * np.pi)
            comps.append(mobius_component(k, b, np.exp(1j * theta)))
    else:
        raise ConfigurationError(f"no isometry family known for chart {chart.label!r}")
    return HoloMap(chart, chart, comps, label=f"isometry[{chart.label}]")


# -- the stretch barrier ---------------------------------------------------------


class StretchBarrier:
    """Smooth minorant of ‖∂f‖²_m anchored at a point.

    Coordinates are renormalized at the anchor so the first frame
    direction realizes the top stretch; then
    W = g^{1β̄} A_{αβ̄} g^{α1̄} / g^{11̄} is a Rayleigh quotient of the
    pencil (A, g), so W ≤ ‖∂f‖²_m everywhere with equality at the
    anchor.
    """

    def __init__(self, holo_map: HoloMap, anchor):
        self.map = holo_map
        self.anchor_data = map_point_data(holo_map, anchor)
        self.domain_chart = normal_chart(
            holo_map.domain, anchor, frame=self.anchor_data.domain_frame
        )

    def chart_point(self, w) -> np.ndarray:
        """Anchored coordinates → original chart coordinates."""
        return self.domain_chart.change.apply_point(np.asarray(w, dtype=complex))

    def value(self, w) -> float:
        """W at the anchored coordinates w."""
        change = self.domain_chart.change
        w = np.asarray(w, dtype=complex)
        data = map_point_data(self.map, change.apply_point(w))
        jac = change.jacobian(w)
        a_here = jac.T @ data.pullback @ np.conj(jac)
        g_here = jac.T @ data.g @ np.conj(jac)
        c_inv = np.conj(np.linalg.inv(g_here))
        num = np.einsum("b,ab,a->", c_inv[0, :], a_here, c_inv[:, 0])
        val = num / c_inv[0, 0]
        if abs(val.imag) > 1e-10 * (1.0 + abs(val)):
            raise MetricError(f"barrier value has spurious imaginary part {val.imag:.3e}")
        return float(val.real)

    def max_norm_at(self, w) -> float:
        """True ‖∂f‖²_m at the chart point behind w (pencil invariant)."""
        return max_norm(self.map, self.chart_point(w))


def barrier_w(f: HoloMap, anchor, w) -> float:
    """One-shot evaluation of the anchored barrier at offset w."""
    return StretchBarrier(f, anchor).value(w)
