"""Seeded scenario manifests for the benchmark's two workloads.

The seed picks coefficients, curvature scales, directions and sampler
seeds; it never changes the make-up of a workload (which chart pairs,
which checks, how many points), so every seed asks for the same work
and the seeds only differ in the numbers the program sees.

Within a workload the point counts are chosen so that the scenarios
cost about the same, which keeps the median scenario time from
depending on the mix.  Every map is drawn so that its image stays
well inside the target region, and for identity scenarios it is
redrawn until ∂f has full rank and a simple top stretch at every
sample point, so no check skips a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracles
from oracles import Chart

WORKLOADS = ("identity_shared", "bound_sweep")
_STREAMS = {name: 1000 + k for k, name in enumerate(WORKLOADS)}
_DIGITS = 6
_MAX_DRAWS = 200

FLAT, DISK, POLYDISK, BALL, FS = (
    "flat", "poincare_disk", "poincare_polydisk", "complex_hyperbolic_ball", "fubini_study")


@dataclass
class Case:
    """One scenario manifest plus what the oracles need to check its report."""

    doc: dict
    domain: Chart
    target: Chart
    terms: list
    points: np.ndarray
    volume_fault: bool = False  # trips the kept volume-rule fault on every run
    three_circle: tuple | None = None  # (coefficient, power, radii)
    direction: np.ndarray | None = None  # identity checks' direction, default e₁


def _round(x: float) -> float:
    return float(f"{x:.{_DIGITS}f}")


def _cround(z: complex) -> complex:
    return complex(_round(z.real), _round(z.imag))


def _scale(rng, lo=0.8, hi=1.5) -> float:
    return float(f"{rng.uniform(lo, hi):.3f}")


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _monomials(m: int, degree: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree, -1, -1) for rest in _monomials(m - 1, degree - k)]


def _polynomial_map(rng, m: int, n: int, linear_norm: float, quad_norm: float,
                    spread=(1.0, 0.62, 0.38, 0.24)) -> list:
    """Linear part U·diag(s)·V* with distinct s, plus a small quadratic part.

    Each component's quadratic coefficients have absolute sum quad_norm/n,
    so |f(z)| ≤ linear_norm·|z| + quad_norm·|z|² for |z| ≤ 1.
    """
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    k = min(m, n)
    s = np.zeros((n, m))
    s[range(k), range(k)] = linear_norm * np.asarray(spread[:k])
    lin = u @ s @ v.conj().T
    quads = _monomials(m, 2)
    terms = []
    for i in range(n):
        comp = [(_cround(lin[i, a]), tuple(int(a == b) for b in range(m))) for a in range(m)]
        raw = rng.normal(size=len(quads)) + 1j * rng.normal(size=len(quads))
        raw *= (quad_norm / n) / np.sum(np.abs(raw))
        comp += [(_cround(c), e) for c, e in zip(raw, quads)]
        terms.append(comp)
    return terms


def _manifest(name, domain: Chart, target: Chart, terms, count, radius, sampler_seed,
              checks) -> dict:
    return {
        "schema": 1,
        "name": name,
        "domain": domain.manifest(),
        "target": target.manifest(),
        "map": [oracles.component_text(t) for t in terms],
        "sampler": {"count": count, "radius": radius, "seed": sampler_seed},
        "checks": checks,
    }


def _well_posed(domain, target, terms, points, need_gap: bool) -> bool:
    """Images inside the target, and (for identity checks) full rank with a simple top stretch."""
    for p in points:
        if not domain.inside(p, 0.02) or not target.inside(oracles.map_value(terms, p), 0.05):
            return False
        if need_gap:
            sq = oracles.stretch(domain, target, terms, p).singular_sq
            if sq[-1] < 1e-3 * sq[0]:
                return False
            if len(sq) > 1 and (sq[0] - sq[1]) < 1e-3 * sq[0]:
                return False
    return True


def _draw(rng, domain, target, count, radius, linear_norm, quad_norm, need_gap):
    for _ in range(_MAX_DRAWS):
        terms = _polynomial_map(rng, domain.dim, target.dim, linear_norm, quad_norm)
        sampler_seed = int(rng.integers(0, 2**31 - 1))
        points = oracles.sample_points(sampler_seed, count, domain.dim, radius)
        if _well_posed(domain, target, terms, points, need_gap):
            return terms, sampler_seed, points
    raise RuntimeError(f"no well-posed map for {domain} -> {target} in {_MAX_DRAWS} draws")


# -- identity_shared ------------------------------------------------------------------

# (domain family, m, target family, n, points); counts even out the scenario cost
_IDENTITY_SHAPES = (
    (FLAT, 1, BALL, 2, 3),
    (FS, 2, POLYDISK, 2, 2),
    (FLAT, 2, BALL, 3, 1),
    (FS, 1, POLYDISK, 3, 2),
    (FLAT, 3, BALL, 3, 1),
)
_IDENTITY_COPIES = 20


def identity_shared(seed: int) -> list[Case]:
    """boch1, boch2, log_w and psh on one shared point set per scenario."""
    rng = np.random.default_rng([seed, _STREAMS["identity_shared"]])
    cases = []
    for copy in range(_IDENTITY_COPIES):
        for dfam, m, tfam, n, count in _IDENTITY_SHAPES:
            domain = Chart(dfam, m, 1.0 if dfam == FLAT else _scale(rng))
            target = Chart(tfam, n, _scale(rng))
            radius = 0.8
            # per component |f_i| ≤ Σ|A_iα|·r + quad/n·r²; keep it below 0.85
            terms, sampler_seed, points = _draw(rng, domain, target, count, radius,
                                                 0.55 / np.sqrt(m), 0.25, need_gap=True)
            direction = [[_round(c.real), _round(c.imag)] for c in _unit(rng, m)]
            checks = [{"kind": kind, "direction": direction, "tolerance": 1e-6}
                      for kind in ("boch1", "boch2", "log_w")]
            checks.append({"kind": "psh", "quantity": "log1p_energy", "tolerance": 1e-8})
            name = f"identity_{dfam}{m}_{tfam}{n}_{copy}"
            doc = _manifest(name, domain, target, terms, count, radius, sampler_seed, checks)
            cases.append(Case(doc, domain, target, terms, points,
                              direction=np.array([complex(*d) for d in direction])))
    return cases


# -- bound_sweep ----------------------------------------------------------------------

_BOUND_CHECKS = ("schwarz", "volume", "royden")
_BOUND_SHAPES = (  # (domain family, m, target family, n, points)
    (DISK, 1, DISK, 1, 14),
    (BALL, 2, BALL, 2, 10),
    (POLYDISK, 2, POLYDISK, 2, 10),
)
_BOUND_COPIES = 16
_HOOP_SHAPES = ((1, 25), (2, 18))  # (dim, points)
_THREE_CIRCLE_COUNT = 16

# The volume rule takes κ from the target's full Ricci curvature, which
# for m < n is larger than the m-Ricci bound the theorem uses, so the
# stated bound comes out too small.  These fixed isometric embeddings
# sit exactly on the theorem's bound, so they trip the rule on every
# run whatever the seed.
_VOLUME_FAULT = (
    ("volume_fault_disk_ball2", Chart(DISK, 1, 1.0), Chart(BALL, 2, 1.0), 14, 101),
    ("volume_fault_disk_ball3", Chart(DISK, 1, 1.0), Chart(BALL, 3, 1.0), 14, 102),
    ("volume_fault_ball2_ball3", Chart(BALL, 2, 1.0), Chart(BALL, 3, 1.0), 10, 103),
    ("volume_fault_ball2_ball4", Chart(BALL, 2, 1.0), Chart(BALL, 4, 1.0), 10, 104),
)


def _embedding(m: int, n: int) -> list:
    return [[(1.0 + 0j, tuple(int(a == i) for a in range(m)))] if i < m else []
            for i in range(n)]


def bound_sweep(seed: int) -> list[Case]:
    """Schwarz, volume, royden, hoop and three-circle bounds with analytic constants."""
    rng = np.random.default_rng([seed, _STREAMS["bound_sweep"]])
    cases = []
    bound_checks = [{"kind": kind, "tolerance": 1e-8} for kind in _BOUND_CHECKS]
    for copy in range(_BOUND_COPIES):
        for dfam, m, tfam, n, count in _BOUND_SHAPES:
            domain, target = Chart(dfam, m, _scale(rng)), Chart(tfam, n, _scale(rng))
            # the whole domain maps inside the target, so the theorems apply
            if tfam == POLYDISK:
                linear, quad = 0.45, 0.35 * n
            else:
                linear, quad = 0.6, 0.3
            terms, sampler_seed, points = _draw(rng, domain, target, count, 0.9,
                                                 linear, quad, need_gap=False)
            doc = _manifest(f"bounds_{dfam}{m}_{tfam}{n}_{copy}", domain, target, terms,
                            count, 0.9, sampler_seed, bound_checks)
            cases.append(Case(doc, domain, target, terms, points))
        for dim, count in _HOOP_SHAPES:
            domain, target = Chart(FS, dim, _scale(rng)), Chart(FS, dim, _scale(rng))
            rot = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            lin = rot * rng.uniform(1.1, 1.5, size=dim)[None, :]
            terms = [[(_cround(lin[i, a]), tuple(int(a == b) for b in range(dim)))
                      for a in range(dim)] for i in range(dim)]
            sampler_seed = int(rng.integers(0, 2**31 - 1))
            points = oracles.sample_points(sampler_seed, count, dim, 1.0)
            checks = [{"kind": "hoop", "mode": mode, "tolerance": 1e-8}
                      for mode in ("volume", "stretching")]
            doc = _manifest(f"hoop_fs{dim}_{copy}", domain, target, terms, count, 1.0,
                            sampler_seed, checks)
            cases.append(Case(doc, domain, target, terms, points))
        power = int(rng.integers(2, 5))
        coef = _cround(complex(*rng.uniform(0.3, 1.0, size=2)))
        r1 = _round(rng.uniform(0.2, 0.4))
        radii = [r1, _round(r1 * rng.uniform(1.5, 2.5)), _round(r1 * rng.uniform(3.0, 4.5))]
        terms = [[(coef, (power,))]]
        sampler_seed = int(rng.integers(0, 2**31 - 1))
        flat = Chart(FLAT, 1)
        points = oracles.sample_points(sampler_seed, 4, 1, radii[-1])
        checks = [{"kind": "three_circle", "radii": radii, "counts": _THREE_CIRCLE_COUNT,
                   "tolerance": 1e-9}]
        doc = _manifest(f"three_circle_z{power}_{copy}", flat, flat, terms, 4, radii[-1],
                        sampler_seed, checks)
        cases.append(Case(doc, flat, flat, terms, points, three_circle=(coef, power, radii)))
    for name, domain, target, count, sampler_seed in _VOLUME_FAULT:
        terms = _embedding(domain.dim, target.dim)
        points = oracles.sample_points(sampler_seed, count, domain.dim, 0.7)
        doc = _manifest(name, domain, target, terms, count, 0.7, sampler_seed, bound_checks)
        cases.append(Case(doc, domain, target, terms, points, volume_fault=True))
    return cases


BUILDERS = {
    "identity_shared": identity_shared,
    "bound_sweep": bound_sweep,
}
