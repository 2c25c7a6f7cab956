"""Schwarz-type estimates, three-circle convexity and hoop bounds.

Every report carries its hypothesis ledger: the constants with how
they were obtained (read off a catalog chart's closed-form curvature,
or sampled), the sampled hypotheses that failed, and whether its
observed value is a sampled maximum, which can only undershoot the true
supremum.  The verdict table in the README reads the verdict off the
ledger (:func:`kahlercheck.cli.classify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .functionals import _gaussian_vectors, bisectional
from .identities import CheckReport
from .linalg import rng_for
from .maps import STACK_CHUNK, HoloMap, point_stacks

ANALYTIC = "analytic"
SAMPLED = "sampled"
# middle-sphere points at which three_circle samples the target's bisectional curvature
HYPOTHESIS_SAMPLES = 2


@dataclass(frozen=True)
class Constant:
    """A hypothesis constant and the provenance that decides its authority."""

    name: str
    value: float
    source: str

    def __post_init__(self):
        if self.source not in (ANALYTIC, SAMPLED):
            raise ConfigurationError(f"constant source must be analytic or sampled, got {self.source!r}")
        if not math.isfinite(self.value):
            raise ConfigurationError(f"constant {self.name} must be finite")

    # + 0.0 turns a zero of either sign into +0, so a report never prints "-0"
    @classmethod
    def analytic(cls, name: str, value: float) -> "Constant":
        return cls(name, float(value) + 0.0, ANALYTIC)

    @classmethod
    def sampled(cls, name: str, value: float) -> "Constant":
        return cls(name, float(value) + 0.0, SAMPLED)

    def describe(self) -> str:
        return f"{self.name}={self.value:.12g} ({self.source})"


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One bound evaluation.

    ``slack`` is the margin in the bound's favorable direction:
    bound − observed for upper bounds, observed − bound for the hoop
    (reverse) bounds.  ``passed`` and ``equality_case`` are read off it:
    slack ≥ −tolerance and |slack| ≤ tolerance.
    """

    kind: str
    constants: tuple[Constant, ...]
    observed: float
    bound: float
    slack: float
    tolerance: float
    points_checked: int
    coefficient: str | None = None
    notes: tuple[str, ...] = ()
    refuted: tuple[str, ...] = ()  # the ledger, as on CheckReport
    lower_estimate: bool = False

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance

    @property
    def equality_case(self) -> bool:
        return abs(self.slack) <= self.tolerance


def _require_positive_kappa(kappa: Constant) -> float:
    if kappa.value <= 0:
        raise ConfigurationError(f"hypothesis constant {kappa.name} must be positive")
    return kappa.value


def _spectra(f: HoloMap, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squared stretches (k, m), the ranks (k,) and the volume ratios D = Π|λ_α|² (k,),
    read as 0 below full rank, of ∂f at every sample point."""
    data = [stack.stretch for stack in point_stacks(f, points, 1)]
    singular_sq = np.concatenate([d.singular_sq for d in data])
    rank = np.concatenate([d.rank for d in data])
    return singular_sq, rank, np.where(rank == f.m, np.prod(singular_sq, axis=-1), 0.0)


def _report(kind, constants, observed, bound, tol, points, reverse=False,
            coefficient=None, notes=()):
    slack = (observed - bound) if reverse else (bound - observed)
    return BoundReport(
        kind=kind,
        constants=tuple(constants),
        observed=float(observed),
        bound=float(bound),
        slack=float(slack),
        tolerance=tol,
        points_checked=points,
        coefficient=coefficient,
        notes=tuple(notes),
        lower_estimate=reverse,
    )


# -- Schwarz-type upper bounds ---------------------------------------------------


def schwarz_bound_report(f: HoloMap, points, k: Constant, kappa: Constant,
                         tol: float = 1e-8) -> BoundReport:
    """Top-stretch bound ‖∂f‖²_m ≤ K/κ under H^M ≥ −K, H^N ≤ −κ."""
    kappa_val = _require_positive_kappa(kappa)
    if k.value < 0:
        raise ConfigurationError("K must be nonnegative (it bounds −H from above)")
    singular_sq, _, _ = _spectra(f, points)
    observed = float(np.max(singular_sq[:, 0]))
    bound = k.value / kappa_val
    notes = (["hypotheses force a constant map; any stretching fails the bound"]
             if bound == 0 and observed > tol else [])
    return _report("schwarz", (k, kappa), observed, bound, tol, len(singular_sq), notes=notes)


def volume_bound_report(f: HoloMap, points, k: Constant, kappa: Constant,
                        tol: float = 1e-8) -> BoundReport:
    """Volume bound D ≤ (K/(mκ))^m under S^M ≥ −K, Ric^N_m ≤ −κ."""
    kappa_val = _require_positive_kappa(kappa)
    if k.value < 0:
        raise ConfigurationError("K must be nonnegative (it bounds −S from above)")
    if f.m > f.n:
        raise ConfigurationError(f"volume bound needs m <= n, got m={f.m}, n={f.n}")
    singular_sq, _, volume = _spectra(f, points)
    observed = float(np.max(volume))
    bound = (k.value / (f.m * kappa_val)) ** f.m
    notes = (["hypotheses force degeneracy; any full-rank sample fails the bound"]
             if bound == 0 and observed > tol else [])
    return _report("volume", (k, kappa), observed, bound, tol, len(singular_sq), notes=notes)


def royden_bound_report(f: HoloMap, points, k: Constant, kappa: Constant,
                        tol: float = 1e-8) -> BoundReport:
    """Energy bound ‖∂f‖² ≤ (2d/(d+1))·K/κ with d = largest sampled rank."""
    kappa_val = _require_positive_kappa(kappa)
    if k.value < 0:
        raise ConfigurationError("K must be nonnegative (it bounds −Ric from above)")
    singular_sq, ranks, _ = _spectra(f, points)
    observed = float(np.max(np.sum(singular_sq, axis=-1)))
    rank = int(np.max(ranks))
    coefficient = Fraction(2 * rank, rank + 1)
    bound = float(coefficient) * k.value / kappa_val
    notes = [f"rank d={rank}, coefficient 2d/(d+1) = {coefficient}"]
    return _report("royden", (k, kappa), observed, bound, tol, len(singular_sq),
                   coefficient=str(coefficient), notes=notes)


# -- three-circle convexity ------------------------------------------------------


def _require_flat_domain(f: HoloMap, what: str):
    if getattr(f.domain.model, "family", None) != "flat":
        raise ConfigurationError(f"{what} needs a flat domain chart (|x| must be the distance)")


def _sphere_points(radius: float, dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic sphere samples; doubling count keeps earlier points."""
    if dim == 1:
        angles = 2.0 * np.pi * np.arange(count) / count
        return radius * np.exp(1j * angles)[:, None]
    # one row per variate block, so a doubled count extends the sample set
    raw = rng_for(seed, 71).normal(size=(count, 2 * dim))
    z = raw[:, :dim] + 1j * raw[:, dim:]
    return radius * z / np.linalg.norm(z, axis=1, keepdims=True)


def _sphere_counts(counts) -> tuple[int, int, int]:
    """One sample count per sphere; a single count stands for all three."""
    if isinstance(counts, (int, np.integer)):
        counts = (counts,) * 3
    if (not isinstance(counts, (list, tuple)) or len(counts) != 3
            or not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 1
                       for c in counts)):
        raise ConfigurationError(
            f"counts must be a positive integer or a list of 3 of them, got {counts!r}")
    return tuple(int(c) for c in counts)


def three_circle_data(f: HoloMap, radii, counts, seed: int = 0) -> tuple[float, float, float]:
    """Sampled sup of the top stretch |∂f| on the three spheres."""
    _require_flat_domain(f, "three-circle check")
    r1, r2, r3 = (float(r) for r in radii)
    if not 0 < r1 < r2 < r3:
        raise ConfigurationError(f"radii must be strictly increasing and positive, got {radii}")
    counts = _sphere_counts(counts)
    samples = np.concatenate([_sphere_points(r, f.m, count, seed)
                              for r, count in zip((r1, r2, r3), counts)])
    # one stack at a time, so only one chunk of stretch data is alive; a row's stretch does
    # not depend on its stack, so a chunk may straddle two spheres
    top = np.concatenate([stack.stretch.singular_sq[:, 0]
                          for start in range(0, len(samples), STACK_CHUNK)
                          for stack in point_stacks(f, samples[start:start + STACK_CHUNK], 1)])
    return tuple(math.sqrt(float(np.max(sphere)))
                 for sphere in np.split(top, np.cumsum(counts)[:-1]))


def three_circle_check(f: HoloMap, radii, counts=64, tol: float = 1e-9,
                       seed: int = 0) -> CheckReport:
    """Convexity of log M(r) in log r, M(r) = sup of |∂f| on the r-sphere.

    The middle value must stay below the log-log interpolation of the
    outer two.  The M(r) are sampled maxima on both sides of the
    inequality, so the report is a ``lower_estimate``.  Target
    nonpositivity of the bisectional curvature is sampled; a violation
    goes into the report's ``refuted`` ledger (see the verdict table in
    the README).
    """
    counts = _sphere_counts(counts)
    m1, m2, m3 = three_circle_data(f, radii, counts, seed)
    r1, r2, r3 = (float(r) for r in radii)
    total = sum(counts)
    notes = [f"M(r1)={m1:.12g} M(r2)={m2:.12g} M(r3)={m3:.12g}"]

    rng = rng_for(seed, 73)
    probe = point_stacks(f, _sphere_points(r2, f.m, HYPOTHESIS_SAMPLES, seed + 1), 0)
    refuted = [f"target bisectional {b:.3e} > 0 near radius {r2}" for stack in probe
               for b in bisectional(stack.curvature("target"),
                                    *_gaussian_vectors(rng, (len(stack),), (f.n, f.n)))
               if b > 1e-9]

    if min(m1, m2, m3) == 0.0:
        notes.append("constant map: all sphere maxima vanish, inequality vacuous")
        violation = 0.0
    else:
        weight = (math.log(r2) - math.log(r1)) / (math.log(r3) - math.log(r1))
        interp = (1.0 - weight) * math.log(m1) + weight * math.log(m3)
        signed = interp - math.log(m2)
        violation = max(0.0, -signed)
        notes.append(f"signed_slack={signed:.12g}")
    return CheckReport(
        kind="three_circle",
        points_checked=total,
        max_abs_residual=violation,
        worst_point=None,
        tolerance=tol,
        notes=tuple(notes),
        refuted=tuple(refuted),
        lower_estimate=True,
    )


# -- hoop (reverse) bounds -------------------------------------------------------

HOOP_MODES = ("volume", "stretching")


def hoop_check(f: HoloMap, points, mode: str, k: Constant, kappa: Constant,
               tol: float = 1e-8) -> BoundReport:
    """Reverse bound max D^{1/m} ≥ K/κ (volume) or max ‖∂f‖²_m ≥ K/κ (stretching).

    Positive curvature must dominate the domain for these; the sampled
    maximum can only undershoot the true one, so the report is a
    ``lower_estimate`` and a failure of it is advisory.
    """
    if mode not in HOOP_MODES:
        raise ConfigurationError(f"unknown hoop mode {mode!r}; choose from {HOOP_MODES}")
    kappa_val = _require_positive_kappa(kappa)
    if k.value <= 0:
        raise ConfigurationError("hoop bounds need K > 0 (positively curved domain)")
    stacks = point_stacks(f, points, 1)
    if mode == "volume" and f.m > f.n:
        raise ConfigurationError(f"volume mode needs m <= n, got m={f.m}, n={f.n}")
    singular_sq, _, volume = _spectra(f, stacks)
    # Python's float power per point, which rounds otherwise than numpy's on an array
    values = ([float(d) ** (1.0 / f.m) for d in volume] if mode == "volume"
              else singular_sq[:, 0])
    observed = float(np.max(values))
    if observed == 0.0:
        raise DegenerateInputError(
            f"map is degenerate on every sample; hoop {mode} bound needs a nontrivial map"
        )
    return _report(f"hoop[{mode}]", (k, kappa), observed, k.value / kappa_val, tol,
                   len(singular_sq), reverse=True)

