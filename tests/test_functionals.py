"""Curvature functional tests.

Oracles: the quartic Taylor expansion of the ball/projective
potentials at the origin, the log-det identity Ric = -∂∂̄ log det g,
homogeneity in the direction vector, and closed-form extremes on the
polydisk (H ranges over [-2/a, -1/a] in dimension 2).
"""

import numpy as np
import pytest

from kahlercheck.errors import ConfigurationError, DegenerateInputError, FrameError
from kahlercheck.functionals import (
    KRicciExtremes,
    SubspaceFrame,
    bisectional,
    holo_sectional,
    k_ricci_extremes,
    k_scalar,
    k_scalar_average,
    k_scalar_quadrature,
    ricci,
    scalar_curvature,
    subspace_frame,
)
from kahlercheck.geometry import catalog, curvature_tensor
from kahlercheck.jets import derivative, jet_mat_det
from kahlercheck.linalg import pencil_eigh


def cp_at(name, point, **params):
    chart = catalog(name, **params)
    return curvature_tensor(chart, point)


def unit_vector(cp, v):
    v = np.asarray(v, dtype=complex)
    norm = np.sqrt((v @ cp.g @ np.conj(v)).real)
    return v / norm


# -- sectional / bisectional ---------------------------------------------------


def test_flat_functionals_vanish():
    cp = cp_at("flat", [0.2, -0.1j], dim=2)
    assert holo_sectional(cp, [1.0, 2.0]) == (0.0, 0.0)
    assert bisectional(cp, [1.0, 0.0], [0.0, 1.0]) == 0.0
    np.testing.assert_allclose(ricci(cp), 0, atol=1e-13)
    assert scalar_curvature(cp) == pytest.approx(0.0, abs=1e-13)


def test_ball_holo_sectional_at_origin():
    cp = cp_at("complex_hyperbolic_ball", [0.0, 0.0], dim=2, c=1.0)
    raw, normalized = holo_sectional(cp, [1.0, 0.0])
    assert raw == pytest.approx(-2.0, abs=1e-12)
    assert normalized == pytest.approx(-2.0, abs=1e-12)
    raw2, normalized2 = holo_sectional(cp, [2.0, 0.0])
    assert raw2 == pytest.approx(-32.0, abs=1e-11)  # |Z|⁴ = 16
    assert normalized2 == pytest.approx(-2.0, abs=1e-12)


def test_holo_sectional_homogeneity():
    cp = cp_at("poincare_polydisk", [0.3, 0.1 - 0.2j], dim=2, a=1.5)
    rng = np.random.default_rng(9)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw, normalized = holo_sectional(cp, z)
    for c in (2.0, 0.5j, 1.0 - 1.0j):
        raw_c, normalized_c = holo_sectional(cp, c * z)
        assert raw_c == pytest.approx(abs(c) ** 4 * raw, rel=1e-10)
        assert normalized_c == pytest.approx(normalized, rel=1e-10)


def test_zero_vectors_rejected():
    cp = cp_at("flat", [0.0], dim=1)
    with pytest.raises(DegenerateInputError):
        holo_sectional(cp, [0.0])
    with pytest.raises(DegenerateInputError):
        bisectional(cp, [0.0], [1.0])


def test_ball_bisectional_at_origin():
    cp = cp_at("complex_hyperbolic_ball", [0.0, 0.0], dim=2, c=1.0)
    assert bisectional(cp, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(10)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw, _ = holo_sectional(cp, x)
    assert bisectional(cp, x, x) == pytest.approx(raw, rel=1e-12)


# -- ricci / scalar ------------------------------------------------------------


def test_ricci_of_models_at_origin():
    cp = cp_at("complex_hyperbolic_ball", [0.0, 0.0], dim=2, c=1.0)
    np.testing.assert_allclose(ricci(cp), -3 * np.eye(2), atol=1e-12)
    assert scalar_curvature(cp) == pytest.approx(-6.0, abs=1e-11)
    fs = cp_at("fubini_study", [0.0, 0.0], dim=2, c=1.0)
    np.testing.assert_allclose(ricci(fs), 3 * np.eye(2), atol=1e-12)
    assert scalar_curvature(fs) == pytest.approx(6.0, abs=1e-11)


def test_ricci_matches_log_det_identity():
    # independent oracle: Ric_{γδ̄} = -∂² log det g / ∂z^γ ∂z̄^δ
    chart = catalog("complex_hyperbolic_ball", dim=2, c=2.0)
    point = [0.25, -0.15 + 0.1j]
    cp = curvature_tensor(chart, point)
    gjets = chart.metric_jets(point, 2)
    log_det = jet_mat_det(gjets).log()
    units = np.eye(2, dtype=int)
    want = -np.array(
        [[derivative(log_det, units[c], units[d]) for d in range(2)] for c in range(2)]
    )
    np.testing.assert_allclose(ricci(cp), want, atol=1e-10)


# -- k-scalar --------------------------------------------------------------------


def test_ball_k_scalar_full_frame():
    cp = cp_at("complex_hyperbolic_ball", [0.0, 0.0], dim=2, c=1.0)
    frame = SubspaceFrame(np.eye(2, dtype=complex))
    assert k_scalar(cp, frame) == pytest.approx(-6.0, abs=1e-11)
    assert k_scalar_average(cp, frame) == pytest.approx(-2.0, abs=1e-11)


def test_k_scalar_k1_is_normalized_h():
    cp = cp_at("poincare_polydisk", [0.2, -0.4j], dim=2, a=1.0)
    rng = np.random.default_rng(11)
    v = unit_vector(cp, rng.normal(size=2) + 1j * rng.normal(size=2))
    _, normalized = holo_sectional(cp, v)
    assert k_scalar(cp, SubspaceFrame(v[:, None])) == pytest.approx(normalized, rel=1e-11)


def test_k_scalar_rejects_non_orthonormal_frames():
    cp = cp_at("complex_hyperbolic_ball", [0.3, 0.0], dim=2, c=1.0)
    with pytest.raises(FrameError):
        k_scalar(cp, SubspaceFrame(np.eye(2, dtype=complex)))  # not unit in g here


def test_k_scalar_frame_independent_when_h_constant():
    rng = np.random.default_rng(12)
    for name, params, want in (
        ("complex_hyperbolic_ball", dict(dim=3, c=1.5), -2 * 3 / 1.5),
        ("fubini_study", dict(dim=2, c=1.0), 2 * 3 / 1.0),
    ):
        point = np.full(params["dim"], 0.15 + 0.05j)
        cp = cp_at(name, point, **params)
        values = []
        for _ in range(100):
            raw = rng.normal(size=(params["dim"], 2)) + 1j * rng.normal(size=(params["dim"], 2))
            values.append(k_scalar(cp, subspace_frame(cp, raw)))
        values = np.array(values)
        assert np.max(values) - np.min(values) <= 1e-8
        np.testing.assert_allclose(values, want, atol=1e-8)


# -- quadrature -------------------------------------------------------------------


def test_quadrature_constant_h_is_exact():
    cp = cp_at("complex_hyperbolic_ball", [0.0, 0.0], dim=2, c=1.0)
    frame = SubspaceFrame(np.eye(2, dtype=complex))
    estimate, stderr = k_scalar_quadrature(cp, frame, count=100_000, seed=7)
    assert estimate == pytest.approx(-6.0, abs=1e-9)
    assert stderr <= 1e-9


def test_quadrature_k1_has_zero_spread():
    cp = cp_at("poincare_polydisk", [0.1, 0.2], dim=2, a=1.0)
    v = unit_vector(cp, np.array([1.0, 1.0j]))
    estimate, stderr = k_scalar_quadrature(cp, SubspaceFrame(v[:, None]), count=500, seed=3)
    _, normalized = holo_sectional(cp, v)
    assert estimate == pytest.approx(normalized, abs=1e-10)
    assert stderr <= 1e-10


def test_quadrature_tracks_algebraic_value():
    # 3·stderr coverage over 100 deterministic runs on a varying-H chart
    cp = cp_at("poincare_polydisk", [0.3, -0.2j], dim=2, a=1.0)
    frame = subspace_frame(cp, np.eye(2, dtype=complex))
    algebraic = k_scalar(cp, frame)
    hits = 0
    for run in range(100):
        estimate, stderr = k_scalar_quadrature(cp, frame, count=400, seed=run)
        if abs(estimate - algebraic) <= 3 * stderr:
            hits += 1
    assert hits >= 99


def test_quadrature_count_floor():
    cp = cp_at("flat", [0.0], dim=1)
    frame = SubspaceFrame(np.eye(1, dtype=complex))
    with pytest.raises(ConfigurationError):
        k_scalar_quadrature(cp, frame, count=50, seed=0)


# -- k-Ricci search ------------------------------------------------------------------


def test_k_ricci_flat_is_zero():
    cp = cp_at("flat", [0.1, 0.2], dim=2)
    out = k_ricci_extremes(cp, k=1, restarts=3, iterations=10, seed=0)
    assert out.max_eig == pytest.approx(0.0, abs=1e-12)
    assert out.min_eig == pytest.approx(0.0, abs=1e-12)


def test_k_ricci_ball_constant_values():
    cp = cp_at("complex_hyperbolic_ball", [0.0, 0.0], dim=2, c=1.0)
    k1 = k_ricci_extremes(cp, k=1, restarts=5, iterations=30, seed=1)
    assert k1.max_eig == pytest.approx(-2.0, abs=1e-6)
    assert k1.min_eig == pytest.approx(-2.0, abs=1e-6)
    k2 = k_ricci_extremes(cp, k=2, restarts=5, iterations=5, seed=1)
    assert k2.max_eig == pytest.approx(-3.0, abs=1e-6)
    assert k2.min_eig == pytest.approx(-3.0, abs=1e-6)


def test_k_ricci_full_k_matches_ricci_pencil():
    cp = cp_at("poincare_polydisk", [0.4, 0.1 + 0.2j], dim=2, a=1.5)
    vals, _ = pencil_eigh(ricci(cp), cp.g)
    out = k_ricci_extremes(cp, k=2, restarts=4, iterations=5, seed=2)
    assert out.max_eig == pytest.approx(vals[-1], abs=1e-6)
    assert out.min_eig == pytest.approx(vals[0], abs=1e-6)


def test_k_ricci_k1_finds_polydisk_extremes():
    # H on the polydisk spans [-2/a, -1/a]; extremes at axis / diagonal
    a = 1.25
    cp = cp_at("poincare_polydisk", [0.2, -0.3j], dim=2, a=a)
    out = k_ricci_extremes(cp, k=1, restarts=8, iterations=300, seed=3)
    assert out.max_eig == pytest.approx(-1.0 / a, abs=1e-6)
    assert out.min_eig == pytest.approx(-2.0 / a, abs=1e-6)
    # reported value is achieved by the reported direction
    _, normalized = holo_sectional(cp, out.max_vector)
    assert normalized == pytest.approx(out.max_eig, abs=1e-9)
    # and beats a brute-force sample sweep
    rng = np.random.default_rng(4)
    dirs = rng.normal(size=(4000, 2)) + 1j * rng.normal(size=(4000, 2))
    best = max(holo_sectional(cp, d)[1] for d in dirs)
    assert out.max_eig >= best - 1e-6


def test_k_ricci_negative_max_forces_negative_k_scalar():
    cp = cp_at("complex_hyperbolic_ball", [0.2, 0.1], dim=2, c=1.0)
    out = k_ricci_extremes(cp, k=2, restarts=3, iterations=5, seed=5)
    assert out.max_eig < 0
    rng = np.random.default_rng(6)
    for _ in range(50):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert k_scalar(cp, subspace_frame(cp, raw)) < 0


def test_k_ricci_validates_k():
    cp = cp_at("flat", [0.0], dim=1)
    with pytest.raises(ConfigurationError):
        k_ricci_extremes(cp, k=0)
    with pytest.raises(ConfigurationError):
        k_ricci_extremes(cp, k=2)


def test_k_ricci_result_frames_are_orthonormal():
    cp = cp_at("poincare_polydisk", [0.1, 0.3], dim=2, a=1.0)
    out = k_ricci_extremes(cp, k=1, restarts=3, iterations=50, seed=7)
    assert isinstance(out, KRicciExtremes)
    e = out.max_frame.vectors
    np.testing.assert_allclose(e.T @ cp.g @ np.conj(e), np.eye(1), atol=1e-10)


@pytest.mark.parametrize("name, params, point", [
    ("flat", {"dim": 2}, [0.3, -0.2j]),
    ("poincare_disk", {"a": 1.5}, [0.3 - 0.1j]),
    ("poincare_polydisk", {"dim": 2, "a": 1.25}, [0.2, -0.3j]),
    ("poincare_polydisk", {"dim": 3, "a": 0.8}, [0.1, 0.2j, -0.3]),
    ("complex_hyperbolic_ball", {"dim": 3, "c": 2.0}, [0.2, 0.1j, -0.3]),
    ("fubini_study", {"dim": 3, "c": 1.5}, [0.5, -0.4j, 0.3]),
])
def test_catalog_m_ricci_facts_match_search(name, params, point):
    from kahlercheck.geometry import catalog_facts

    facts = catalog_facts(name, **params)
    cp = cp_at(name, point, **params)
    dim = len(point)
    assert len(facts.ricci_m_max) == dim
    assert facts.ricci_m_max[-1] == facts.ricci_max
    for m in range(1, dim + 1):
        out = k_ricci_extremes(cp, k=m, restarts=4, iterations=200, seed=m)
        # the fixed-step search approaches the largest value from below
        assert out.max_eig <= facts.ricci_m_max[m - 1] + 1e-9
        assert out.max_eig == pytest.approx(facts.ricci_m_max[m - 1], rel=5e-3, abs=1e-9)
