"""The model catalog pinned exactly: curvature facts, labels, listing, bad parameters, and
each family's closed forms against jets: the metric against the chart's own jets and, for
Fubini–Study, exact arithmetic; g⁻¹, Γ and R against the jet path of an expression chart
with the same potential or metric."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercheck.cli import chart_from_spec, main
from kahlercheck.geometry import CATALOG, _metric_matrix, catalog, curvature_tensor
from reference import expression_twin

D7 = -2.857142857142857  # -2/0.7
B13 = 1.5384615384615383  # 2/1.3

# family, params, label, (hol_sec_min, hol_sec_max, ricci_min, ricci_max, scalar,
# ricci_m_max), constant_hol_sec, einstein
CATALOG_TABLE = (
    ("flat", {}, "flat(1)", (0.0, 0.0, 0.0, 0.0, 0.0, (0.0,)), True, True),
    ("flat", {"dim": 3}, "flat(3)", (0.0, 0.0, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0)), True, True),
    ("flat", {"m": 2}, "flat(2)", (0.0, 0.0, 0.0, 0.0, 0.0, (0.0, 0.0)), True, True),
    ("poincare_disk", {}, "poincare_disk(a=1)",
     (-2.0, -2.0, -2.0, -2.0, -2.0, (-2.0,)), True, True),
    ("poincare_disk", {"a": 0.7}, "poincare_disk(a=0.7)", (D7, D7, D7, D7, D7, (D7,)), True, True),
    ("poincare_polydisk", {}, "poincare_polydisk(2, a=1)",
     (-2.0, -1.0, -2.0, -2.0, -4.0, (-1.0, -2.0)), False, True),
    ("poincare_polydisk", {"dim": 3, "a": 0.7}, "poincare_polydisk(3, a=0.7)",
     (D7, -0.9523809523809526, D7, D7, -8.571428571428571,
      (-0.9523809523809526, -1.4285714285714286, D7)), False, True),
    ("complex_hyperbolic_ball", {}, "complex_hyperbolic_ball(1, c=1)",
     (-2.0, -2.0, -2.0, -2.0, -2.0, (-2.0,)), True, True),
    ("complex_hyperbolic_ball", {"dim": 3, "c": 1.3}, "complex_hyperbolic_ball(3, c=1.3)",
     (-B13, -B13, -3.0769230769230766, -3.0769230769230766, -9.23076923076923,
      (-B13, -2.3076923076923075, -3.0769230769230766)), True, True),
    ("fubini_study", {}, "fubini_study(1, c=1)", (2.0, 2.0, 2.0, 2.0, 2.0, (2.0,)), True, True),
    ("fubini_study", {"dim": 3, "c": 1.3}, "fubini_study(3, c=1.3)",
     (B13, B13, 3.0769230769230766, 3.0769230769230766, 9.23076923076923,
      (B13, 2.3076923076923075, 3.0769230769230766)), True, True),
)


@pytest.mark.parametrize("family, params, label, facts, constant_hol_sec, einstein", CATALOG_TABLE,
                         ids=[f"{row[0]}-{row[1]}" for row in CATALOG_TABLE])
def test_catalog_families_are_pinned(family, params, label, facts, constant_hol_sec, einstein):
    chart = catalog(family, **params)
    got = chart.facts
    assert chart.family == family and chart.label == label
    assert (got.hol_sec_min, got.hol_sec_max, got.ricci_min, got.ricci_max, got.scalar,
            got.ricci_m_max) == facts
    assert (got.constant_hol_sec, got.einstein) == (constant_hol_sec, einstein)


CATALOG_LIST = "".join(line + "\n" for line in (
    "complex_hyperbolic_ball  dim (default 1), c > 0 (default 1) unit ball with potential "
    "-c*log(1-|z|^2)",
    "flat                     dim (default 1)                  flat metric on C^dim, "
    "potential |z|^2",
    "fubini_study             dim (default 1), c > 0 (default 1) C^dim chart of projective space, "
    "potential c*log(1+|z|^2)",
    "poincare_disk            a > 0 (default 1)                unit disk with g = a/(1-|z|^2)^2",
    "poincare_polydisk        dim (default 2), a > 0 (default 1) product of dim Poincaré disks",
    "scenario:averaging_chb",
    "scenario:boch1_flat_to_ball",
    "scenario:boch2_surface_to_threefold",
    "scenario:hoop_fs_equality",
    "scenario:logw_disk_to_ball",
    "scenario:psh_energy_curve",
    "scenario:psh_volume_pair",
    "scenario:schwarz_disk_equality",
    "scenario:three_circle_curved",
    "scenario:three_circle_z2",
    "scenario:volume_ball_equality",
))


def test_catalog_list_output_is_pinned(capsys):
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr() == (CATALOG_LIST, "")


@pytest.mark.parametrize("family, params, message", [
    ("flat", {"dim": 0}, "parameter dim must be an integer >= 1 and <= 4, got 0"),
    ("poincare_disk", {"a": -1.0}, "parameter a must be a finite positive number, got -1.0"),
    ("poincare_polydisk", {"dim": 2, "b": 1.0},
     "invalid parameters ['b', 'dim'] for catalog chart 'poincare_polydisk'"),
    ("complex_hyperbolic_ball", {"c": 0}, "parameter c must be a finite positive number, got 0"),
    ("fubini_study", {"dim": 2, "c": "abc"},
     "parameter c must be a finite positive number, got 'abc'"),
])
def test_bad_catalog_parameter_message_is_pinned(tmp_path, capsys, family, params, message):
    doc = {"schema": 1, "name": "toy", "domain": {"catalog": family, "params": params},
           "target": {"catalog": "flat"}, "map": ["z1"],
           "sampler": {"count": 3, "radius": 0.5, "seed": 1}, "checks": [{"kind": "schwarz"}]}
    path = tmp_path / "bad_catalog.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("spec", [{"dim": 1, "potential": "abs2(z1)"},
                                  {"dim": 2, "metric": [["1", "0"], ["0", "1"]]}])
def test_an_expression_chart_has_no_family_or_facts(spec):
    chart = chart_from_spec(spec, "domain")
    assert (chart.family, chart.facts) == (None, None)


# a bounded family's points reach 1e-6 of its edge, where (1 - |z|^2)^2 is still above the
# jets' singular floor; Fubini-Study's and the flat chart's reach radius 1e3
_EDGE_GAPS = st.one_of(st.just(1e-6), st.floats(1e-6, 1.0))
_FAR_RADII = st.one_of(st.just(1e3), st.floats(0.0, 1e3))


def _directions(dim: int):
    """Unit vectors of C^dim: moduli in [0.01, 1] normalized, and any phases."""
    moduli = st.lists(st.floats(0.01, 1.0), min_size=dim, max_size=dim)
    phases = st.lists(st.floats(0.0, 2 * np.pi), min_size=dim, max_size=dim)
    return st.builds(lambda r, t: np.array(r) / np.linalg.norm(r) * np.exp(1j * np.array(t)),
                     moduli, phases)


@st.composite
def catalog_points(draw):
    family = draw(st.sampled_from(sorted(CATALOG)))
    params = {} if family == "poincare_disk" else {"dim": draw(st.integers(1, 4))}
    if family != "flat":
        params["a" if family.startswith("poincare") else "c"] = draw(st.floats(0.3, 3.0))
    chart = catalog(family, **params)
    unit = draw(_directions(chart.dim))
    if family == "poincare_polydisk":  # each coordinate its own distance from the edge
        gaps = np.array([draw(_EDGE_GAPS) for _ in range(chart.dim)])
        return chart, params, (1.0 - gaps) * unit / np.abs(unit)
    radius = draw(_FAR_RADII) if family in ("flat", "fubini_study") else 1.0 - draw(_EDGE_GAPS)
    return chart, params, radius * unit


@settings(max_examples=200, deadline=None)
@given(catalog_points())
def test_the_closed_form_metric_is_the_one_read_off_the_jets(case):
    chart, params, point = case
    read = _metric_matrix(chart.metric_jets(point, 0))
    read = 0.5 * (read + read.conj().T)  # the part _checked_metric keeps
    closed = chart._closed_metric(point[None])[0]
    scale = np.max(np.abs(read))
    if chart.family == "fubini_study":
        # the jets' ∂∂̄ log(1 + |z|²) subtracts two terms of size c·s, s = 1/(1 + |z|²), and
        # rounds in their scale: in dim 1 at |z| = 1e3 the entry c·s² is a millionth of it
        scale = max(scale, params["c"] / (1.0 + np.vdot(point, point).real))
    assert np.max(np.abs(closed - read)) <= 1e-13 * scale


def _exact_fubini_study(point, c: float) -> np.ndarray:
    """c·(δ_ab·s − s²·z̄_a·z_b), s = 1/(1 + |z|²), in exact rational arithmetic, then rounded."""
    re = [Fraction(float(x)) for x in point.real]
    im = [Fraction(float(y)) for y in point.imag]
    s = 1 / (1 + sum(x * x + y * y for x, y in zip(re, im)))
    dim = len(point)
    g = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            # z̄_a·z_b
            real, imag = re[a] * re[b] + im[a] * im[b], re[a] * im[b] - im[a] * re[b]
            g[a, b] = complex(float(Fraction(c) * ((a == b) * s - s * s * real)),
                              float(-Fraction(c) * s * s * imag))
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.floats(0.3, 3.0), _FAR_RADII, st.data())
def test_the_fubini_study_closed_form_keeps_its_digits_far_out(dim, c, radius, data):
    # the diagonal s − s²|z_a|² is summed as s² + Σ_{k≠a} s²|z_k|², so it does not cancel
    point = radius * data.draw(_directions(dim))
    exact = _exact_fubini_study(point, c)
    closed = catalog("fubini_study", dim=dim, c=c)._closed_metric(point[None])[0]
    assert np.max(np.abs(closed - exact)) <= 1e-13 * np.max(np.abs(exact))


# family, dim, scale (a or c), radius of the sample points
CLOSED_FORM_CASES = [(family, dim, scale, radius)
                     for family, radius in (("flat", 2.0), ("poincare_disk", 0.9),
                                            ("poincare_polydisk", 0.9),
                                            ("complex_hyperbolic_ball", 0.9),
                                            ("fubini_study", 3.0))
                     for dim in ((1,) if family == "poincare_disk" else (1, 2, 3))
                     for scale in (0.4, 1.0, 2.5)
                     if not (family == "flat" and scale != 1.0)]


@pytest.mark.parametrize("family, dim, scale, radius", CLOSED_FORM_CASES)
def test_the_closed_forms_equal_the_jet_path_of_the_same_potential_or_metric(family, dim, scale,
                                                                              radius):
    params = {} if family == "poincare_disk" else {"dim": dim}
    if family != "flat":
        params["a" if family.startswith("poincare") else "c"] = scale
    closed, jets = catalog(family, **params), expression_twin(family, dim, scale)
    rng = np.random.default_rng([dim, int(10 * scale), len(family)])
    raw = rng.normal(size=(8, dim)) + 1j * rng.normal(size=(8, dim))
    unit = raw / np.abs(raw) if family == "poincare_polydisk" else raw / np.linalg.norm(
        raw, axis=1, keepdims=True)
    points = radius * rng.uniform(0.05, 1.0, size=(8, 1)) * unit
    got, want = curvature_tensor(closed, points), curvature_tensor(jets, points)
    for name in ("g", "g_inv", "gamma", "riem"):
        a, b = getattr(got, name), getattr(want, name)
        for row in range(len(points)):
            assert np.max(np.abs(a[row] - b[row])) <= 1e-12 * np.max(np.abs(b[row])), (name, row)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("radius", [10.0, 100.0])
def test_fubini_study_curvature_is_exact_far_out(dim, radius):
    # R/g² along the first axis is H = 2; the jet path's ∂∂̄ log(1 + |z|²) cancels out
    # there, and read 2.000000007 at this point at |z| = 100 in dim 1
    cp = curvature_tensor(catalog("fubini_study", dim=dim), np.full(dim, radius / np.sqrt(dim)))
    assert abs(cp.riem[0, 0, 0, 0] / cp.g[0, 0] ** 2 - 2.0) <= 1e-12


@pytest.mark.parametrize("family", ["poincare_polydisk", "complex_hyperbolic_ball", "fubini_study"])
def test_the_closed_curvature_of_a_large_scale_stays_finite(family):
    # R ~ g²/a: the entries are near 1e200, and their squares would overflow
    chart = catalog(family, dim=2, **{"a" if family.startswith("poincare") else "c": 1e200})
    cp = curvature_tensor(chart, [0.3, 0.4j])
    assert np.isfinite(cp.riem).all()
    # H along the first axis: constant on the ball and Fubini–Study, −2/a on the polydisk
    h = cp.riem[0, 0, 0, 0] / cp.g[0, 0] / cp.g[0, 0]
    assert h == pytest.approx(chart.facts.hol_sec_min, rel=1e-12)
