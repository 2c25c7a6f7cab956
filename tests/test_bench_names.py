"""The names the benchmark reads from the package still resolve.

``bench/tracing.py`` wraps package functions by module and attribute
name, and the bench scripts call a few more by name; a rename or a
deletion under ``src/`` would otherwise surface only when the benchmark
runs.  Every name in ``kahlercheck.__all__`` must resolve too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kahlercheck

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# what bench/run.py, bench/checks.py and bench/setup_probe.py call beside the traced spans
MODULE_NAMES = (("identities", "boch1_sides"), ("jets", "jet_variable"))
PACKAGE_NAMES = ("jet_variable", "load_scenario", "run_scenario", "render_json")
# methods tracing.instrument replaces in the class's own namespace
WRAPPED_METHODS = (("jets", "WirtingerJet", "__mul__"),
                   ("geometry", "PotentialChart", "metric_jets"),
                   ("geometry", "ComponentChart", "metric_jets"),
                   ("geometry", "PulledBackChart", "metric_jets"),
                   ("maps", "HoloMap", "component_jets"))


def _tracing():
    if not TRACING.is_file():
        pytest.skip("bench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    for span, (module, attr) in tracing._FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(f"kahlercheck.{module}"), attr)), span
    for module in tracing._WHOLE_MODULES:
        importlib.import_module(f"kahlercheck.{module}")
    for module, cls, method in WRAPPED_METHODS:
        assert method in vars(getattr(importlib.import_module(f"kahlercheck.{module}"), cls))


def test_names_the_bench_calls_resolve():
    _tracing()
    for module, attr in MODULE_NAMES:
        assert callable(getattr(importlib.import_module(f"kahlercheck.{module}"), attr)), attr
    for name in PACKAGE_NAMES:
        assert callable(getattr(kahlercheck, name)), name


def test_every_exported_name_resolves():
    missing = [name for name in kahlercheck.__all__ if not hasattr(kahlercheck, name)]
    assert missing == []
