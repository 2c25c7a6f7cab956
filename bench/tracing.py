"""Layer spans recorded from outside the program.

:func:`instrument` replaces the public functions of each kahlercheck
layer by timing wrappers, without editing the package.  Two things
make that less simple than patching one attribute per function:

* a name bound by ``from … import`` is a separate reference in the
  importing module (``curvature_tensor`` lives in ``geometry``,
  ``identities``, ``bounds``, ``cli`` and the package namespace), so
  every kahlercheck module attribute that *is* the original gets the
  wrapper;
* ``WirtingerJet.__rmul__`` is its own class attribute, an alias of
  ``__mul__``, so both are replaced.

A span is (name, start, end, parent).  Spans live in flat arrays in
memory and are written out once the run ends.  Recursive functions
(``expressions.evaluate``, ``render_json``) record only their
outermost call.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> (module, attribute path) of what is wrapped under it
_FUNCTIONS = {
    "jets.compose": ("jets", "compose"),
    "jets.derivative": ("jets", "derivative"),
    "expressions.evaluate": ("expressions", "evaluate"),
    "geometry.pullback": ("geometry", "pullback_metric_jets"),
    "geometry.curvature": ("geometry", "curvature_tensor"),
    "maps.point_data": ("maps", "map_point_data"),
    "maps.hessian": ("maps", "map_hessian"),
    "cli.load": ("cli", "load_scenario"),
    "cli.constants": ("cli", "resolve_bound_constants"),
    "cli.render": ("cli", "render_json"),
}
_RECURSIVE = {"expressions.evaluate", "cli.render"}
# every other public function of these modules is timed under the module's name
_WHOLE_MODULES = ("linalg", "functionals", "identities", "bounds")


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._stack_codes = [-1]

    def code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, name: str) -> int:
        idx = len(self.code)
        self.code.append(self.code_of(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self._stack_codes.append(self.code[idx])
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._stack_codes.pop()

    def wrap(self, name: str, fn, recursive: bool = False):
        # open/close inlined: the wrapper runs around every jet multiply
        code = self.code_of(name)
        codes, starts, ends, parents = self.code, self.start, self.end, self.parent
        stack, stack_codes, clock = self._stack, self._stack_codes, time.perf_counter

        def traced(*args, **kwargs):
            if recursive and stack_codes[-1] == code:
                return fn(*args, **kwargs)
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            stack_codes.append(code)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stack_codes.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def arrays(self):
        return (np.frombuffer(self.code, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path: Path) -> None:
        code, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), code=code, start=start,
                            end=end, parent=parent)


def _package_modules(package: str):
    return [module for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")]


def _rebind(originals: dict, package: str) -> None:
    """Point every module-level reference to an original at its wrapper."""
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                setattr(module, attr, wrapper[1])


def instrument(tracer: Tracer, kc) -> None:
    """Wrap each layer of the imported package ``kc``."""
    package = kc.__name__
    modules = {name: sys.modules[f"{package}.{name}"] for name in
               ("jets", "expressions", "geometry", "maps", "cli") + _WHOLE_MODULES}
    originals: dict[int, tuple] = {}

    def add(name, fn, recursive=False):
        originals[id(fn)] = (fn, tracer.wrap(name, fn, recursive))

    for name, (mod, attr) in _FUNCTIONS.items():
        add(name, getattr(modules[mod], attr), name in _RECURSIVE)
    for mod in _WHOLE_MODULES:
        module = modules[mod]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                add(mod, value)
    _rebind(originals, package)

    jet_cls = modules["jets"].WirtingerJet
    mul = tracer.wrap("jets.mul", jet_cls.__dict__["__mul__"])
    jet_cls.__mul__ = mul
    jet_cls.__rmul__ = mul
    geometry = modules["geometry"]
    for cls in (geometry.PotentialChart, geometry.ComponentChart, geometry.PulledBackChart):
        cls.metric_jets = tracer.wrap("geometry.metric_jets", cls.__dict__["metric_jets"])
    holo = modules["maps"].HoloMap
    holo.component_jets = tracer.wrap("maps.component_jets", holo.__dict__["component_jets"])

    # a reference left unwrapped would leak time into its caller's self time
    leaks = [f"{module.__name__}.{attr}" for module in _package_modules(package)
             for attr, value in vars(module).items()
             if id(value) in originals and originals[id(value)][0] is value]
    if leaks:
        raise RuntimeError(f"unwrapped references remain: {', '.join(sorted(leaks))}")


def per_pass(tracer: Tracer, pass_spans: list[int]):
    """Calls and self time (s) per span name, one row per pass span.

    A span's self time is its duration minus the durations of its
    direct children; spans nest properly because the run is single
    threaded.
    """
    code, start, end, parent = tracer.arrays()
    duration = end - start
    child = np.zeros(len(code))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    self_time = duration - child
    bounds = list(pass_spans) + [len(code)]
    names = len(tracer.names)
    calls = np.zeros((len(pass_spans), names), dtype=np.int64)
    selfs = np.zeros((len(pass_spans), names))
    for k in range(len(pass_spans)):
        lo, hi = bounds[k], bounds[k + 1]
        calls[k] = np.bincount(code[lo:hi], minlength=names)
        selfs[k] = np.bincount(code[lo:hi], weights=self_time[lo:hi], minlength=names)
    return calls, selfs
