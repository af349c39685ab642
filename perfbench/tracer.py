"""Per-layer spans recorded from outside melan, by wrapping public names.

A layer is a melan module.  Each public function is wrapped where it is
looked up at call time: the module attribute another module imported it
under (`melan.monotone.solve_linear`), or the class attribute for methods
(`melan.loads.LoadSpec.evaluate`).  src/ is not edited.  A span's self time
is its duration minus the time covered by the spans it directly caused.
Only per-name aggregates are kept, so a long traced run holds no span list.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from time import perf_counter

LAYERS = ("cli", "bridge", "monotone", "linear", "kernel", "criteria", "loads", "quadrature")

# (import site, attribute, span name).  A function imported into several
# modules is wrapped at each site that calls it.  melan.oracle is left out:
# no user's result waits on it.
SITES = (
    ("melan.cli", "main", "cli.main"),
    ("melan.cli", "solve_bridge", "bridge.solve_bridge"),
    ("melan.cli", "applicability", "bridge.applicability"),
    ("melan.cli", "solve_linear", "linear.solve_linear"),
    ("melan.cli", "residual", "linear.residual"),
    ("melan.cli", "iterate_melan", "monotone.iterate_melan"),
    ("melan.bridge", "applicability", "bridge.applicability"),
    ("melan.bridge", "derive_coefficients", "bridge.derive_coefficients"),
    ("melan.bridge", "load_envelope", "bridge.load_envelope"),
    ("melan.bridge", "check_sine_conditions", "criteria.check_sine_conditions"),
    ("melan.bridge", "make_sine_pair", "monotone.make_sine_pair"),
    ("melan.bridge", "run_monotone", "monotone.run_monotone"),
    ("melan.bridge", "uniform_grid", "quadrature.uniform_grid"),
    ("melan.monotone", "make_sine_pair", "monotone.make_sine_pair"),
    ("melan.monotone", "run_monotone", "monotone.run_monotone"),
    ("melan.monotone", "iterate_once", "monotone.iterate_once"),
    ("melan.monotone", "verify_lower", "monotone.verify_lower"),
    ("melan.monotone", "verify_upper", "monotone.verify_upper"),
    ("melan.monotone", "solve_linear", "linear.solve_linear"),
    ("melan.monotone", "Sampled", "loads.Sampled"),
    ("melan.monotone", "check_positivity", "criteria.check_positivity"),
    ("melan.monotone", "check_uniqueness", "criteria.check_uniqueness"),
    ("melan.monotone", "contraction_rho", "criteria.contraction_rho"),
    ("melan.monotone", "uniform_grid", "quadrature.uniform_grid"),
    ("melan.monotone", "integrate", "quadrature.integrate"),
    ("melan.criteria", "check_positivity", "criteria.check_positivity"),
    ("melan.criteria", "sigma", "criteria.sigma"),
    ("melan.linear", "psi", "kernel.psi"),
    ("melan.linear", "gm_row_integral", "kernel.gm_row_integral"),
    ("melan.linear", "zeta", "kernel.zeta"),
    ("melan.linear", "sinh_frac", "kernel.sinh_frac"),
    ("melan.linear", "uniform_grid", "quadrature.uniform_grid"),
    ("melan.linear", "simpson_weights", "quadrature.simpson_weights"),
    ("melan.loads.LoadSpec", "evaluate", "loads.evaluate"),
    ("melan.loads.LoadSpec", "scaled", "loads.scaled"),
)

# Entry points the benchmark itself calls, wrapped on the names it calls.
ENTRY = {
    "solve_bridge": "bridge.solve_bridge",
    "solve_linear": "linear.solve_linear",
    "check_smallness": "criteria.check_smallness",
    "check_positivity": "criteria.check_positivity",
}


def _resolve(path: str):
    """Module or class behind a dotted path such as melan.loads.LoadSpec."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _has_sampled(args, kwargs) -> bool:
    problem = args[0] if args else kwargs["problem"]
    return any(type(t).__name__ == "Sampled" for t in problem.load.terms)


class Tracer:
    """Stack of open spans and per-name totals of self time and calls."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.sampled_calls = 0
        self.peak_alloc = 0
        self.measure_alloc = False
        self._stack = []
        self._undo = []

    def wrap(self, fn, name: str):
        """`fn` with a span named `name` around every call."""
        counts_sampled = name == "linear.solve_linear"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_sampled and _has_sampled(args, kwargs):
                self.sampled_calls += 1
            alloc = counts_sampled and self.measure_alloc
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                took = end - start
                self.self_s[name] = self.self_s.get(name, 0.0) + took - frame[0]
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._stack:
                    self._stack[-1][0] += took
                if alloc:
                    self.peak_alloc = max(self.peak_alloc,
                                          tracemalloc.get_traced_memory()[1] - base)

        return traced

    def install(self) -> None:
        """Wrap every site in SITES; `uninstall` restores the originals."""
        for path, attr, name in SITES:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Self seconds and call counts per span name and per layer."""
        return {**by_layer(self.self_s, self.calls), "sampled_calls": self.sampled_calls,
                "peak_alloc": self.peak_alloc}


def by_layer(self_s: dict, calls: dict) -> dict:
    """Per-name self seconds and calls, with their sums per layer."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, secs in self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] += secs
        layer_calls[layer] += calls[name]
    return {"self_s": dict(self_s), "calls": dict(calls), "layer_self_s": layer_self,
            "layer_calls": layer_calls}
