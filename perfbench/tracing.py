"""Layer spans for the traced run, recorded from outside the package.

``Tracer.begin_op`` replaces each public function named in LAYERS, in every
``adspectral`` module namespace that binds it (``from .x import f`` makes
copies of the binding), by a wrapper that records a span: its name, start,
end, and the span that called it. ``end_op`` puts the originals back, so
untraced ops run the package exactly as shipped. Callers outside the package
must call through the module (``adspectral.solver.solve_modes``) to be traced. A span's self time is its
duration minus the time its child spans cover; the self times of all spans
in one op, plus the benchmark's own glue, add up to the op's time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = {
    "problems": ("load_config", "parse_config_pairs"),
    "gegenbauer": ("build_basis", "build_integration_matrix", "bary_interpolate"),
    "fourier": ("dft_coefficients", "synthesize_field", "synthesize_derivative"),
    "solver": ("solve_modes", "assemble_mode", "coefficients_at", "evaluate_u",
               "evaluate_ux"),
    "semianalytic": ("sa_field", "sa_coefficient_map", "sa_evaluate_u",
                     "sa_evaluate_ux"),
    "analysis": ("error_report", "convergence_sweep", "conditioning_study",
                 "singular_values", "jacobi_svd"),
    "cli": ("main",),
}

# About 70k calls per field_csv op: timed and counted, but no span record is
# kept for each call, so the trace stays small and cheap.
COUNTED_ONLY = {"gegenbauer.bary_interpolate"}
# Functions whose call arguments feed the waste ratios (see Tracer._note).
NOTED = {"gegenbauer.build_integration_matrix", "solver.coefficients_at",
         "solver.solve_modes"}

# Per-op metrics of the traced run, with units; the order is the report order.
METRIC_UNITS = {
    "problems.config_s": "s",
    "problems.config_reads": "count",
    "gegenbauer.basis_s": "s",
    "gegenbauer.qmatrix_s": "s",
    "gegenbauer.qmatrix_calls": "count",
    "gegenbauer.qmatrix_reuse": "ratio",
    "gegenbauer.bary_s": "s",
    "gegenbauer.bary_calls": "count",
    "gegenbauer.self_s": "s",
    "fourier.dft_s": "s",
    "fourier.dft_calls": "count",
    "fourier.synth_s": "s",
    "fourier.synth_calls": "count",
    "fourier.self_s": "s",
    "solver.solve_self_s": "s",
    "solver.modes_solved": "count",
    "solver.assemble_s": "s",
    "solver.interp_s": "s",
    "solver.interp_calls": "count",
    "solver.interp_reuse": "ratio",
    "solver.self_s": "s",
    "semianalytic.self_s": "s",
    "analysis.svd_s": "s",
    "analysis.svd_calls": "count",
    "analysis.sweep_self_s": "s",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    # These two come from the workload's output check, not from spans.
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(useful: int, attempts: int) -> float:
    # 0 when the layer was never called.
    return useful / attempts if attempts else 0.0


class Tracer:
    """Span recorder for the functions in LAYERS; one op at a time."""

    def __init__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "adspectral" or name.startswith("adspectral.")]
        self._patches = []
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"adspectral.{layer}")
            for fname in names:
                original = getattr(home, fname)
                key = f"{layer}.{fname}"
                wrapper = (self._counted(key, original) if key in COUNTED_ONLY
                           else self._spanned(key, original))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        self.ops = []  # span lists of finished ops, kept for the span file
        self._reset()

    def _reset(self):
        self._spans = []  # [key, parent index, start, end, child seconds]
        self._stack = []
        self._counts = defaultdict(lambda: [0, 0.0])
        self._q_keys = set()
        self._interp_keys = set()
        self._solutions = []  # held so that id() stays unique within the op
        self._modes = 0

    def _note(self, key, bound):
        # Call arguments recorded at the layer boundary, for the waste ratios.
        if key == "gegenbauer.build_integration_matrix":
            basis = bound["basis"]
            self._q_keys.add((basis.lam, basis.order))
        elif key == "solver.coefficients_at":
            self._solutions.append(bound["sol"])
            self._interp_keys.add((id(bound["sol"]), float(bound["t"])))
        elif key == "solver.solve_modes":
            self._modes += bound["config"].N // 2

    def _spanned(self, key, original):
        signature = inspect.signature(original)
        noted = key in NOTED

        def wrapper(*args, **kwargs):
            if noted:
                self._note(key, signature.bind(*args, **kwargs).arguments)
            spans, stack = self._spans, self._stack
            index = len(spans)
            span = [key, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = end = time.perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += end - span[2]

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, key, original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = self._counts[key]
                entry[0] += 1
                entry[1] += elapsed
                if self._stack:
                    self._spans[self._stack[-1]][4] += elapsed

        wrapper.__wrapped__ = original
        return wrapper

    def begin_op(self):
        self._reset()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def end_op(self, op_seconds: float, op_start: float) -> dict:
        """Restore the package and return this op's per-layer metrics."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for key, _, start, end, child in self._spans:
            incl[key] += end - start
            self_s[key] += end - start - child
            calls[key] += 1
        for key, (n, seconds) in self._counts.items():
            incl[key] += seconds
            self_s[key] += seconds
            calls[key] += n
        layer_self = {layer: sum(v for k, v in self_s.items()
                                 if k.startswith(layer + "."))
                      for layer in LAYERS}
        self_sum = sum(layer_self.values())
        self.ops.append([[key, parent, start - op_start, end - op_start]
                         for key, parent, start, end, _ in self._spans])
        return {
            "problems.config_s": layer_self["problems"],
            "problems.config_reads": calls["problems.parse_config_pairs"],
            "gegenbauer.basis_s": incl["gegenbauer.build_basis"],
            "gegenbauer.qmatrix_s": incl["gegenbauer.build_integration_matrix"],
            "gegenbauer.qmatrix_calls": calls["gegenbauer.build_integration_matrix"],
            "gegenbauer.qmatrix_reuse": _ratio(
                len(self._q_keys), calls["gegenbauer.build_integration_matrix"]),
            "gegenbauer.bary_s": incl["gegenbauer.bary_interpolate"],
            "gegenbauer.bary_calls": calls["gegenbauer.bary_interpolate"],
            "gegenbauer.self_s": layer_self["gegenbauer"],
            "fourier.dft_s": incl["fourier.dft_coefficients"],
            "fourier.dft_calls": calls["fourier.dft_coefficients"],
            "fourier.synth_s": (incl["fourier.synthesize_field"]
                                + incl["fourier.synthesize_derivative"]),
            "fourier.synth_calls": (calls["fourier.synthesize_field"]
                                    + calls["fourier.synthesize_derivative"]),
            "fourier.self_s": layer_self["fourier"],
            "solver.solve_self_s": self_s["solver.solve_modes"],
            "solver.modes_solved": self._modes,
            "solver.assemble_s": incl["solver.assemble_mode"],
            "solver.interp_s": incl["solver.coefficients_at"],
            "solver.interp_calls": calls["solver.coefficients_at"],
            "solver.interp_reuse": _ratio(
                len(self._interp_keys), calls["solver.coefficients_at"]),
            "solver.self_s": layer_self["solver"],
            "semianalytic.self_s": layer_self["semianalytic"],
            "analysis.svd_s": incl["analysis.jacobi_svd"],
            "analysis.svd_calls": calls["analysis.jacobi_svd"],
            "analysis.sweep_self_s": self_s["analysis.convergence_sweep"],
            "analysis.self_s": layer_self["analysis"],
            "cli.self_s": layer_self["cli"],
            "trace.self_sum_s": self_sum,
            "trace.unattributed_s": op_seconds - self_sum,
        }
