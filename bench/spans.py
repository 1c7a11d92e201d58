"""Span tracing of pelltrib's layers from outside the package.

`Tracer` replaces each traced public function, in every pelltrib module
that binds it, with a wrapper that records a span (id, name, start, end,
parent span, cell) and accumulates calls and self time.  Self time is a
span's duration minus the time covered by its traced child spans.  Spans
stay in memory until `write` is called; the original functions come back
when the `with` block ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer metric prefix, module, function).  The four closed sums share one
# prefix, as the layer "sums.closed".
TARGETS = (
    ("sequence.term", "sequence", "term"),
    ("sequence.terms_upto", "sequence", "terms_upto"),
    ("sequence.char_roots", "sequence", "char_roots"),
    ("sums.closed", "sums", "s1_closed"),
    ("sums.closed", "sums", "w1_closed"),
    ("sums.closed", "sums", "s2_closed"),
    ("sums.closed", "sums", "w2_closed"),
    ("circulant.build_pell", "circulant", "build_pell"),
    ("circulant.det_exact", "circulant", "det_exact"),
    ("circulant.to_complex_list", "circulant", "to_complex_list"),
    ("spectral.frobenius_sq_closed", "spectral", "frobenius_sq_closed"),
    ("spectral.frobenius_closed", "spectral", "frobenius_closed"),
    ("spectral.l1_closed", "spectral", "l1_closed"),
    ("spectral.spectral_bounds", "spectral", "spectral_bounds"),
    ("spectral.spectral_numeric", "spectral", "spectral_numeric"),
    ("spectral.row_col_length_norms", "spectral", "row_col_length_norms"),
    ("spectral.norm_report", "spectral", "norm_report"),
    ("spectral.eigen_grid", "spectral", "eigen_grid"),
    ("spectral.eigenvalues_direct", "spectral", "eigenvalues_direct"),
    ("spectral.eigenvalues_closed", "spectral", "eigenvalues_closed"),
    ("spectral.eigenpair_residuals", "spectral", "eigenpair_residuals"),
    ("spectral.determinant_closed", "spectral", "determinant_closed"),
    ("invertibility.gcd_criterion", "invertibility", "gcd_criterion"),
    ("invertibility.sufficient_condition", "invertibility", "sufficient_condition"),
    ("invertibility.counterexample_scan", "invertibility", "counterexample_scan"),
    ("fastops.fast_operator", "fastops", "fast_operator"),
    ("fastops.fast_matvec", "fastops", "fast_matvec"),
    ("fastops.fft", "fastops", "fft"),
    ("cli.main", "cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

SPAN_FIELDS = ("id", "layer", "start_ns", "end_ns", "parent", "cell")


class Tracer:
    """Context manager that traces the TARGETS while it is active."""

    def __init__(self):
        self.cell = -1
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.spans: list[tuple] = []
        self._stack = [[-1, 0]]   # [span id, time covered by child spans]
        self._next_id = 0
        self._t0 = 0
        self._patched: list[tuple] = []

    def _wrap(self, layer: int, fn):
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0]
            self._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                calls[layer] += 1
                self_ns[layer] += duration - frame[1]
                spans.append((frame[0], layer, start - self._t0, end - self._t0,
                              parent[0], self.cell))

        return traced

    def __enter__(self):
        targets = [(prefix, importlib.import_module(f"pelltrib.{module}"), attr)
                   for prefix, module, attr in TARGETS]
        modules = [m for name, m in sys.modules.items()
                   if name == "pelltrib" or name.startswith("pelltrib.")]
        for prefix, module, attr in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(LAYERS.index(prefix), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def layer_metrics(self) -> dict:
        """`<layer>.self_ms` and `<layer>.calls` for every traced layer."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_ms"] = self.self_ns[i] / 1e6
            out[f"{layer}.calls"] = self.calls[i]
        return out

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, layers=LAYERS, fields=SPAN_FIELDS, spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
