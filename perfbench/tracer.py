"""Spans at besselcert's layer boundaries, recorded from outside the package.

install() replaces each public function of the oracle, approx, bounds,
zeros and scan layers with a timing wrapper, in every module that binds
it (`bounds.bessel_j_ref`, `scan._approx.best_approx`, `besselcert.quad`,
...), so calls between layers are traced wherever they come from.  The
oracle's handle on the fixedpoint module is swapped for a proxy whose
functions count and time each call across that boundary; calls inside
fixedpoint itself run untouched.

A span is (op, id, parent, name, start, end, fx_calls, fx_s, error, size):
fixedpoint calls are too many to keep one by one, so each span carries the
count and time of the fixedpoint calls made directly under it.  Spans stay
in memory until summary(); metrics() derives every per-layer number from
them.
"""

import statistics
import sys
import time

LAYERS = {
    "oracle": ("bessel_j_ref", "bessel_j_prime_ref", "airy_ai_neg_ref",
               "airy_ai_neg_prime_ref", "_j_prime_any", "gamma", "quad", "refine_root"),
    "approx": ("classic_oscillatory", "olver_coefficient", "olver_expansion", "phase_B",
               "sharper_oscillatory", "simplified_oscillatory", "transition_x",
               "transition", "airy_approx", "best_approx"),
    "bounds": ("bound_watson", "bound_envelope", "bound_derivative", "bound_monotonic",
               "bound_log_derivative", "bound_airy_envelope", "airy_envelope_maxima",
               "bound_wronskian_kernel", "bound_near_first_zero", "sonin_eval",
               "leftmost_max_check", "lemma_integral_check"),
    "zeros": ("airy_zero_estimate", "bessel_first_zeros_estimate", "refine_airy_zero",
              "refine_bessel_zero", "center_gap_check", "conjecture_check"),
    "scan": ("scan_rows", "approx_row", "verify_approx_grid", "verify_bounds_grid",
             "olenko_sup"),
}
MODULES = ("besselcert", "besselcert.oracle", "besselcert.approx", "besselcert.bounds",
           "besselcert.zeros", "besselcert.scan", "besselcert.cli")
FIXEDPOINT_FUNCS = ("rdiv", "fix_from", "to_fraction", "to_float", "rescale", "fmul",
                    "fdiv", "fsqrt", "fpow_int", "pi_fixed", "ln10_fixed", "fln",
                    "fexp", "fpow")

_NAME_LAYER = {name: layer for layer, names in LAYERS.items() for name in names}


class _FixedpointProxy:
    """Stands in for the fixedpoint module as the oracle sees it."""

    def __init__(self, module, wrap):
        self._module = module
        for name in FIXEDPOINT_FUNCS:
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(self, name, wrap(name, fn))

    def __getattr__(self, name):
        return getattr(self._module, name)


def _size(result) -> int:
    """Checks or reports a call produced: ScanReport.total, rows, reports."""
    total = getattr(result, "total", None)
    if isinstance(total, int):
        return total
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], list):
        return len(result[0])  # scan_rows -> (rows, skipped)
    if isinstance(result, (list, tuple)):
        return len(result)
    return 1


class Tracer:
    """Spans and fixedpoint counters of one process; op is the current operation id."""

    def __init__(self):
        self.op = 0
        self.spans = []
        self._stack = []
        self._next_id = 1
        self.fx_calls = 0
        self.fx_s = 0.0
        self.fpow_s = 0.0
        self.refine_evals = 0
        self._restore = []

    def _span_wrapper(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        counted = name == "refine_root"

        def traced(*args, **kwargs):
            if counted and args:
                f = args[0]

                def evaluate(t):
                    self.refine_evals += 1
                    return f(t)
                args = (evaluate,) + args[1:]
            parent = stack[-1][0] if stack else 0
            frame = [self._next_id, 0, 0.0]
            self._next_id += 1
            stack.append(frame)
            error = None
            size = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                size = _size(result)
                return result
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, frame[0], parent, name, start, end,
                              frame[1], frame[2], error, size))

        traced.__wrapped__ = fn
        return traced

    def _fx_wrapper(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        is_fpow = name == "fpow"

        def traced(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - start
                if stack:
                    stack[-1][1] += 1
                    stack[-1][2] += dt
                self.fx_calls += 1
                self.fx_s += dt
                if is_fpow:
                    self.fpow_s += dt

        return traced

    def install(self):
        """Wrap every traced function in every module that binds it."""
        originals = {}
        for modname in MODULES:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr in _NAME_LAYER and callable(value):
                    wrapper = originals.get(id(value))
                    if wrapper is None:
                        wrapper = originals[id(value)] = self._span_wrapper(attr, value)
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        oracle = sys.modules.get("besselcert.oracle")
        if oracle is not None and hasattr(oracle, "fx"):
            self._restore.append((oracle, "fx", oracle.fx))
            oracle.fx = _FixedpointProxy(oracle.fx, self._fx_wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Raw, mergeable aggregates plus the spans themselves."""
        cache = {"hits": 0, "misses": 0}
        oracle = sys.modules.get("besselcert.oracle")
        series = getattr(oracle, "_j_series_fixed", None)
        if hasattr(series, "cache_info"):
            info = series.cache_info()
            cache = {"hits": info.hits, "misses": info.misses}
        return {"spans": [list(s) for s in self.spans],
                "fx_calls": self.fx_calls, "fx_s": self.fx_s, "fpow_s": self.fpow_s,
                "refine_evals": self.refine_evals, "series_cache": cache}


def median(values: list) -> float:
    """Median, or 0 for a layer the workload never reached."""
    return statistics.median(values) if values else 0.0


def metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics from one or more summaries (one per process).

    A layer's self time is the time inside its spans not covered by child
    spans or by fixedpoint calls made under them.  layer.calls counts every
    traced call of the layer's functions, nested ones included.  Summaries
    from cli_probe.py also carry import_ms and run_ms.
    """
    out = {}
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    j_us, airy_us, best_us = [], [], []
    roots = 0
    quad_s = 0.0
    refused = 0
    approx_time = approx_oracle = 0.0
    bound_reports = bound_oracle = 0
    checks = scan_oracle = 0
    fx_calls = refine_evals = 0
    fx_s = fpow_s = 0.0
    hits = misses = 0
    for summ in summaries:
        spans = summ["spans"]
        fx_calls += summ["fx_calls"]
        fx_s += summ["fx_s"]
        fpow_s += summ["fpow_s"]
        refine_evals += summ["refine_evals"]
        hits += summ["series_cache"]["hits"]
        misses += summ["series_cache"]["misses"]
        layer_of = {}
        parent_of = {}
        child_s = {}
        for op, sid, parent, name, start, end, nfx, tfx, error, size in spans:
            layer_of[sid] = _NAME_LAYER[name]
            parent_of[sid] = parent
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)

        def under(sid, layer):
            p = parent_of.get(sid, 0)
            while p:
                if layer_of[p] == layer:
                    return True
                p = parent_of.get(p, 0)
            return False

        for op, sid, parent, name, start, end, nfx, tfx, error, size in spans:
            layer = layer_of[sid]
            dur = end - start
            calls[layer] += 1
            self_s[layer] += dur - child_s.get(sid, 0.0) - tfx
            parent_layer = layer_of.get(parent)
            outermost = parent_layer != layer
            if layer == "oracle":
                if name == "bessel_j_ref":
                    j_us.append(dur * 1e6)
                elif name == "airy_ai_neg_ref":
                    airy_us.append(dur * 1e6)
                elif name == "refine_root":
                    roots += 1
                elif name == "quad":
                    quad_s += dur
                if outermost and error == "PrecisionError":
                    refused += 1
                if parent_layer == "approx":
                    approx_oracle += dur
                if under(sid, "bounds"):
                    bound_oracle += 1
                if under(sid, "scan"):
                    scan_oracle += 1
            elif layer == "approx":
                if name == "best_approx":
                    best_us.append(dur * 1e6)
                if outermost:
                    approx_time += dur
            elif layer == "bounds" and outermost and error is None:
                bound_reports += size
            elif layer == "scan" and outermost and error is None:
                checks += size
    out["fixedpoint.calls"] = fx_calls
    out["fixedpoint.self_s"] = fx_s
    out["fixedpoint.fpow_s"] = fpow_s
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["oracle.j_p50_us"] = median(j_us)
    out["oracle.airy_p50_us"] = median(airy_us)
    out["oracle.refine_root.roots"] = roots
    out["oracle.refine_root.evals_per_root"] = refine_evals / roots if roots else 0.0
    out["oracle.quad_s"] = quad_s
    out["oracle.refused"] = refused
    out["oracle.series_lookups"] = hits + misses
    out["oracle.series_cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    out["approx.best_approx_p50_us"] = median(best_us)
    out["approx.time_s"] = approx_time
    out["approx.oracle_share"] = approx_oracle / approx_time if approx_time else 0.0
    out["bounds.reports"] = bound_reports
    out["bounds.oracle_calls_per_report"] = (bound_oracle / bound_reports
                                             if bound_reports else 0.0)
    out["scan.checks"] = checks
    out["scan.oracle_calls_per_check"] = scan_oracle / checks if checks else 0.0
    out["cli.import_ms"] = median([s["import_ms"] for s in summaries if "import_ms" in s])
    out["cli.run_ms"] = median([s["run_ms"] for s in summaries if "run_ms" in s])
    return out
