"""Layer tracing from outside the program.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded `ionoptics` module that holds a reference to it (the designer
imports the wavefield functions by name, and `cli` and the package
`__init__` import the designer functions by name), and replaces
`scipy.fft.fft2` and `scipy.fft.ifft2`, which the wavefield module calls
through the `scipy.fft` module. Each call records a span: layer name,
start, end and the index of the span that was open when it began. Spans
stay in memory until `write()` dumps them at the end of the run.

A layer's self time is its inclusive time minus the time of its direct
child spans; the program is single-threaded at the Python level, so
children never overlap one another.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import scipy.fft

# (module, function) pairs traced by name; the layer is "module.function".
LAYERS = (
    ("wavefield", "find_focus"),
    ("wavefield", "angular_spectrum_propagate"),
    ("wavefield", "apply_element"),
    ("wavefield", "spot_metrics"),
    ("wavefield", "make_gaussian_field"),
    ("wavefield", "write_field_sfld"),
    ("designer", "synthesize_lens_stack"),
    ("designer", "simulate_channel"),
    ("designer", "crosstalk_matrix"),
    ("designer", "tolerance_sweep"),
    ("report", "write_report"),
    ("scenario", "load_scenario"),
    ("crystal", "solve_crystal"),
)
FFT_FUNCTIONS = ("fft2", "ifft2")
FFT_LAYER = "fft"


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self._stack = []
        self._fft_work = {}  # FFT span index -> (flop, bytes)
        self._restore = []

    def _wrap(self, layer, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([layer, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(index, result)
            return result

        return wrapper

    def _count_fft(self, index, out):
        # computed, not measured: 5 N log2 N flops and one read plus one
        # write of N complex samples per 2-D transform
        n = out.size
        self._fft_work[index] = (5.0 * n * math.log2(n), 2.0 * out.itemsize * n)

    def _replace(self, owner, name, new):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "ionoptics" or key.startswith("ionoptics.")
        ]
        for module_name, fn_name in LAYERS:
            home = sys.modules[f"ionoptics.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for fn_name in FFT_FUNCTIONS:
            original = getattr(scipy.fft, fn_name)
            self._replace(
                scipy.fft, fn_name, self._wrap(FFT_LAYER, original, self._count_fft)
            )

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def layer_metrics(self, first_operation_span: int, operations: int) -> dict:
        """Per-layer calls, inclusive seconds and self seconds of the set-up
        (spans before `first_operation_span`) plus one operation (the later
        spans divided by the number of operations)."""
        names = [f"{m}.{f}" for m, f in LAYERS] + [FFT_LAYER]
        calls = dict.fromkeys(names, 0.0)
        total = dict.fromkeys(names, 0.0)
        self_s = dict.fromkeys(names, 0.0)
        flop = gbytes = 0.0
        for index, (layer, start, end, parent) in enumerate(self.spans):
            weight = 1.0 if index < first_operation_span else 1.0 / operations
            duration = (end - start) * weight
            calls[layer] += weight
            total[layer] += duration
            self_s[layer] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
            if index in self._fft_work:
                flop += self._fft_work[index][0] * weight
                gbytes += self._fft_work[index][1] * weight
        metrics = {}
        for name in names:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = total[name]
            metrics[f"{name}.self_s"] = self_s[name]
        metrics["fft.gflop"] = flop / 1e9
        metrics["fft.gb"] = gbytes / 1e9
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["layer", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                },
                fh,
            )
