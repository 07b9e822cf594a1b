"""Span tracing of bifield's layers from outside the package.

Each layer is a package module; its public functions are replaced, in every
``bifield.*`` namespace that holds them, by a wrapper. A call entering a
layer from outside it records a span (layer, start, end, parent) in memory;
calls within the layer only update counters. Nothing inside the package
changes, so the same benchmark can trace any commit.

A layer's self time is the duration of its spans minus the durations of the
spans of other layers nested directly inside them. No layer re-enters
itself through another layer in the traced workloads.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> public functions whose calls form the layer's spans
SPANNED = {
    "sources": ("displacement_field", "magnetic_field"),
    "constitutive": ("dyonic_eh", "electrostatic_e", "magnetostatic_h", "state_from_db"),
    "specfn": ("invert_monotone", "lambert_w", "lambert_w_from_log",
               "smallest_positive_cubic_root"),
    "currents": ("current_at",),
    "observables": ("total_energy", "flux_charge", "free_charge_with_inner_spheres",
                    "hamiltonian_at", "hamiltonian_on_points", "energy_density"),
    "continuous": ("newton_potential", "potential_gradient", "continuous_fields",
                   "curl_formula_continuous"),
    "cli": ("main",),
}
LAYERS = tuple(SPANNED)
# models.f, f', f'' are too fine-grained for spans: they are only counted
MODEL_METHODS = ("f", "f_prime", "f_double_prime")


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.spans = []          # (layer index, start, end, parent span index)
        self.stack = []          # open frames: [start, child_time, span index]
        self.active = dict.fromkeys(LAYERS, False)   # layer has an open span
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.constitutive_rows = 0
        self.constitutive_fail = 0
        self.model_calls = 0
        self.observables_points = 0
        self.current_us = []
        self.current_fd = 0
        self.newton_keys = []
        self.continuous_points = {}

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, fn, name: str):
        index = LAYERS.index(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "newton_potential":
                self.newton_keys.append(_newton_key(args, kwargs))
            elif name == "hamiltonian_on_points":
                self.observables_points += int(np.size(args[2])) // 3
            if self.active[layer]:
                # a call from inside the same layer: counted above, no span
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            self.active[layer] = True
            parent = self.stack[-1][2] if self.stack else -1
            frame = [clock(), 0.0, len(self.spans)]
            self.spans.append(None)
            self.stack.append(frame)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                self.stack.pop()
                self.active[layer] = False
                dur = end - frame[0]
                self.self_s[layer] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                self.spans[frame[2]] = (index, frame[0], end, parent)
                self._outermost(layer, name, args, dur, failed, None if failed else out)

        return wrapper

    def _outermost(self, layer, name, args, dur, failed, out):
        if layer == "constitutive":
            self.constitutive_rows += max(1, int(np.size(args[1])) // 3)
            self.constitutive_fail += failed
        elif layer == "currents":
            self.current_us.append(dur * 1e6)
            if out is not None and out.method == "fd":
                self.current_fd += 1
        elif layer == "continuous":
            x = args[2] if name in ("continuous_fields", "curl_formula_continuous") else args[1]
            key = tuple(float(v) for v in np.asarray(x, dtype=float).ravel())
            self.continuous_points[key] = self.continuous_points.get(key, 0.0) + dur

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.model_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every bifield namespace; call after importing bifield.cli.
        Names a commit lacks are skipped, so any version can be traced."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if (name == "bifield" or name.startswith("bifield.")) and m is not None]
        for layer, names in SPANNED.items():
            module = sys.modules.get(f"bifield.{layer}")
            for name in names:
                orig = getattr(module, name, None)
                if orig is None:
                    continue
                wrapped = self._span(layer, orig, name)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapped)
        params_cls = sys.modules["bifield.models"].ModelParams
        for name in MODEL_METHODS:
            if name in params_cls.__dict__:
                setattr(params_cls, name, self._counted(params_cls.__dict__[name]))

    # -- results -------------------------------------------------------------

    def save_spans(self, path) -> None:
        """Write the spans as one structured array (.npy)."""
        arr = np.array(self.spans, dtype=[("layer", "i1"), ("start", "f8"),
                                          ("end", "f8"), ("parent", "i4")])
        np.save(path, arr)

    def summary(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["constitutive.rows"] = self.constitutive_rows
        out["constitutive.fail"] = self.constitutive_fail
        out["models.calls"] = self.model_calls
        out["observables.points"] = self.observables_points
        n_cur = len(self.current_us)
        out["currents.fd_frac"] = self.current_fd / n_cur if n_cur else 0.0
        out["currents.point_us"] = self.current_us
        n_newton = len(self.newton_keys)
        out["continuous.newton_calls"] = n_newton
        out["continuous.newton_unique_frac"] = (
            len(set(self.newton_keys)) / n_newton if n_newton else 0.0)
        out["continuous.point_ms"] = [v * 1e3 for v in self.continuous_points.values()]
        out["spans"] = len(self.spans)
        return out


def _newton_key(args, kwargs) -> tuple:
    # newton_potential(src, x, quad=None, which="electric")
    src, x = args[0], args[1]
    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    which = args[3] if len(args) > 3 else kwargs.get("which", "electric")
    xt = tuple(float(v) for v in np.asarray(x, dtype=float).ravel())
    return (id(src), which, xt, quad)
