"""Outside-in span tracing of zetaprog's layers, for the benchmark's traced run.

`Tracer.install` replaces every public function of the package at every
module binding site (so `moments.find_tuple`, `moments.h_many`,
`resonance.eval_poly_grid`, `kernels.gl_panels`, ... are wrapped as well as
the definitions), `SmoothWindow.phi` / `phi_hat` on the class, and the
CLI's report writer `cli._emit` as "cli.emit"; the package's own calls go
through module globals, so they reach the wrappers.
Generator functions are left alone (a span would close before the work).
`uninstall` restores every original.

A span is (name, start, end, parent, experiment, size): name is
"<layer>.<function>", the layer being the defining module; size is the
number of points the call evaluates, where that means something.  Spans stay
in memory and are written out at the end.  Counts are computed from call
arguments and results, never from package internals.
"""
import inspect
import json
import math
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "zeta", "moments", "quadrature", "kernels", "dioph", "window",
          "resonance", "sieves")
COUNTS = ("zeta.grid_calls", "zeta.grid_points", "zeta.rs_points", "zeta.rs_point_terms",
          "zeta.rs_m_groups", "zeta.em_points", "zeta.em_point_terms",
          "zeta.main_sum_calls", "zeta.main_sum_direct_point_terms",
          "moments.eval_poly_calls", "moments.eval_poly_point_terms",
          "moments.continuous_calls", "moments.h_ell_calls", "quadrature.gl_nodes",
          "dioph.find_tuple_calls", "kernels.h_many_points", "window.phi_points",
          "window.phi_hat_calls", "resonance.excluded_primes", "resonance.support_size")
_TWO_PI = 2.0 * math.pi


class Tracer:
    def __init__(self, rs_min_t: float):
        self.rs_min_t = rs_min_t
        self.spans = []          # [name, start, end, parent, experiment, size]
        self.counts = Counter()
        self.experiment = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._grid_ts = []       # t arrays of the current experiment's zeta grids
        self._hooks = {
            "zeta.zeta_critical_grid": self._on_grid,
            "zeta.main_sum_grid": self._on_main_sum,
            "moments.eval_poly_grid": self._on_eval_poly,
            "quadrature.gl_panels": self._on_gl,
            "dioph.find_tuple": self._on_find_tuple,
            "kernels.h_many": self._on_size("kernels.h_many_points", "x"),
            "window.phi": self._on_size("window.phi_points", "x"),
            "window.phi_hat": self._on_phi_hat,
            "moments.H_ell": self._on_call("moments.h_ell_calls"),
            "moments.continuous_twisted_moment": self._on_call("moments.continuous_calls"),
            "resonance.build_excluded_set": self._on_excluded,
            "resonance.resonator_coeffs": self._on_resonator,
        }

    # -- installation ----------------------------------------------------------

    def install(self, modules, window_class):
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith("zetaprog.")
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patch(mod, attr, wrapped[obj])
            if mod.__name__ == "zetaprog.cli":
                # The CLI's JSON/CSV writer: output work gets its own span.
                self._patch(mod, "_emit", self._wrap(mod._emit, "cli.emit"))
        for attr in ("phi", "phi_hat"):
            self._patch(window_class, attr,
                        self._wrap(getattr(window_class, attr), f"window.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.experiment, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = hook(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counting hooks: (arguments, result) -> span size or None --------------

    def _on_grid(self, a, _result):
        ts = np.asarray(a["ts"], dtype=float)
        if np.any(ts < 0.0):
            return None  # the engine recurses on |ts|; that call is counted
        c = self.counts
        c["zeta.grid_calls"] += 1
        c["zeta.grid_points"] += len(ts)
        engine = a["engine"]
        rs = ts >= self.rs_min_t if engine == "auto" else np.full(len(ts), engine == "rs")
        m = np.floor(np.sqrt(ts[rs] / _TWO_PI))
        c["zeta.rs_points"] += int(np.count_nonzero(rs))
        c["zeta.rs_point_terms"] += int(np.sum(m))
        c["zeta.rs_m_groups"] += len(np.unique(m))
        em = ts[~rs]
        c["zeta.em_points"] += len(em)
        c["zeta.em_point_terms"] += int(np.sum(np.maximum(np.floor(2.0 * em) + 1, 50)))
        self._grid_ts.append(ts.copy())
        return len(ts)

    def _on_main_sum(self, a, _result):
        ts = np.asarray(a["ts"], dtype=float)
        M = int(a["cutoff"])
        self.counts["zeta.main_sum_calls"] += 1
        # main_sum_grid's own switch: the zeta-backed path needs M >= max|t|/3.
        if not (M >= np.max(np.abs(ts)) / 3.0 and M >= 50):
            self.counts["zeta.main_sum_direct_point_terms"] += len(ts) * M
        return len(ts)

    def _on_eval_poly(self, a, _result):
        n = int(np.size(a["ts"]))
        self.counts["moments.eval_poly_calls"] += 1
        self.counts["moments.eval_poly_point_terms"] += (
            n * int(np.count_nonzero(a["poly"].values[1:])))
        return n

    def _on_gl(self, a, _result):
        n = int(a["panels"]) * int(a["deg"])
        self.counts["quadrature.gl_nodes"] += n
        return n

    def _on_find_tuple(self, _a, result):
        self.counts["dioph.find_tuple_calls"] += 1
        self.counts["dioph.find_tuple_hits"] += result is not None
        return None

    def _on_phi_hat(self, a, _result):
        if float(a["xi"]) >= 0.0:  # negative xi recurses on -xi
            self.counts["window.phi_hat_calls"] += 1
        return None

    def _on_excluded(self, _a, result):
        self.counts["resonance.excluded_primes"] += len(result)
        return None

    def _on_resonator(self, _a, result):
        self.counts["resonance.support_size"] += int(np.count_nonzero(result.coeffs.values))
        return None

    def _on_size(self, key, arg):
        def hook(a, _result):
            n = int(np.size(a[arg]))
            self.counts[key] += n
            return n
        return hook

    def _on_call(self, key):
        def hook(_a, _result):
            self.counts[key] += 1
            return None
        return hook

    # -- experiments -----------------------------------------------------------

    def begin(self, index: int):
        self.experiment = index
        self._grid_ts = []

    def end(self):
        if self._grid_ts:
            ts = np.concatenate(self._grid_ts)
            self.counts["zeta.unique_points"] += len(np.unique(ts))
        self._grid_ts = []
        self.experiment = -1

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer counts and times over the traced experiments.

        wall_s is the summed wall time of those experiments, measured around
        each CLI call, for the coverage figure.
        """
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        kids = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
                kids[s[3]].append(i)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            layer = s[0].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]

        def outer(*names):
            """Inclusive time of calls not nested in a call of the same names."""
            total = 0.0
            for i, s in enumerate(spans):
                if s[0] not in names:
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    total += dur[i]
            return total

        c = self.counts
        grid_s = outer("zeta.zeta_critical_grid")
        cont = [i for i, s in enumerate(spans) if s[0] == "moments.continuous_twisted_moment"]
        levels = [[spans[k][5] for k in kids[i] if spans[k][0] == "zeta.zeta_critical_grid"]
                  for i in cont]
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        covered = sum(child[i] for i in roots)

        def frac(num, den):
            return num / den if den else 0.0

        out = {
            "zeta.grid_s": grid_s,
            "zeta.terms_per_s": frac(c["zeta.rs_point_terms"] + c["zeta.em_point_terms"],
                                     grid_s),
            "zeta.unique_point_frac": frac(c["zeta.unique_points"], c["zeta.grid_points"]),
            "zeta.main_sum_s": outer("zeta.main_sum_grid"),
            "moments.eval_poly_s": outer("moments.eval_poly_grid"),
            "moments.continuous_levels": frac(sum(len(lv) for lv in levels), len(cont)),
            "moments.continuous_accepted_frac": frac(sum(lv[-1] for lv in levels if lv),
                                                     sum(sum(lv) for lv in levels)),
            "moments.continuous_s": outer("moments.continuous_twisted_moment"),
            "moments.discrete_s": outer("moments.discrete_twisted_moment"),
            "moments.predict_s": outer("moments.predict_E", "moments.predict_E_prime"),
            "quadrature.gl_s": outer("quadrature.gl_panels"),
            "dioph.find_tuple_hit_frac": frac(c["dioph.find_tuple_hits"],
                                              c["dioph.find_tuple_calls"]),
            "dioph.find_tuple_s": outer("dioph.find_tuple"),
            "kernels.h_many_s": outer("kernels.h_many"),
            "window.phi_s": outer("window.phi"),
            "window.phi_hat_s": outer("window.phi_hat"),
            "resonance.excluded_set_s": outer("resonance.build_excluded_set"),
            "resonance.coeffs_s": outer("resonance.resonator_coeffs"),
            "resonance.ratio_R_s": outer("resonance.ratio_R"),
            "resonance.extreme_search_s": outer("resonance.extreme_search"),
            "sieves.s": layer_self["sieves"],
            "cli.self_s": layer_self["cli"],
            "trace.coverage_frac": frac(covered, wall_s),
        }
        for layer in LAYERS:
            if layer not in ("sieves", "cli"):
                out[f"{layer}.self_s"] = layer_self[layer]
        for key in COUNTS:
            out[key] = c[key]
        return out
