"""Spans around the public entry points of each convexwave layer.

``Tracer.install`` replaces each traced name where its caller looks it up
(``convexwave.cusp.make_symbol`` as well as ``convexwave.cli.strichartz_quotient``)
with a wrapper that records a span: name, start, end, parent span and run id.
Spans stay in memory; ``dump`` writes them out when the run ends, and
``layer_metrics`` derives every per-layer metric, self times included, from
them.  The workloads are single-threaded, so one stack of open spans gives
each span its parent.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict

import numpy as np
import numpy.fft

import convexwave.airy as cw_airy
import convexwave.cli as cw_cli
import convexwave.cusp as cw_cusp
import convexwave.fields as cw_fields
import convexwave.gallery as cw_gallery
import convexwave.normlab as cw_normlab
import convexwave.oscillatory as cw_osc

LAYERS = ("cli", "normlab", "cusp", "gallery", "airy", "oscillatory", "fields", "numpy")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, run id, work done or None]
        self.spans: list[list] = []
        self.run_id = 0
        self.live_max = 0
        self._stack: list[int] = []
        self._live = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent, tracer.run_id, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, work=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, work))

    def _evaluator_built(self, args, result):
        """Counts the evaluator as live until it is freed; its work is the computed tensor bytes."""
        ev = args[0]
        self._live += 1
        self.live_max = max(self.live_max, self._live)
        weakref.finalize(ev, self._evaluator_freed)
        return ev.x.size * ev.eta.size * ev.xi.size * 16

    def _evaluator_freed(self):
        self._live -= 1

    def install(self):
        """Patch every traced name; ``uninstall`` restores them."""
        def points(pos):
            return lambda args, result: int(np.size(args[pos]))

        def samples(args, result):
            return len(result.samples)

        self._patch(cw_cli, "main", "cli.main")
        self._patch(cw_cli, "write_csv", "cli.write")
        self._patch(cw_cli, "write_json", "cli.write")
        for owner in (cw_cli, cw_normlab):
            self._patch(owner, "counterexample_report", "normlab.counterexample_report")
        for owner in (cw_normlab, cw_gallery):
            self._patch(owner, "lr_norm", "normlab.lr_norm")
            self._patch(owner, "fit_exponent", "normlab.fit")
        self._patch(cw_osc, "fit_powerlaw_2d", "normlab.fit")

        for owner in (cw_cusp, cw_cli):
            self._patch(owner, "cusp_field", "cusp.cusp_field")
            self._patch(owner, "boundary_residual", "cusp.boundary_residual")
        self._patch(cw_cusp, "wave_residual", "cusp.wave_residual")
        self._patch(cw_cusp, "uh_mixed_norms", "cusp.uh_mixed_norms")
        self._patch(cw_cusp, "make_symbol", "cusp.make_symbol")
        self._patch(cw_cusp.CuspEvaluator, "__init__", "cusp.evaluator.build", self._evaluator_built)
        self._patch(cw_cusp.CuspEvaluator, "field_values", "cusp.field")
        self._patch(cw_cusp.TraceEvaluator, "__init__", "cusp.trace.build")
        self._patch(cw_cusp.TraceEvaluator, "signal", "cusp.trace.signal")

        self._patch(cw_airy.AiryTable, "__init__", "airy.table.build")
        self._patch(cw_airy.AiryTable, "__call__", "airy.table.lookup", points(1))
        for owner in (cw_airy, cw_gallery):
            self._patch(owner, "ai", "airy.ai", points(0))
        for owner in (cw_airy, cw_gallery, cw_cli):
            self._patch(owner, "airy_zeros", "airy.zeros")

        for owner in (cw_gallery, cw_cli):
            self._patch(owner, "strichartz_quotient", "gallery.strichartz_quotient", samples)
        self._patch(cw_fields.TransverseGrid, "fft", "fields.grid_fft")
        self._patch(cw_fields.TransverseGrid, "ifft", "fields.grid_fft")

        self._patch(cw_osc, "quad_oscillatory", "oscillatory.quad")
        for owner in (cw_osc, cw_cli):
            for fn in ("gamma_wave", "gamma_schrodinger"):
                self._patch(owner, fn, "oscillatory.gamma", samples)
        self._patch(cw_osc, "pool_curves", "oscillatory.pool_curves")

        self._patch(numpy.fft, "fft", "numpy.fft", points(0))
        self._patch(numpy.fft, "ifft", "numpy.fft", points(0))
        self._patch(np, "einsum", "numpy.einsum")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path, **meta):
        payload = {"fields": ["name", "start", "end", "parent", "run_id", "work"],
                   "spans": self.spans, **meta}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self, units: int, wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics per traced unit, and each layer's self-time share of ``wall_s``.

        ``wall_s`` is the median wall time of one traced unit.  A span's self
        time is its duration minus the time its direct children cover.
        """
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        table_time = [0.0] * len(spans)  # airy.table time directly inside each span
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
                if s[0].startswith("airy.table."):
                    table_time[s[3]] += dur[i]

        def layer(i):
            return spans[i][0].split(".")[0]

        incl, self_t, calls, work = (defaultdict(float) for _ in range(4))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for i, s in enumerate(spans):
            keys = [s[0]]
            if s[0] == "numpy.fft":  # also split by the enclosing cusp or gallery span
                up = s[3]
                while up >= 0 and layer(up) not in ("cusp", "gallery"):
                    up = spans[up][3]
                if up >= 0:
                    keys.append(f"numpy.fft.{layer(up)}")
            for key in keys:
                incl[key] += dur[i]
                calls[key] += 1
                work[key] += s[5] or 0
            self_t[s[0]] += dur[i] - child_time[i]
            layer_self[layer(i)] += dur[i] - child_time[i]
            if s[3] < 0:
                roots += dur[i]
        build_self = sum(dur[i] - table_time[i] for i, s in enumerate(spans)
                         if s[0] == "cusp.evaluator.build")

        m = {
            "cli.write_s": incl["cli.write"],
            "normlab.counterexample_report_s": incl["normlab.counterexample_report"],
            "normlab.lr_norm.calls": calls["normlab.lr_norm"],
            "normlab.lr_norm_s": incl["normlab.lr_norm"],
            "normlab.fit_s": incl["normlab.fit"],
            "cusp.field.calls": calls["cusp.field"],
            "cusp.field_s": incl["cusp.field"],
            "cusp.evaluator.builds": calls["cusp.evaluator.build"],
            "cusp.evaluator.build_self_s": build_self,
            "cusp.evaluator.tensor_mb": work["cusp.evaluator.build"] / 2**20,
            "cusp.uh_mixed_norms.calls": calls["cusp.uh_mixed_norms"],
            "cusp.uh_mixed_norms_s": incl["cusp.uh_mixed_norms"],
            "cusp.make_symbol_s": incl["cusp.make_symbol"],
            "cusp.trace.builds": calls["cusp.trace.build"],
            "cusp.trace.signals": calls["cusp.trace.signal"],
            "cusp.trace_s": incl["cusp.trace.build"] + incl["cusp.trace.signal"],
            "airy.table.builds": calls["airy.table.build"],
            "airy.table.build_s": incl["airy.table.build"],
            "airy.table.points": work["airy.table.lookup"],
            "airy.table.lookup_s": incl["airy.table.lookup"],
            "airy.ai.calls": calls["airy.ai"],
            "airy.ai.points": work["airy.ai"],
            "airy.ai_s": incl["airy.ai"],
            "airy.zeros_s": incl["airy.zeros"],
            "gallery.strichartz_quotient_s": incl["gallery.strichartz_quotient"],
            "gallery.h_points": work["gallery.strichartz_quotient"],
            "gallery.self_s": self_t["gallery.strichartz_quotient"],
            "fields.grid_fft.calls": calls["fields.grid_fft"],
            "fields.grid_fft_s": incl["fields.grid_fft"],
            "oscillatory.quad.calls": calls["oscillatory.quad"],
            "oscillatory.quad_s": incl["oscillatory.quad"],
            "oscillatory.gamma.samples": work["oscillatory.gamma"],
            "numpy.einsum.calls": calls["numpy.einsum"],
            "numpy.einsum_s": incl["numpy.einsum"],
        }
        for key in ("numpy.fft", "numpy.fft.cusp", "numpy.fft.gallery"):
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.points"] = work[key]
            m[f"{key}_s"] = incl[key]
        for name, t in layer_self.items():
            m[f"self.{name}_s"] = t
        m = {k: v / units for k, v in m.items()}

        samples = work["oscillatory.gamma"]
        m["oscillatory.quad_per_sample"] = calls["oscillatory.quad"] / samples if samples else 0.0
        m["cusp.evaluator.live_max"] = self.live_max
        slice_ms = [1e3 * dur[i] for i, s in enumerate(spans) if s[0] == "cusp.field"]
        tail = next((p for p in TAIL_LADDER if len(slice_ms) * (1.0 - p / 100.0) >= 10), 50.0)
        m["cusp.field.p50_ms"] = float(np.percentile(slice_ms, 50.0)) if slice_ms else 0.0
        m["cusp.field.tail_ms"] = float(np.percentile(slice_ms, tail)) if slice_ms else 0.0
        m["untraced_s"] = wall_s - roots / units
        shares = {name: t / units / wall_s for name, t in layer_self.items()}
        shares["untraced"] = m["untraced_s"] / wall_s
        return m, {"shares": shares, "tail_percentile": tail, "slices": len(slice_ms)}
