"""Span tracer for traced benchmark runs.

``install`` rebinds the names that the magheat modules look up at call time
(``magheat.spectral.splu``, ``magheat.evolve.cg``, ``magheat.field.alpha_batch``
and so on) to timing wrappers, so a traced run splits its wall time across
the field, discretize, spectral, evolve and harness layers without any change
to the package.  Spans stay in memory; ``write`` stores them once the run is
over.  A span's self time is its duration minus that of its direct children,
so the self times of all spans add up to the root span, ``harness.run``.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# per-layer metrics and their units
METRICS = {
    "field.alpha_batch.s": "s",
    "field.alpha_batch.calls": "count",
    "field.alpha_batch.points": "count",
    "discretize.peierls_phases.s": "s",
    "discretize.peierls_phases.calls": "count",
    "discretize.assemble_magnetic.s": "s",
    "discretize.assemble_magnetic.calls": "count",
    "discretize.nnz": "count",
    "spectral.splu.s": "s",
    "spectral.splu.calls": "count",
    "spectral.lu_fill": "count",
    "spectral.eigsh.s": "s",
    "spectral.lu_solves": "count",
    "spectral.self_s": "s",
    "evolve.cg.s": "s",
    "evolve.cg.calls": "count",
    "evolve.cg_iters": "count",
    "evolve.cg_iters_per_step": "count",
    "evolve.self_s": "s",
    "evolve.phase_cache_hit_ratio": "ratio",
    "harness.self_s": "s",
    "harness.bytes_written": "bytes",
    "layer.field.s": "s",
    "layer.discretize.s": "s",
    "layer.spectral.s": "s",
    "layer.evolve.s": "s",
    "layer.harness.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("field", "discretize", "spectral", "evolve", "harness")


class Tracer:
    """Nested timing spans plus counters, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self._open = []
        self.counts = Counter()

    def wrap(self, name, fn, on_return=None):
        """``fn`` timed as a span called ``name``; ``on_return(result)`` counts."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            self.counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def self_times(self):
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def write(self, path):
        t0 = self.spans[0][1]
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")


def _counting_cg(tracer, cg):
    """``cg`` with an injected callback that counts iterations."""

    def counted(*args, callback=None, **kwargs):
        def tick(xk):
            tracer.counts["evolve.cg_iters"] += 1
            if callback is not None:
                callback(xk)

        return cg(*args, callback=tick, **kwargs)

    return counted


def install(tracer):
    """Rebind the traced names; returns the traced ``harness.run``."""
    from magheat import evolve, field, harness, spectral

    counts = tracer.counts
    wrap = tracer.wrap

    def points(result):
        counts["field.alpha_batch.points"] += result.size

    def nnz(op):
        counts["discretize.nnz"] = max(counts["discretize.nnz"], op.matrix.nnz)

    def fill(lu):
        counts["spectral.lu_fill"] += lu.nnz

    def solves(samples):
        counts["spectral.lu_solves"] += sum(smp.iterations for smp in samples)

    def steps(traj):
        counts["evolve.steps"] += len(traj.points) - 1

    def phase_build(_):
        counts["evolve.phase_builds"] += 1

    field.alpha_batch = wrap("field.alpha_batch", field.alpha_batch, points)
    spectral.peierls_phases = wrap("discretize.peierls_phases", spectral.peierls_phases)
    evolve.peierls_phases = wrap("discretize.peierls_phases", evolve.peierls_phases,
                                 phase_build)
    for mod in (spectral, evolve):
        mod.assemble_magnetic = wrap("discretize.assemble_magnetic",
                                     mod.assemble_magnetic, nnz)
    spectral.splu = wrap("spectral.splu", spectral.splu, fill)
    spectral.eigsh = wrap("spectral.eigsh", spectral.eigsh)
    evolve.cg = wrap("evolve.cg", _counting_cg(tracer, evolve.cg))
    harness.lambda_curve = wrap("spectral.lambda_curve", harness.lambda_curve, solves)
    harness.evolve_physical = wrap("evolve.evolve_physical", harness.evolve_physical, steps)
    harness.evolve_selfsimilar = wrap("evolve.evolve_selfsimilar",
                                      harness.evolve_selfsimilar, steps)
    return wrap("harness.run", harness.run)


def layer_metrics(tracer, bytes_written):
    """Per-layer metrics of one traced run, except ``trace.overhead_s``."""
    own = tracer.self_times()
    counts = tracer.counts
    steps = counts["evolve.steps"]
    out = {
        "field.alpha_batch.s": own["field.alpha_batch"],
        "discretize.peierls_phases.s": own["discretize.peierls_phases"],
        "discretize.assemble_magnetic.s": own["discretize.assemble_magnetic"],
        "spectral.splu.s": own["spectral.splu"],
        "spectral.eigsh.s": own["spectral.eigsh"],
        "spectral.self_s": own["spectral.lambda_curve"],
        "evolve.cg.s": own["evolve.cg"],
        "evolve.self_s": own["evolve.evolve_physical"] + own["evolve.evolve_selfsimilar"],
        "harness.self_s": own["harness.run"],
        "evolve.cg_iters_per_step": counts["evolve.cg_iters"] / steps if steps else 0.0,
        "evolve.phase_cache_hit_ratio":
            1.0 - counts["evolve.phase_builds"] / steps if steps else 0.0,
        "harness.bytes_written": bytes_written,
        "trace.wall_s": next(e - s for n, s, e, p in tracer.spans if p is None),
    }
    for name in ("field.alpha_batch.calls", "field.alpha_batch.points",
                 "discretize.peierls_phases.calls", "discretize.assemble_magnetic.calls",
                 "discretize.nnz", "spectral.splu.calls", "spectral.lu_fill",
                 "spectral.lu_solves", "evolve.cg.calls", "evolve.cg_iters"):
        out[name] = counts[name]
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = sum(t for name, t in own.items()
                                      if name.split(".", 1)[0] == layer)
    return out
