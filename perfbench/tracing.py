"""Layer tracing from outside effcap.

`traced(tracer)` replaces module attributes at the layer boundaries with
wrappers that record spans (name, start, end, parent, op, run id) and
counters into the tracer, and puts the originals back on exit. A function
imported by name into several modules (`iter_sample_chunks`, `chunk_rates`,
`_write_csv`, ...) is replaced in every effcap module that binds it, so no
call path escapes. Nothing under `src/` is edited.

`layer_metrics(tracer)` turns one traced pass into the per-layer metrics
named in BENCHMARK.json. A `.s` metric is the inclusive time of a layer's
spans; `self_s` is that time minus the time of the spans it called.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import types
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stack = []
        self.counters = Counter()
        self.sample_keys = {}
        self.laguerre_orders = set()
        self.cpu_s = 0.0

    def open(self, name: str) -> int:
        idx = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self.ops[parent] if parent >= 0 else idx)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def spans(self):
        """(name, start, end, parent, op, run id) rows."""
        return [list(row) + [self.run_id] for row in
                zip(self.names, self.starts, self.ends, self.parents,
                    self.ops)]


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out, *args, **kwargs)
        return out
    return wrapper


def _sampling(tracer: Tracer, fn):
    """Wrap the chunk generator: one span per chunk drawn."""
    @functools.wraps(fn)
    def wrapper(model, n_samples, seed):
        chunks = fn(model, n_samples, seed)
        model_key = repr(model)
        index = 0
        while True:
            idx = tracer.open("channels.sample")
            try:
                h = next(chunks)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.counters["channels.sample.chunks"] += 1
            tracer.counters["channels.sample.draws"] += h.shape[0]
            tracer.counters["channels.sample.bytes"] += h.nbytes
            tracer.sample_keys[(model_key, seed, index, h.shape[0])] = \
                h.shape[0]
            index += 1
            yield h
    return wrapper


class _Patches:
    def __init__(self):
        self.saved = []

    def set(self, obj, attr, value):
        self.saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def rebind(self, owner, attr, value):
        """Replace owner.attr and every effcap module's binding of it."""
        original = getattr(owner, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "effcap" or name.startswith("effcap.")) \
                    and getattr(mod, attr, None) is original:
                self.set(mod, attr, value)

    def restore(self):
        for obj, attr, value in reversed(self.saved):
            setattr(obj, attr, value)
        self.saved.clear()


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    import numpy as np
    from effcap import (asymptotics, channels, engine, figures, queuesim,
                        special)

    def pass_done(out, *args, **kwargs):
        tracer.counters["engine.lme.passes"] += 1
        if any(tracer.names[i] == "engine.optimize" for i in tracer.stack):
            tracer.counters["engine.optimize.passes"] += 1

    def eigvalsh_after(out, a, *args, **kwargs):
        tracer.counters["engine.eigvalsh.matrices"] += \
            int(np.prod(np.shape(a)[:-2], dtype=np.int64))

    def laguerre_after(out, n, *args, **kwargs):
        tracer.laguerre_orders.add(n)

    def csv_after(out, path, header, rows):
        tracer.counters["figures.csv.rows"] += len(rows)

    def trace_csv_after(out, trace, path):
        tracer.counters["queuesim.trace_csv.bytes"] += os.path.getsize(path)

    p = _Patches()
    try:
        p.rebind(channels, "iter_sample_chunks",
                 _sampling(tracer, channels.iter_sample_chunks))
        p.rebind(channels, "mean_gram_mc", _span(
            tracer, "channels.mean_gram", channels.mean_gram_mc))
        p.set(np.linalg, "eigvalsh", _span(
            tracer, "engine.eigvalsh", np.linalg.eigvalsh, eigvalsh_after))
        p.rebind(engine, "chunk_rates", _span(
            tracer, "engine.chunk_rates", engine.chunk_rates))
        lme = engine._LogMeanExp
        p.set(lme, "add", _span(tracer, "engine.lme", lme.add))
        p.set(lme, "log_mean", _span(tracer, "engine.lme", lme.log_mean,
                                     pass_done))
        p.rebind(engine, "effective_rate_mc", _span(
            tracer, "engine.effective_rate_mc", engine.effective_rate_mc))
        p.rebind(engine, "ergodic_rate_mc", _span(
            tracer, "engine.ergodic_rate_mc", engine.ergodic_rate_mc))
        p.rebind(engine, "optimize_covariance_statistical", _span(
            tracer, "engine.optimize",
            engine.optimize_covariance_statistical))
        p.rebind(special, "gauss_laguerre", _span(
            tracer, "special.gauss_laguerre", special.gauss_laguerre,
            laguerre_after))
        p.rebind(asymptotics, "_hankel_integrand_entry", _span(
            tracer, "asymptotics.hankel_entry",
            asymptotics._hankel_integrand_entry))
        p.rebind(asymptotics, "hankel_effective_rate", _span(
            tracer, "asymptotics.hankel_effective_rate",
            asymptotics.hankel_effective_rate))
        p.set(asymptotics, "integrate", types.SimpleNamespace(quad=_span(
            tracer, "asymptotics.quad", asymptotics.integrate.quad)))
        p.rebind(queuesim, "validate_theta", _span(
            tracer, "queuesim.validate_theta", queuesim.validate_theta))
        p.rebind(queuesim, "simulate_queue", _span(
            tracer, "queuesim.simulate", queuesim.simulate_queue))
        p.rebind(queuesim, "lindley_path", _span(
            tracer, "queuesim.lindley", queuesim.lindley_path))
        p.rebind(queuesim, "estimate_tail_exponent", _span(
            tracer, "queuesim.tail_fit", queuesim.estimate_tail_exponent))
        p.rebind(queuesim, "write_trace_csv", _span(
            tracer, "queuesim.trace_csv", queuesim.write_trace_csv,
            trace_csv_after))
        p.rebind(figures, "_write_csv", _span(
            tracer, "figures.csv", figures._write_csv, csv_after))
        yield tracer
    finally:
        p.restore()


def span_times(tracer: Tracer):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * len(dur)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += dur[i]
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        if _under(tracer, i, name) < 0:
            total[name] += dur[i]
    return {name: (calls[name], total[name], self_s[name]) for name in calls}


def _under(tracer: Tracer, idx: int, name: str) -> int:
    """Index of the nearest enclosing span called name, or -1."""
    parent = tracer.parents[idx]
    while parent >= 0 and tracer.names[parent] != name:
        parent = tracer.parents[parent]
    return parent


def layer_metrics(tracer: Tracer):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    times = span_times(tracer)
    c = tracer.counters

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    entries_with_quad = {_under(tracer, i, "asymptotics.hankel_entry")
                         for i, n in enumerate(tracer.names)
                         if n == "asymptotics.quad"} - {-1}
    distinct_draws = sum(tracer.sample_keys.values())
    n_laguerre = calls("special.gauss_laguerre")
    n_entries = calls("asymptotics.hankel_entry")
    n_opt = calls("engine.optimize")
    return {
        "special.gauss_laguerre.calls": (n_laguerre, "count"),
        "special.gauss_laguerre.s": (inclusive("special.gauss_laguerre"),
                                     "s"),
        "special.gauss_laguerre.distinct_frac": (
            len(tracer.laguerre_orders) / n_laguerre if n_laguerre else 0.0,
            "ratio"),
        "asymptotics.hankel_entry.calls": (n_entries, "count"),
        "asymptotics.hankel_entry.s": (inclusive("asymptotics.hankel_entry"),
                                       "s"),
        "asymptotics.quad_fallback_frac": (
            len(entries_with_quad) / n_entries if n_entries else 0.0,
            "ratio"),
        "channels.sample.chunks": (c["channels.sample.chunks"], "count"),
        "channels.sample.draws": (c["channels.sample.draws"], "count"),
        "channels.sample.s": (inclusive("channels.sample"), "s"),
        "channels.sample.mb": (c["channels.sample.bytes"] / 1e6, "MB"),
        "channels.draw_reuse": (
            c["channels.sample.draws"] / distinct_draws if distinct_draws
            else 0.0, "ratio"),
        "engine.eigvalsh.calls": (calls("engine.eigvalsh"), "count"),
        "engine.eigvalsh.matrices": (c["engine.eigvalsh.matrices"], "count"),
        "engine.eigvalsh.s": (inclusive("engine.eigvalsh"), "s"),
        "engine.rates.self_s": (self_time("engine.chunk_rates")
                                + self_time("engine.optimize"), "s"),
        "engine.lme.s": (inclusive("engine.lme"), "s"),
        "engine.mc_passes": (c["engine.lme.passes"]
                             + calls("engine.ergodic_rate_mc"), "count"),
        "engine.optimize.passes_per_call": (
            c["engine.optimize.passes"] / n_opt if n_opt else 0.0,
            "count"),
        "queuesim.simulate.calls": (calls("queuesim.simulate"), "count"),
        "queuesim.simulate.s": (inclusive("queuesim.simulate"), "s"),
        "queuesim.lindley.s": (inclusive("queuesim.lindley"), "s"),
        "queuesim.tail_fit.s": (inclusive("queuesim.tail_fit"), "s"),
        "queuesim.trace_csv.s": (inclusive("queuesim.trace_csv"), "s"),
        "queuesim.trace_csv.mb": (c["queuesim.trace_csv.bytes"] / 1e6, "MB"),
        "figures.csv.s": (inclusive("figures.csv"), "s"),
        "figures.csv.rows": (c["figures.csv.rows"], "count"),
    }
