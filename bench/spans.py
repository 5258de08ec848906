"""Spans around eitcool's public functions, recorded from outside the program.

`Tracer.install()` replaces each traced function by a wrapper in every module
namespace that refers to it, and `uninstall()` puts the originals back.  Spans
(name, start, end, parent, thread, extra) are kept in memory; `analytics.rates`
is called tens of thousands of times per run, so it is kept as a count and a
total instead of one span per call, and its time is still charged to its
parent.  Realizations that `monte_carlo_detuning` runs on its worker threads
have no span of their own thread above them; they are charged to the
ensemble span that started them.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

import eitcool.analytics
import eitcool.csvio
import eitcool.dynamics
import eitcool.nvmodel
import eitcool.operators
import eitcool.scenarios

BUILDERS = ("build_three_level_model", "build_four_level_model",
            "build_seven_level_model")


def _extra_evolve(args, kwargs, result):
    return {"nfev": int(result.meta["nfev"]), "t_final": float(args[2])}


def _extra_liouvillian(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _extra_write_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _extra_absorption(args, kwargs, result):
    return {"points": len(result.omegas)}


def _extra_ensemble(args, kwargs, result):
    return {"threads": int(kwargs.get("threads", 1))}


# span name -> (modules whose attribute is replaced where it is the first
# module's function, attribute(s), extra fields, aggregate instead of spans)
TARGETS = [
    ("scenarios.run", [eitcool.scenarios], "run", None, False),
    ("nvmodel.build", [eitcool.nvmodel, eitcool.scenarios, eitcool.dynamics],
     BUILDERS, None, False),
    ("operators.liouvillian_matrix", [eitcool.operators, eitcool.dynamics],
     "liouvillian_matrix", _extra_liouvillian, False),
    ("dynamics.evolve", [eitcool.dynamics], "evolve", _extra_evolve, False),
    ("dynamics.steady_state", [eitcool.dynamics], "steady_state", None, False),
    ("dynamics.monte_carlo_detuning", [eitcool.dynamics], "monte_carlo_detuning",
     _extra_ensemble, False),
    ("analytics.absorption_spectrum", [eitcool.analytics], "absorption_spectrum",
     _extra_absorption, False),
    ("analytics.rates", [eitcool.analytics], "rates", None, True),
    ("csvio.write_csv", [eitcool.csvio, eitcool.scenarios], "write_csv",
     _extra_write_csv, False),
    ("csvio.sha256_of", [eitcool.csvio, eitcool.scenarios], "sha256_of", None, False),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0])     # aggregated name -> [calls, s]
        self.child_time = defaultdict(float)            # span id -> time in children
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ensemble_parent = None
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        for name, modules, attrs, extra, aggregate in TARGETS:
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                original = getattr(modules[0], attr)
                wrapper = self._wrap(name, original, extra, aggregate)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra, aggregate):
        tracer = self
        is_ensemble = name == "dynamics.monte_carlo_detuning"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._ensemble_parent
            span_id = next(tracer._ids)
            stack.append(span_id)
            if is_ensemble:
                tracer._ensemble_parent = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_ensemble:
                    tracer._ensemble_parent = None
            with tracer._lock:
                if parent is not None:
                    tracer.child_time[parent] += end - start
                if aggregate:
                    total = tracer.totals[name]
                    total[0] += 1
                    total[1] += end - start
                else:
                    tracer.spans.append({
                        "id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "thread": threading.get_ident(),
                        **(extra(args, kwargs, result) if extra else {})})
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name):
        return sum(s["end"] - s["start"] - self.child_time[s["id"]]
                   for s in self.named(name))

    def ensemble_busy_ratio(self):
        """Summed realization evolve time over threads x ensemble wall time."""
        ensembles = {s["id"]: s for s in self.named("dynamics.monte_carlo_detuning")}
        if not ensembles:
            return 0.0
        busy = sum(s["end"] - s["start"] for s in self.named("dynamics.evolve")
                   if s["parent"] in ensembles)
        capacity = sum(e["threads"] * (e["end"] - e["start"])
                       for e in ensembles.values())
        return busy / capacity

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "aggregates": {k: {"calls": v[0], "seconds": v[1]}
                                      for k, v in self.totals.items()}}, fh)
