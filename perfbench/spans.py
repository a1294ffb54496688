"""Span recording for the traced run, from outside the package.

``Tracer.install`` wraps the public functions named in ``TARGETS`` where they
are defined and in every ``semirigid`` module that imported them by name, and
the ``numpy.linalg`` calls in ``LINALG``.  Each call made while an item runs
records a span (name, start, end, parent span, item id) in memory; calls made
outside an item, such as the benchmark's own checks, record nothing.  Self
time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, position of its ScalarMode argument, or None when the
# function has no regime); a regime adds .exact or .complex to the span name
TARGETS = [
    ("cli", "main", None),
    ("serialize", "pairing_from_json", None),
    ("serialize", "tuple_from_json", None),
    ("serialize", "tuple_to_json", None),
    ("serialize", "verdict_to_json", None),
    ("catalog", "catalog_build", None),
    ("verdict", "decide", None),
    ("verdict", "witness_search", None),
    ("verdict", "mu_zero_sampler", None),
    ("verdict", "witness_to_tuple", None),
    ("verdict", "construct_stable_point", None),
    ("exterior", "kernel", 1),
    ("exterior", "bivector_rank", None),
    ("exterior", "decomposable_exists_exact", None),
    ("commuting", "joint_spectrum", None),
    ("commuting", "simultaneous_triangularize", None),
    ("commuting", "rep_analysis", None),
    ("commuting", "chi", None),
    ("commuting", "mu", None),
    ("scalars", "rank", 1),
    ("scalars", "nullspace", 1),
    ("scalars", "eigenvalues", 1),
]

# numpy.linalg function -> span name; eigvals is counted with eig
LINALG = {"svd": "svd", "lstsq": "lstsq", "qr": "qr", "eig": "eig", "eigvals": "eig",
          "inv": "inv"}


def _regime(args, kwargs, pos):
    mode = kwargs["mode"] if "mode" in kwargs else args[pos]
    return "exact" if mode.is_exact else "complex"


class Tracer:
    def __init__(self):
        self.item = None
        self.spans = []  # [name, start, end, parent index, item id, raised]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, mode_pos=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            label = name if mode_pos is None else f"{name}.{_regime(args, kwargs, mode_pos)}"
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._count(name, result)
            return result
        return wrapper

    def _count(self, name, result):
        if name == "verdict.witness_search":
            self.counts["verdict.witness_search.restarts"] += result.restarts_used
            self.counts["verdict.witness_search.found"] += result.witness is not None
        elif name == "verdict.mu_zero_sampler":
            self.counts["verdict.mu_zero_sampler.starts"] += result.attempted
            self.counts["verdict.mu_zero_sampler.converged"] += result.converged

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "semirigid"]
        for mod_name, fn_name, mode_pos in TARGETS:
            original = getattr(importlib.import_module(f"semirigid.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, mode_pos)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for fn_name, label in LINALG.items():
            self._patch(np.linalg, fn_name, self._wrap(f"linalg.{label}",
                                                       getattr(np.linalg, fn_name)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, self_s and errors."""
        durations = [end - start for _, start, end, _, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for dur, span in zip(durations, self.spans):
            if span[3] >= 0:
                child[span[3]] += dur
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
        for dur, covered, span in zip(durations, child, self.spans):
            stats = out[span[0]]
            stats["calls"] += 1
            stats["self_s"] += dur - covered
            stats["errors"] += span[5]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "raised": raised}) + "\n")
