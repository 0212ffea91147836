"""Span tracer for the traced run.

It wraps gridmon's public functions from outside the program: every module
attribute that is the original function object is replaced, so names bound
with ``from ... import`` in calling modules are traced too. Each call
records a span (name, start, end, parent) in memory; the spans are written
out when the run ends. Iteration counts are read from the returned
``PfSolution`` and ``EstimatedState``; nothing in the program waits, so no
wait time is recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped in the traced run
TARGETS = (
    ("grid", "build_admittance"),
    ("scenarios", "generate_set"),
    ("scenarios", "injections"),
    ("powerflow", "solve_pf"),
    ("measurements", "simulate"),
    ("wls", "estimate"),
    ("wls", "build_pseudo"),
    ("wls", "measurement_model"),
    ("ann", "build_training_set"),
    ("ann", "train"),
    ("ann", "predict_batch"),
    ("evaluation", "run_test_case"),
    ("tuning", "tune_architecture"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._pf_keys: set[bytes] = set()
        self._restore: list = []

    # ---- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _on_solve_pf(self, args, kwargs, sol):
        view, inj = args[0], args[1] if len(args) > 1 else kwargs["injections"]
        self.add("powerflow.nr_iterations", sol.iterations)
        lines = view.grid.lines
        key = hashlib.blake2b(digest_size=16)
        key.update(bytes(view.config))
        key.update(np.asarray(view.line_in_service).tobytes())
        key.update(np.array([(ln.r_ohm, ln.x_ohm) for ln in lines]).tobytes())
        key.update(np.asarray(inj.p_pu).tobytes())
        key.update(np.asarray(inj.q_pu).tobytes())
        digest = key.digest()
        if digest in self._pf_keys:
            self.add("powerflow.duplicates")
        else:
            self._pf_keys.add(digest)

    def _on_estimate(self, args, kwargs, est):
        self.add("wls.gn_iterations", est.iterations)
        if not est.converged:
            self.add("wls.nonconverged")

    def _on_train(self, args, kwargs, result):
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.add("ann.train.epochs", len(result[1].train_loss))
        self.add("ann.train.row_epochs", x.shape[0] * len(result[1].train_loss))

    def _on_predict(self, args, kwargs, result):
        self.add("ann.predict_batch.rows", result.shape[0])

    def install(self) -> None:
        """Replace every gridmon binding of each target; undone by uninstall()."""
        hooks = {"powerflow.solve_pf": self._on_solve_pf,
                 "wls.estimate": self._on_estimate,
                 "ann.train": self._on_train,
                 "ann.predict_batch": self._on_predict}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gridmon" or n.startswith("gridmon."))]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"gridmon.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        from gridmon.evaluation import TruthCache
        original_get = TruthCache.get

        def get(cache, key):
            value = original_get(cache, key)
            self.add("evaluation.truth_cache.lookups")
            if value is not None:
                self.add("evaluation.truth_cache.hits")
            return value
        self._restore.append((TruthCache, "get", original_get))
        TruthCache.get = get

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- report ---------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """Calls, inclusive durations and self time for each span name."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        parents = np.array([s[3] for s in self.spans], dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        ids = np.array([s[0] for s in self.spans], dtype=int)
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {"calls": int(sel.sum()), "durations": dur[sel],
                         "self_s": float(np.sum(dur[sel] - child[sel]))}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": self.counts,
                       "spans": self.spans}, fh)
