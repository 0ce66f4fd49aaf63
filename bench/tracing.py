"""Span tracing around the package's public functions, for the traced run.

``Tracer.install`` rebinds each traced function everywhere the package
holds it: in its own module, in every module that imported it by name
(``criticality`` imports the ``factors`` finders, ``harness`` imports
``spectral_radius`` and the deciders), and in module-level dispatch tables
(``harness`` maps check names to functions).  The benchmark itself calls
the package through module attributes, so its calls are traced too.

A span is (name, start, end, parent).  Generator functions get one span per
``next()``.  Spans stay in memory in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs whose spans and counts the traced run reports.
TRACED = {
    "graphs": ("parse_graph6", "enumerate_graphs"),
    "spectral": ("spectral_radius",),
    "criticality": (
        "is_abk_critical",
        "is_fractional_abk_critical",
        "is_rk_critical",
        "critical_by_definition",
    ),
    "factors": ("find_fractional_factor", "find_ab_factor", "validate_witness"),
    "harness": (
        "explore_conjecture",
        "isomorphic",
        "random_connected_graph",
        "cross_validate_deciders",
    ),
}
PACKAGE = "factor_spectra"
DECIDERS = ("is_abk_critical", "is_fractional_abk_critical", "is_rk_critical")
FINDERS = ("find_fractional_factor", "find_ab_factor")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[dict, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        nid = self.name_id(qualname)
        calls = self.calls
        after = self._after_hook(qualname)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[qualname] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = self.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[qualname + ".failed"] += 1
                raise
            finally:
                self.close(idx)
            if after:
                after(result)
            return result

        return traced

    def _after_hook(self, qualname: str):
        counts = self.counts
        func = qualname.rsplit(".", 1)[1]
        if func == "spectral_radius":

            def after(report):
                counts["spectral.iterations"] += report.iterations

        elif func in DECIDERS:

            def after(cert):
                counts["criticality.decisions"] += 1
                counts["criticality.critical"] += cert is None

        elif func in FINDERS:

            def after(witness):
                counts["factors.finder_calls"] += 1
                counts["factors.found"] += witness is not None

        else:
            after = None
        return after

    def install(self) -> None:
        """Rebind every traced function in every package module that holds it."""
        wrapped = {}
        for module, funcs in TRACED.items():
            source = importlib.import_module(f"{PACKAGE}.{module}")
            for func in funcs:
                original = getattr(source, func)
                wrapped[id(original)] = self._wrap(original, f"{module}.{func}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
        for module in modules:
            space = vars(module)
            for key, value in list(space.items()):
                if id(value) in wrapped:
                    self._rebind(space, key, wrapped[id(value)])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in wrapped:
                            self._rebind(value, dkey, wrapped[id(dvalue)])

    def _rebind(self, space: dict, key, new) -> None:
        self._undo.append((space, key, space[key]))
        space[key] = new

    def uninstall(self) -> None:
        while self._undo:
            space, key, old = self._undo.pop()
            space[key] = old

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-name sum of span duration minus the duration of child spans."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per_id = np.bincount(name, weights=dur - child, minlength=len(self.names))
        totals: dict[str, float] = defaultdict(float)
        for nid, label in enumerate(self.names):
            totals[label] += float(per_id[nid])
        return totals

    def write(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {}
        for module, funcs in TRACED.items():
            for func in funcs:
                qual = f"{module}.{func}"
                out[f"{qual}.calls"] = self.calls[qual]
                out[f"{qual}.self_s"] = selfs.get(qual, 0.0)
        c = self.counts
        out["spectral.spectral_radius.iterations"] = c["spectral.iterations"]
        out["spectral.spectral_radius.failed"] = c["spectral.spectral_radius.failed"]
        out["criticality.critical_ratio"] = _ratio(c["criticality.critical"], c["criticality.decisions"])
        out["factors.found_ratio"] = _ratio(c["factors.found"], c["factors.finder_calls"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
