"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps every public function of the package's layer
modules, and ``HuntReport.save`` / ``HuntReport.load``, and rebinds every
name that refers to one of them in every ``steklov`` module, so calls from
inside the package are seen as well (``from .spectral import
steklov_spectrum`` leaves a binding in ``hunt``, ``flows``, ``checks`` and
``cli``).  In ``cli`` only ``main`` is wrapped: the subcommand bodies are the
CLI layer's own work.

A span is (name, parent, start, end), kept in flat arrays in memory.  A
layer's self time is its span's length minus the length of its direct child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("graphs", "serialize", "spectral", "flows", "checks", "hunt", "cli")
CHECKERS = (
    "check_monotonicity_chain",
    "check_doubling",
    "check_partition",
    "check_diameter",
    "check_degree_diameter",
    "check_branch_dichotomy",
)
# The per-layer metrics a traced run reports, each "<span>.<what>".
CALLS = (
    "spectral.jacobi_eigh",
    "spectral.steklov_spectrum",
    "spectral.harmonic_extension",
    "flows.sigma.doubling",
    "flows.sigma.bisection",
    "flows.solve_flow",
    "graphs.build",
    "graphs.double_at",
    "hunt.make_pair",
    "serialize.to_graph6",
) + tuple(f"checks.{c}" for c in CHECKERS)
SELF = (
    "spectral.jacobi_eigh",
    "spectral.dtn_matrix",
    "spectral.harmonic_extension",
    "flows.solve_flow",
    "flows.transfer_pairs",
    "graphs.build",
    "hunt.make_pair",
    "hunt.enumerate_trees",
    "hunt.HuntReport.save",
    "hunt.HuntReport.load",
    "serialize.to_graph6",
    "cli.main",
) + tuple(f"checks.{c}" for c in CHECKERS)
DERIVED = (
    "spectral.steklov_spectrum.distinct_graphs",
    "flows.solve_flow.per_sigma",
    "flows.solve_flow.resonant",
    "trace.overhead_pct",
)
METRICS = (
    tuple(f"{s}.calls" for s in CALLS) + tuple(f"{s}.self_s" for s in SELF) + DERIVED
)


def unit(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    return "%" if metric.endswith("_pct") else "count"


def _sigma_label(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "doubling")
    return f"flows.sigma.{method}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()
        self.graphs: set = set()  # distinct arguments of steklov_spectrum
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------------

    def _open(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label):
        name_of = label if callable(label) else (lambda args, kwargs: label)
        graphs = self.graphs if label == "spectral.steklov_spectrum" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if graphs is not None:
                graphs.add(args[0])
            span = name_of(args, kwargs)
            idx = self._open(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[span, type(exc).__name__] += 1
                raise
            finally:
                self._close(idx)

        return traced

    def _wrap_generator(self, fn, label: str):
        """Each resumption of the generator is one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(label)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    # patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import steklov.hunt

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"steklov.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or (layer == "cli" and attr != "main")
                ):
                    continue
                label = _sigma_label if (layer, attr) == ("flows", "sigma") else f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped[fn] = self._wrap_generator(fn, label)
                else:
                    wrapped[fn] = self._wrap(fn, label)
        for modname, mod in list(sys.modules.items()):
            if modname != "steklov" and not modname.startswith("steklov."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        report = steklov.hunt.HuntReport
        self._set(report, "save", self._wrap(report.save, "hunt.HuntReport.save"))
        load = self._wrap(report.load, "hunt.HuntReport.load")
        self._set(report, "load", staticmethod(load))

    def uninstall(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    # results ---------------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """calls, total_s and self_s per span name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            label: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, label in enumerate(self.names)
        }

    def _solves_in_bisection(self) -> int:
        """solve_flow spans with a bisection-route sigma span above them."""
        ids = self._ids
        bis, solve = ids.get("flows.sigma.bisection"), ids.get("flows.solve_flow")
        if bis is None or solve is None:
            return 0
        inside = bytearray(len(self.name))
        count = 0
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            flag = nid == bis or (p >= 0 and inside[p])
            inside[i] = flag
            count += flag and nid == solve
        return count

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        layers = self.layers()
        out: dict[str, float] = {}
        for span in CALLS:
            out[f"{span}.calls"] = layers.get(span, {}).get("calls", 0)
        for span in SELF:
            out[f"{span}.self_s"] = layers.get(span, {}).get("self_s", 0.0)
        bisections = out["flows.sigma.bisection.calls"]
        out["spectral.steklov_spectrum.distinct_graphs"] = len(self.graphs)
        out["flows.solve_flow.per_sigma"] = (
            self._solves_in_bisection() / bisections if bisections else 0.0
        )
        out["flows.solve_flow.resonant"] = self.raised["flows.solve_flow", "ResonantLambda"]
        out["trace.overhead_pct"] = overhead_pct
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Per-span-name totals as JSON, the raw spans beside it as .npz."""
        doc = dict(meta)
        doc["spans"] = len(self.start)
        doc["layers"] = self.layers()
        doc["raised"] = [[s, e, n] for (s, e), n in sorted(self.raised.items())]
        path.write_text(json.dumps(doc, indent=1) + "\n")
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
