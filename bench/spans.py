"""Spans around vekit's module boundaries, installed from outside the program.

``Tracer.install`` wraps the public callables of every vekit module: module
functions, ``cli.main`` and ``cli.run_request``, and the kernel methods of
each model class.  A wrapper goes on every attribute a caller resolves:
``vekit.estimands.integrate`` and ``vekit.distributions.integrate`` are
the same function, so both names get the one wrapper, and so do
function-valued dict entries such as ``trial.ESTIMATORS``.

Each span records its name, start, end, parent and request id in memory;
``save`` writes them out at the end.  Self time is a span's duration minus
the time its child spans cover.  The benchmark runs on one thread, so
children never overlap and that difference is exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "presets",
    "rampup",
    "estimands",
    "quadrature",
    "distributions",
    "frailty",
    "trial",
    "discrete",
    "peakdiff",
)
KERNEL_METHODS = (
    "hazard",
    "cumulative_hazard",
    "inverse_cumulative_hazard",
    "cdf",
    "survival",
    "density",
)
KINDS = ("Exponential", "Weibull", "PiecewiseHazard", "TabulatedCdf")


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording at run time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_request = -1
        self.enabled = False
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording --------------------------------------------------------

    def _span(self, fn, name_of, points_of, wrap_integrand=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_of(args))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.request.append(tracer.current_request)
            tracer.points.append(points_of(args) if points_of else 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if wrap_integrand:
                args = (tracer._integrand(args[0]),) + args[1:]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        return wrapper

    def _integrand(self, f):
        """Span around each integrand evaluation, named after f's layer."""
        layer = getattr(f, "__module__", "") or ""
        nid = self.name_id(f"{layer.rpartition('.')[2] or 'quadrature'}.integrand")
        return self._span(f, lambda args: nid, lambda args: _size(args[0]))

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every boundary callable in every vekit module."""
        modules = {layer: importlib.import_module(f"vekit.{layer}") for layer in LAYERS}
        package = importlib.import_module("vekit")
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                nid = self.name_id(f"{layer}.{attr}")
                points_of = None
                if (layer, attr) == ("frailty", "sample_frailty"):
                    points_of = lambda args: int(args[1])
                elif (layer, attr) == ("trial", "simulate"):
                    points_of = lambda args: int(args[0].n)
                wrapped[obj] = self._span(
                    obj,
                    (lambda n: lambda args: n)(nid),
                    points_of,
                    wrap_integrand=(layer, attr) == ("quadrature", "integrate"),
                )
        # Re-point every module attribute and dict entry that holds one.
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._undo.append((obj.__setitem__, key, val))
                            obj[key] = wrapped[val]
        # Kernel methods, named by the concrete class of the instance.
        from vekit.distributions import SurvivalModel

        classes = [SurvivalModel] + [
            obj
            for mod in modules.values()
            for obj in vars(mod).values()
            if inspect.isclass(obj) and issubclass(obj, SurvivalModel) and obj.__module__ == mod.__name__
        ]
        for cls in dict.fromkeys(classes):
            for method in KERNEL_METHODS:
                fn = cls.__dict__.get(method)
                if fn is None or not inspect.isfunction(fn):
                    continue
                self._set(cls, method, self._span(fn, self._method_name(method), lambda args: _size(args[1])))

    def _method_name(self, method):
        cache = {}

        def name_of(args):
            cls = type(args[0])
            nid = cache.get(cls)
            if nid is None:
                layer = cls.__module__.rpartition(".")[2]
                nid = cache[cls] = self.name_id(f"{layer}.{cls.__name__}.{method}")
            return nid

        return name_of

    def _set(self, owner, attr, value):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for setter, key, val in reversed(self._undo):
            setter(key, val)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
            "parent": parent,
            "request": np.frombuffer(self.request, dtype=np.int32).astype(np.int64),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path, meta: dict):
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            meta=np.asarray(json.dumps(meta)),
            **{k: a[k] for k in ("name", "parent", "request", "points", "start", "end")},
        )


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans

def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures per pass of the request mix (no bounds; attribution)."""
    a = tracer.arrays()
    names = tracer.names
    layer_of = np.asarray([n.split(".")[0] for n in names] + [""], dtype=object)
    kind_of = np.asarray(
        [n.split(".")[1] if n.count(".") == 2 else "" for n in names] + [""], dtype=object
    )
    parent = a["parent"]
    parent_name = np.where(parent >= 0, a["name"][np.maximum(parent, 0)], len(names))
    per = 1.0 / max(passes, 1)

    def sel(*full):
        return np.isin(a["name"], [tracer._ids.get(n, -1) for n in full])

    def busy(mask):
        return float(a["dur"][mask].sum()) * per

    def self_s(mask):
        return float(a["self"][mask].sum()) * per

    def count(mask):
        return float(mask.sum()) * per

    def pts(mask):
        return float(a["points"][mask].sum()) * per

    # Spans nested inside any ve_cox span.
    cox_id = tracer._ids.get("estimands.ve_cox", -1)
    name_ids = a["name"].tolist()
    flags = []
    for p in parent.tolist():
        flags.append(p >= 0 and (name_ids[p] == cox_id or flags[p]))
    in_cox = np.asarray(flags, dtype=bool)

    m = {}
    main, run = sel("cli.main"), sel("cli.run_request")
    m["cli.main.self_s"] = self_s(main)
    m["cli.run_request.self_s"] = self_s(run)
    cox = sel("estimands.ve_cox")
    integ = sel("quadrature.integrate")
    m["estimands.ve_cox.calls"] = count(cox)
    m["estimands.ve_cox.busy_s"] = busy(cox)
    m["estimands.ve_cox.self_s"] = self_s(cox)
    m["estimands.ve_cox.integrals_per_solve"] = float((integ & in_cox).sum()) / max(float(cox.sum()), 1.0)
    m["estimands.ve_ir.busy_s"] = busy(sel("estimands.ve_ir"))
    m["estimands.other.busy_s"] = busy(
        sel("estimands.ve_ci", "estimands.ve_ch", "estimands.ve_odds", "estimands.theta_ir_bounds")
    )
    integrand = np.asarray([n.endswith(".integrand") for n in names] + [False])[a["name"]]
    evals = integrand & (parent_name == tracer._ids.get("quadrature.integrate", -2))
    m["quadrature.integrate.calls"] = count(integ)
    m["quadrature.integrate.busy_s"] = busy(integ)
    m["quadrature.integrate.self_s"] = self_s(integ)
    m["quadrature.integrate.evals"] = count(evals)
    m["quadrature.integrate.points"] = pts(evals)
    m["quadrature.points_per_integral"] = float(a["points"][evals].sum()) / max(float(integ.sum()), 1.0)
    # A kernel call counts once where it enters a model from outside it:
    # survival() calling its own cumulative_hazard() is one call.
    span_kind = kind_of[a["name"]]
    parent_kind = np.where(parent >= 0, span_kind[np.maximum(parent, 0)], "")
    boundary = (span_kind != "") & (span_kind != parent_kind)
    base_calls = base_points = 0.0
    for layer, kind in [("distributions", k) for k in KINDS] + [
        ("frailty", "GammaFrailtyMixture"),
        ("frailty", "StablePopulationModel"),
        ("rampup", "ConditionalModel"),
    ]:
        mask = (span_kind == kind) & (layer_of[a["name"]] == layer)
        calls = boundary & mask
        m[f"{layer}.{kind}.calls"] = count(calls)
        m[f"{layer}.{kind}.points"] = pts(calls)
        m[f"{layer}.{kind}.self_s"] = self_s(mask)
        if layer == "distributions":
            base_calls += float(calls.sum())
            base_points += float(a["points"][calls].sum())
    m["distributions.points_per_call"] = base_points / max(base_calls, 1.0)
    sample = sel("frailty.sample_frailty")
    m["frailty.sample_frailty.busy_s"] = busy(sample)
    m["frailty.sample_frailty.points"] = pts(sample)
    m["rampup.ve_curves.self_s"] = self_s(sel("rampup.ve_curves"))
    m["rampup.rampup_ve.busy_s"] = busy(sel("rampup.rampup_ve"))
    sim = sel("trial.simulate")
    m["trial.simulate.busy_s"] = busy(sim)
    m["trial.simulate.subjects"] = pts(sim)
    for est in ("ci", "ir", "ch", "cox", "odds"):
        m[f"trial.estimate_{est}.busy_s"] = busy(sel(f"trial.estimate_{est}"))
    m["trial.fit_piecewise.busy_s"] = busy(sel("trial.fit_piecewise"))
    m["trial.consistency_sweep.self_s"] = self_s(sel("trial.consistency_sweep"))
    m["trial.sensitivity_id_ve.busy_s"] = busy(sel("trial.sensitivity_id_ve"))
    m["discrete.table_ve_dh.busy_s"] = busy(sel("discrete.table_ve_dh"))
    m["peakdiff.gap_curves.busy_s"] = busy(sel("peakdiff.gap_curves"))
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_s(layer_of[a["name"]] == layer)
    return m
