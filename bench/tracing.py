"""Span tracing of gaugesim's layers from outside the package.

`Tracer.install` wraps each public function listed in LAYERS at every
name it is bound to: the package imports names directly (`from .model
import condition`), so the importing modules hold their own references.
Methods are wrapped on their class.  `uninstall` restores every original.
Spans are recorded only while `active` is set, so the output checks and
set-up run unrecorded.

A span is [name, start, end, parent index, job id, info]; `info` holds
counts taken from arguments and return values.  Spans stay in memory
until `dump` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

LAYERS = {
    "simplex": ["solve_nonnegative"],
    "solver": ["solve_all_gauges", "solve_shared_gauge", "solve_gauge", "gauge_equations"],
    "model": ["load_system", "ProbabilitySystem.__init__", "is_locally_consistent",
              "marginal", "condition", "is_separable", "ProbabilitySystem.region_marginal",
              "ProbabilitySystem.canonical_key"],
    "collapse": ["simulate", "multi_step_run", "one_step_run", "find_min_steps",
                 "GaugeCache.get"],
    "metrics": ["classify", "atom_measures", "measurement_entropy", "entanglement_scheme",
                "chsh_max", "total_entanglement", "s_n"],
    "catalog": ["build"],
    "cli": ["main"],
}


def _solve_info(args, kwargs, result):
    rows, _rhs, columns = args[:3]
    return {"rows": len(rows), "cols": len(columns),
            "nnz": sum(len(r) for r in rows), "ok": result is not None}


def _simulate_info(args, kwargs, result):
    plan = kwargs.get("plan")
    return {"runs": args[2], "plan": bool(plan is not None and plan.leaders)}


INFO = {
    "simplex.solve_nonnegative": _solve_info,
    "solver.solve_shared_gauge": lambda a, k, r: {"ok": r is not None},
    "collapse.simulate": _simulate_info,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.active = False
        self._patches = []  # (owner, attribute, original)

    def wrap(self, name, fn):
        tracer, info = self, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = {"raised": type(exc).__name__}
                raise
            else:
                span[2] = perf_counter()
                if info is not None:
                    span[5] = info(args, kwargs, result)
                return result
            finally:
                tracer.stack.pop()

        return traced

    def install(self, package="gaugesim"):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"{package}.{layer}")
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self.wrap(f"{layer}.{qualname}", original))
                    continue
                original = getattr(home, qualname)
                wrapper = self.wrap(f"{layer}.{qualname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path, jobs):
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        data = {
            "fields": ["name", "start", "end", "parent", "job", "info"],
            "names": names,
            "jobs": [{"id": j["id"], "kind": j["kind"], "argv": j["argv"]} for j in jobs],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans, ancestor):
    """Per span: whether some ancestor is named `ancestor`."""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        flags[i] = p >= 0 and (spans[p][0] == ancestor or flags[p])
    return flags


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, traced_wall, untraced_wall):
    """Per-layer metrics over the spans of one traced pass.

    `*_s` metrics sum the durations of outermost spans of a name; nested
    calls of the same function are not counted twice.
    """
    own = self_times(spans)
    calls, busy = {}, {}
    nested = {}
    for i, s in enumerate(spans):
        name, p = s[0], s[3]
        calls[name] = calls.get(name, 0) + 1
        inside = p >= 0 and (spans[p][0] == name or nested.get(p, False))
        nested[i] = inside
        if not inside:
            busy[name] = busy.get(name, 0.0) + s[2] - s[1]
    layer_self = {}
    for s, t in zip(spans, own):
        layer = s[0].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t

    def of(name, field):
        return [s[5][field] for s in spans if s[0] == name and s[5] and field in s[5]]

    solves = [s[5] for s in spans if s[0] == "simplex.solve_nonnegative"]
    all_gauges = [s for s in spans if s[0] == "solver.solve_all_gauges"]
    simulate = [s[5] for s in spans if s[0] == "collapse.simulate"]
    cache_gets = calls.get("collapse.GaugeCache.get", 0)
    misses = sum(1 for s in all_gauges if s[3] >= 0 and spans[s[3]][0] == "collapse.GaugeCache.get")
    under_steps = _under(spans, "collapse.find_min_steps")
    under_classify = _under(spans, "metrics.classify")
    conditions = [i for i, s in enumerate(spans) if s[0] == "model.condition"]
    top_level = sum(s[2] - s[1] for s in spans if s[3] < 0)
    c, b = calls.get, busy.get
    return {
        "simplex.calls": c("simplex.solve_nonnegative", 0),
        "simplex.busy_s": b("simplex.solve_nonnegative", 0.0),
        "simplex.rows_in": sum(s["rows"] for s in solves),
        "simplex.cols_in": sum(s["cols"] for s in solves),
        "simplex.nonzeros_in": sum(s["nnz"] for s in solves),
        "simplex.feasible_ratio": _ratio(sum(s["ok"] for s in solves), len(solves)),
        "solver.solve_all_calls": c("solver.solve_all_gauges", 0),
        "solver.solve_all_s": b("solver.solve_all_gauges", 0.0),
        "solver.equations_s": b("solver.gauge_equations", 0.0),
        "solver.self_s": layer_self.get("solver", 0.0),
        "solver.infeasible_ratio": _ratio(
            sum(1 for s in all_gauges if s[5] and s[5].get("raised") == "Infeasible"),
            len(all_gauges)),
        "solver.shared_hit_ratio": _ratio(sum(of("solver.solve_shared_gauge", "ok")),
                                          c("solver.solve_shared_gauge", 0)),
        "model.load_s": b("model.load_system", 0.0),
        "model.build_calls": c("model.ProbabilitySystem.__init__", 0),
        "model.build_s": b("model.ProbabilitySystem.__init__", 0.0),
        "model.consistency_calls": c("model.is_locally_consistent", 0),
        "model.consistency_s": b("model.is_locally_consistent", 0.0),
        "model.marginal_calls": c("model.marginal", 0),
        "model.marginal_s": b("model.marginal", 0.0),
        "model.self_s": layer_self.get("model", 0.0),
        "model.condition_calls": c("model.condition", 0),
        "model.condition_s": b("model.condition", 0.0),
        "model.region_marginal_calls": c("model.ProbabilitySystem.region_marginal", 0),
        "model.canonical_key_calls": c("model.ProbabilitySystem.canonical_key", 0),
        "model.canonical_key_s": b("model.ProbabilitySystem.canonical_key", 0.0),
        "collapse.simulate_s": b("collapse.simulate", 0.0),
        "collapse.self_s": layer_self.get("collapse", 0.0),
        "collapse.draws": sum(s["runs"] for s in simulate),
        "collapse.plan_runs": sum(s["runs"] for s in simulate if s["plan"]),
        "collapse.cache_gets": cache_gets,
        "collapse.cache_miss_ratio": _ratio(misses, cache_gets),
        "collapse.min_steps_calls": c("collapse.find_min_steps", 0),
        "collapse.min_steps_s": b("collapse.find_min_steps", 0.0),
        "collapse.branches": sum(1 for i in conditions if under_steps[i]),
        "metrics.self_s": layer_self.get("metrics", 0.0),
        "metrics.classify_calls": c("metrics.classify", 0),
        "metrics.classify_s": b("metrics.classify", 0.0),
        "metrics.classify_nodes": sum(1 for i in conditions if under_classify[i]),
        "metrics.atoms_calls": c("metrics.atom_measures", 0),
        "metrics.atoms_s": b("metrics.atom_measures", 0.0),
        "metrics.entropy_calls": c("metrics.measurement_entropy", 0),
        "metrics.chsh_max_calls": c("metrics.chsh_max", 0),
        "metrics.scheme_s": b("metrics.entanglement_scheme", 0.0),
        "catalog.build_calls": c("catalog.build", 0),
        "catalog.build_s": b("catalog.build", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.unattributed_ratio": _ratio(traced_wall - top_level, traced_wall),
    }


def self_time_shares(spans, jobs):
    """Per job kind, each layer's share of the self time of its spans."""
    kind_of = {j["id"]: j["kind"] for j in jobs}
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        per = totals.setdefault(kind_of[s[4]], {})
        layer = s[0].split(".")[0]
        per[layer] = per.get(layer, 0.0) + t
    shares = {}
    for kind, per in sorted(totals.items()):
        whole = sum(per.values())
        shares[kind] = {layer: round(t / whole, 4)
                        for layer, t in sorted(per.items(), key=lambda kv: -kv[1])}
    return shares
