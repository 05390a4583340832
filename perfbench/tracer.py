"""Per-layer tracing of smt_kit, done from outside the library.

`Tracer.install()` wraps the public functions and methods listed in
`LAYERS` and rebinds every alias the smt_kit modules hold: a name taken
with ``from .weyl import bruhat_leq`` lives on in lspath, smt, involutions,
quadlat and extend, and calls through it would otherwise escape the count.
Each call is one span, aggregated in place by (name, parent) into calls,
inclusive time and self time (inclusive time minus the time of the wrapped
calls made inside it).  No per-call record is kept, so memory stays flat
however hot a function is; the hot leaves (`reflect`, `key`, `root_coords`,
`left_descent`, `solve`) inspect no result and only count and add time.

`layer_metrics` turns the aggregated rows into the per-layer metrics named
in `METRICS`, which `BENCHMARK.json` lists under ``per_layer``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, qualified name, metrics reported for it).  `calls` and `self_s`
# add up over parents; `true_ratio` is the share of truthy results;
# `elements`, `weights` and `paths` add up the sizes of the results;
# `miss_ratio` is the share of root_coords calls that run linalg.solve.
LAYERS = [
    ("cartan", "Realization.reflect", ("calls",)),
    ("cartan", "Realization.act_letters", ("calls", "self_s")),
    ("cartan", "Realization.root_coords", ("calls", "self_s", "miss_ratio")),
    ("cartan", "Realization.is_real_root", ("calls", "self_s")),
    ("cartan", "weyl_dim", ("calls", "self_s")),
    ("cartan", "classify", ("calls",)),
    ("linalg", "solve", ("calls", "self_s")),
    ("linalg", "char_poly", ("calls",)),
    ("quadlat", "monoid_basis", ("calls", "self_s")),
    ("quadlat", "SubLattice.contains", ("calls", "self_s", "true_ratio")),
    ("quadlat", "hgt", ("calls",)),
    ("quadlat", "is_quadratic", ("self_s",)),
    ("extend", "split_normal_form", ("calls", "self_s")),
    ("extend", "egr", ("calls",)),
    ("extend", "extend_restricted", ("calls",)),
    ("weyl", "WeylWord.key", ("calls", "self_s")),
    ("weyl", "WeylWord.reduce", ("calls", "self_s")),
    ("weyl", "WeylWord.left_descent", ("calls",)),
    ("weyl", "bruhat_leq", ("calls", "self_s", "true_ratio")),
    ("weyl", "CosetRep.__init__", ("calls", "self_s")),
    ("weyl", "coset_interval", ("calls", "self_s", "elements")),
    ("weyl", "demazure_character", ("calls", "self_s", "weights")),
    ("weyl", "orbit_bfs", ("calls", "self_s")),
    ("weyl", "longest_parabolic", ("calls",)),
    ("lspath", "ChainData.__init__", ("calls", "self_s")),
    ("lspath", "ChainData.cut_values", ("calls", "self_s")),
    ("lspath", "enumerate_paths", ("calls", "self_s", "paths")),
    ("lspath", "path_leq", ("calls",)),
    ("lspath", "is_standard_above", ("calls", "self_s", "true_ratio")),
    ("lspath", "is_standard_below", ("calls", "self_s", "true_ratio")),
    ("lspath", "lift_path", ("calls", "self_s")),
    ("smt", "GradedCounts.count", ("calls", "self_s")),
    ("smt", "two_basis_counts", ("self_s",)),
    ("smt", "MinusculePoset.leq", ("calls",)),
    ("smt", "count_standard_pairs", ("self_s",)),
    ("smt", "straighten", ("calls", "self_s")),
    ("involutions", "AmbientCase.__init__", ("calls", "self_s")),
    ("involutions", "AmbientCase.tau_lift", ("calls", "self_s")),
    ("involutions", "AmbientCase.lift_to_grassmannian", ("calls", "self_s")),
    ("involutions", "AmbientCase.base_paths", ("self_s",)),
]
UNITS = {"calls": "count", "self_s": "s", "true_ratio": "ratio", "miss_ratio": "ratio",
         "elements": "count", "weights": "count", "paths": "count"}
SIZE_STATS = ("elements", "weights", "paths")
ROOT_COORDS = "cartan.Realization.root_coords"
SOLVE = "linalg.solve"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}".replace(".__init__", ".init")


# metric name -> unit, as listed under ``per_layer`` in BENCHMARK.json
METRICS = {f"{span_name(module, qualname)}.{stat}": UNITS[stat]
           for module, qualname, stats in LAYERS for stat in stats}


class Tracer:
    """Wraps the layers' public functions and aggregates their spans."""

    def __init__(self):
        # a frame is [time spent in wrapped children, span name]
        self._stack: list[list] = [[0.0, "workload"]]
        # (name, parent) -> [calls, inclusive s, self s, result count]
        self._spans: dict[tuple, list] = {}

    def _wrap(self, name: str, fn, stats):
        stack, spans, clock = self._stack, self._spans, time.perf_counter
        counts_true = "true_ratio" in stats
        counts_size = any(stat in SIZE_STATS for stat in stats)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                rec = spans.get((name, parent[1]))
                if rec is None:
                    rec = spans[(name, parent[1])] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
            if counts_true:
                rec[3] += 1 if result else 0
            elif counts_size:
                rec[3] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name in {layer[0] for layer in LAYERS}:
            importlib.import_module(f"smt_kit.{module_name}")
        modules = [m for k, m in sys.modules.items() if k.startswith("smt_kit.")]
        for module_name, qualname, stats in LAYERS:
            module = sys.modules[f"smt_kit.{module_name}"]
            name = span_name(module_name, qualname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                orig = owner.__dict__[attr]
                if isinstance(orig, property):
                    setattr(owner, attr, property(self._wrap(name, orig.fget, stats)))
                else:
                    setattr(owner, attr, self._wrap(name, orig, stats))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, stats)
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, alias, wrapped)

    def span_rows(self) -> list[list]:
        """[name, parent, calls, inclusive_s, self_s, result_count], sorted."""
        return sorted([name, parent, *rec] for (name, parent), rec in self._spans.items())


def layer_metrics(rows: list[list]) -> dict[str, float]:
    """The METRICS values from aggregated span rows (missing spans read 0)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counted: dict[str, int] = {}
    nested_solves = 0
    for name, parent, n, _incl, own, result_count in rows:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own
        counted[name] = counted.get(name, 0) + result_count
        if name == SOLVE and parent == ROOT_COORDS:
            nested_solves += n
    out = {}
    for metric in METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(span, 0.0)
        elif stat == "miss_ratio":
            out[metric] = nested_solves / calls[span] if calls.get(span) else 0.0
        elif stat.endswith("_ratio"):
            out[metric] = counted.get(span, 0) / calls[span] if calls.get(span) else 0.0
        else:
            out[metric] = counted.get(span, 0)
    return out
