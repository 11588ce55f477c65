"""Spans around mtcalc's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function or method by a wrapper in
every mtcalc namespace that binds it (modules that import a name with
``from ... import`` hold their own reference), and ``uninstall`` puts the
originals back.  Spans are kept in memory as flat arrays: name, start, end,
parent span and job id.  Self time is a span's duration minus the durations
of its direct child spans; it is computed from the arrays once a pass ends.
The benchmark resets the arrays before each traced pass, so the spans of the
last traced pass are the ones written out at exit.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import NamedTuple, Optional

import numpy as np


class Target(NamedTuple):
    """A wrapped function and the per-layer metrics reported for it.

    ``fields``: calls, self_s and incl_s come from the spans; hit_ratio and
    accept_ratio divide a counter (``RATIO_COUNTERS``) by the calls; every
    other field is a counter of that name.  kind "gen" marks a generator:
    its iteration is timed, one span per next() call, not the call creating
    it.
    """

    module: str
    path: str
    name: str
    fields: tuple
    kind: Optional[str] = None


TARGETS = (
    Target("fusion_data", "loads_category", "fusion_data.loads_category", ("calls", "self_s")),
    Target("fusion_data", "builtin_category", "fusion_data.builtin_category", ("calls", "self_s")),
    Target("fusion_data", "verify_coherence", "fusion_data.verify_coherence", ("self_s",)),
    Target("fusion_data", "pentagon_residuals", "fusion_data.pentagon_residuals", ("items", "self_s"), kind="gen"),
    Target("fusion_data", "hexagon_residuals", "fusion_data.hexagon_residuals", ("items", "self_s"), kind="gen"),
    Target("fusion_data", "CategoryData.f_block_inv", "fusion_data.f_block_inv", ("calls",)),
    Target("fusion_data", "CategoryData.r_block_inv", "fusion_data.r_block_inv", ("calls",)),
    Target("graphcalc", "trees", "graphcalc.trees", ("calls", "self_s", "hit_ratio")),
    Target("graphcalc", "vertex_morphism", "graphcalc.vertex_morphism", ("calls", "self_s")),
    Target("graphcalc", "covertex_morphism", "graphcalc.covertex_morphism", ("calls", "self_s")),
    Target("graphcalc", "braid_morphism", "graphcalc.braid_morphism", ("calls", "self_s")),
    Target("graphcalc", "cup_morphism", "graphcalc.cup_morphism", ("calls", "self_s")),
    Target("graphcalc", "cap_morphism", "graphcalc.cap_morphism", ("calls", "self_s")),
    Target("graphcalc", "Morphism.zero", "graphcalc.Morphism.zero", ("calls", "self_s")),
    Target("graphcalc", "Morphism.__matmul__", "graphcalc.Morphism.matmul", ("calls", "self_s")),
    Target("graphcalc", "evaluate_diagram", "graphcalc.evaluate_diagram", ("calls", "self_s")),
    Target("graphcalc", "verify_rigidity", "graphcalc.verify_rigidity", ("self_s",)),
    Target("graphcalc", "verify_fusing_symmetries", "graphcalc.verify_fusing_symmetries", ("self_s",)),
    Target("deligne_double", "assignments", "deligne_double.assignments", ("calls", "items")),
    Target("deligne_double", "pair_layer", "deligne_double.pair_layer", ("calls", "self_s")),
    Target("deligne_double", "DoubleMorphism.add_block", "deligne_double.add_block", ("calls", "kron_calls")),
    Target("deligne_double", "DoubleMorphism.__matmul__", "deligne_double.DoubleMorphism.matmul", ("calls", "self_s")),
    Target("deligne_double", "DoubleMorphism.identity", "deligne_double.DoubleMorphism.identity", ("calls",)),
    Target("deligne_double", "double_braid_layer", "deligne_double.double_braid_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "mult_layer", "diagonal_frobenius.mult_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "comult_layer", "diagonal_frobenius.comult_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "coev_layer", "diagonal_frobenius.coev_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "ev_layer", "diagonal_frobenius.ev_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "unit_layer", "diagonal_frobenius.unit_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "counit_layer", "diagonal_frobenius.counit_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "phi_layer", "diagonal_frobenius.phi_layer", ("calls", "self_s")),
    Target("diagonal_frobenius", "build_diagonal_algebra", "diagonal_frobenius.build_diagonal_algebra", ("self_s",)),
    Target("diagonal_frobenius", "verify_algebra_axioms", "diagonal_frobenius.verify_algebra_axioms", ("self_s",)),
    Target("diagonal_frobenius", "verify_frobenius", "diagonal_frobenius.verify_frobenius", ("self_s", "incl_s")),
    Target("diagonal_frobenius", "verify_invariant_form", "diagonal_frobenius.verify_invariant_form", ("self_s",)),
    Target("diagonal_frobenius", "emit_algebra", "diagonal_frobenius.emit_algebra", ("self_s",)),
    Target("diagonal_frobenius", "loads_algebra", "diagonal_frobenius.loads_algebra", ("self_s",)),
    Target("sewing_operad", "sew", "sewing_operad.sew", ("calls", "self_s", "errors")),
    Target("sewing_operad", "geometric_sew_oracle", "sewing_operad.geometric_sew_oracle", ("calls", "self_s")),
    Target("sewing_operad", "permute", "sewing_operad.permute", ("calls", "self_s")),
    Target("sewing_operad", "random_sphere", "sewing_operad.random_sphere", ("calls", "self_s")),
    Target("sewing_operad", "is_sewable", "sewing_operad.is_sewable", ("calls", "accept_ratio")),
    Target("sewing_operad", "verify_operad_axioms", "sewing_operad.verify_operad_axioms", ("self_s",)),
    Target("cli_io", "run_suite", "cli_io.run_suite", ("calls", "self_s", "nonzero_exit")),
    Target("report", "emit_report", "cli_io.emit_report", ("calls", "self_s")),
)
RATIO_COUNTERS = {"hit_ratio": "hits", "accept_ratio": "accepted"}
# counters that belong to no single span, with their units
LAYER_TOTALS = {"deligne_double.block_bytes": "computed_bytes",
                "cli_io.report_bytes": "bytes"}
FIELD_UNITS = {"self_s": "s", "incl_s": "s", "hit_ratio": "ratio",
               "accept_ratio": "ratio"}


def layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{t.name}.{field}": FIELD_UNITS.get(field, "count")
        for t in TARGETS for field in t.fields
    }
    units.update(LAYER_TOTALS)
    return units


def layer_values(summary: dict) -> dict:
    """The per-layer metrics of one ``Tracer.summary``."""
    spans, counters = summary["spans"], summary["counters"]
    out = {}
    for t in TARGETS:
        calls = spans[t.name]["calls"]
        for field in t.fields:
            if field in spans[t.name]:
                value = spans[t.name][field]
            elif field in RATIO_COUNTERS:
                hits = counters.get(f"{t.name}.{RATIO_COUNTERS[field]}", 0)
                value = hits / calls if calls else 0.0
            else:
                value = counters.get(f"{t.name}.{field}", 0)
            out[f"{t.name}.{field}"] = value
    for name in LAYER_TOTALS:
        out[name] = counters.get(name, 0)
    return out


# Counters taken from a call's arguments or result, keyed by span name.
# Each hook gets (tracer, result, *args) and runs after the span has closed.

def _trees_hit(tracer, result, data, word, target):
    # A key seen before in this job would be served from the tree cache.
    key = (id(data), tuple(word), target)
    if key in tracer.tree_keys:
        tracer.count("graphcalc.trees.hits")
        tracer.tree_hits[tracer.job_id] += 1
    else:
        tracer.tree_keys.add(key)


def _assignment_items(tracer, result, word):
    tracer.count("deligne_double.assignments.items", len(result))


def _block_bytes(tracer, result, dm, src_assign, dst_assign, cl, cr, mat):
    tracer.count("deligne_double.block_bytes", np.asarray(mat).nbytes)


def _sewable_accept(tracer, result, *args):
    if result:
        tracer.count("sewing_operad.is_sewable.accepted")


def _nonzero_exit(tracer, result, argv):
    if result[0] != 0:
        tracer.count("cli_io.run_suite.nonzero_exit")


def _report_bytes(tracer, result, *args):
    tracer.count("cli_io.report_bytes", len(result))


HOOKS = {
    "graphcalc.trees": _trees_hit,
    "deligne_double.assignments": _assignment_items,
    "deligne_double.add_block": _block_bytes,
    "sewing_operad.is_sewable": _sewable_accept,
    "cli_io.run_suite": _nonzero_exit,
    "cli_io.emit_report": _report_bytes,
}


class Tracer:
    """In-memory span recorder for one traced benchmark run."""

    def __init__(self):
        self.names = [t.name for t in TARGETS]
        self.name_a = array("i")
        self.start_a = array("d")
        self.end_a = array("d")
        self.parent_a = array("i")
        self.job_a = array("i")
        self.stack = [-1]
        self.jobs = []          # job id -> job key
        self.job_id = -1
        self.counters = Counter()
        self.tree_keys = set()
        self.tree_hits = Counter()   # job id -> trees calls a cache would serve
        self._restore = []

    def count(self, name, amount=1):
        self.counters[name] += amount

    def begin_job(self, key: str) -> None:
        self.job_id = len(self.jobs)
        self.jobs.append(key)
        self.tree_keys = set()

    # -- wrappers ------------------------------------------------------

    def _wrap(self, nid, fn, kind):
        name = self.names[nid]
        hook = HOOKS.get(name)
        clock = time.perf_counter
        end_a, stack = self.end_a, self.stack
        add_name, add_start = self.name_a.append, self.start_a.append
        add_end, add_parent, add_job = end_a.append, self.parent_a.append, self.job_a.append
        push, pop = stack.append, stack.pop
        tracer = self

        def open_span():
            idx = len(end_a)
            add_name(nid)
            add_parent(stack[-1])
            add_job(tracer.job_id)
            add_end(0.0)
            push(idx)
            add_start(clock())
            return idx

        if kind == "gen":
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)

                def traced():
                    while True:
                        idx = open_span()
                        try:
                            item = next(it)
                        except StopIteration:
                            end_a[idx] = clock()
                            pop()
                            return
                        end_a[idx] = clock()
                        pop()
                        tracer.count(name + ".items")
                        yield item
                return traced()
        else:
            # open_span inlined: this wrapper runs millions of times a pass
            def wrapper(*args, **kwargs):
                idx = len(end_a)
                add_name(nid)
                add_parent(stack[-1])
                add_job(tracer.job_id)
                add_end(0.0)
                push(idx)
                add_start(clock())
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    end_a[idx] = clock()
                    pop()
                    tracer.count(name + ".errors")
                    raise
                end_a[idx] = clock()
                pop()
                if hook is not None:
                    hook(tracer, result, *args, **kwargs)
                return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded mtcalc namespace binding it."""
        namespaces = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "mtcalc" or n.startswith("mtcalc."))
        ]
        for nid, (module, path, _, _, kind) in enumerate(TARGETS):
            owner = sys.modules[f"mtcalc.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(nid, raw.__func__, kind))
                else:
                    new = self._wrap(nid, raw, kind)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(owner, path)
            new = self._wrap(nid, fn, kind)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._restore.append((ns, attr, fn))
                        setattr(ns, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- analysis ------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counts recorded so far (job ids stay unique)."""
        for arr in (self.name_a, self.start_a, self.end_a, self.parent_a, self.job_a):
            del arr[:]
        self.counters.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_a, dtype=np.int32),
            "start": np.frombuffer(self.start_a, dtype=np.float64),
            "end": np.frombuffer(self.end_a, dtype=np.float64),
            "parent": np.frombuffer(self.parent_a, dtype=np.int32),
            "job": np.frombuffer(self.job_a, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Calls, self and inclusive seconds per span name, and the counters,
        of everything recorded since the last reset."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        parent = a["parent"][nested]
        child = np.bincount(parent, weights=dur[nested], minlength=len(dur))
        out = {
            "calls": np.bincount(a["name"], minlength=k),
            "self_s": np.bincount(a["name"], weights=dur - child, minlength=k),
            "incl_s": np.bincount(a["name"], weights=dur, minlength=k),
        }
        result = {
            name: {key: (int if key == "calls" else float)(vals[i])
                   for key, vals in out.items()}
            for i, name in enumerate(self.names)
        }
        counters = dict(self.counters)
        add_id = self.names.index("deligne_double.add_block")
        pair_id = self.names.index("deligne_double.pair_layer")
        counters["deligne_double.add_block.kron_calls"] = int(np.count_nonzero(
            (a["name"][nested] == add_id) & (a["name"][parent] == pair_id)
        ))
        trees_id = self.names.index("graphcalc.trees")
        job_calls = Counter(a["job"][a["name"] == trees_id].tolist())
        per_job = {
            self.jobs[j]: self.tree_hits[j] / calls for j, calls in job_calls.items()
        }
        return {"spans": result, "counters": counters,
                "trees_hit_ratio_per_job": per_job}

    def write(self, path) -> None:
        """Write the spans recorded since the last reset, with the name and
        job tables."""
        np.savez_compressed(
            path, names=np.array(self.names), jobs=np.array(self.jobs or [""]),
            **self.arrays()
        )
