"""Per-layer tracing of ipsforge from outside the program.

The tracer rebinds names where the program looks them up: a function is
replaced in every ipsforge module namespace that holds it (so ``from X import
f`` and ``X.f`` both reach the wrapper), methods are replaced on their class,
and the arithmetic kernel is counted at ``ipsforge._kernel``, whose attributes
every module reads at call time. Private functions are wrapped only where
another module imports them.

Each wrapped call records a span (operation, start, end, parent span, job id)
in memory. The layer of a span is the module that defines the function; the
benchmark opens one ``cli.job`` span around every ``main(argv)`` call, so
time outside every other layer is the cli layer's self time.
"""

from __future__ import annotations

import builtins
import gzip
import inspect
import json
import sys
import time

LAYERS = ("gf", "mvpoly", "symfun", "exactla", "certificates", "lowerbounds",
          "generators", "cli")

# Functions whose span carries an operation name other than their own.
OPS = {
    "gf.field_spec": "gf.fields",
    "gf.field_tower": "gf.fields",
    "gf.parse_field_spec": "gf.fields",
    "mvpoly.Poly.__mul__": "mvpoly.mul",
    "mvpoly.Poly.__add__": "mvpoly.add",
    "mvpoly.Poly.restrict": "mvpoly.restrict",
    "mvpoly.parse_poly": "mvpoly.parse",
    "mvpoly.format_poly": "mvpoly.format",
    "mvpoly.divide_by_axioms": "mvpoly.divide",
    "certificates.refute_linear_frobenius": "certificates.construct",
    "certificates.refute_linear_lowdegree": "certificates.construct",
    "certificates.refute_sparse": "certificates.construct",
    "certificates.refute_symmetric_system": "certificates.construct",
    "certificates.certificate_to_dict": "certificates.dump",
    "certificates.certificate_from_dict": "certificates.load",
}

# Work counted per call, from the arguments and the result.
WORK = {
    "mvpoly.mul": lambda a, r: len(a[0].terms) * len(a[1].terms),
    "mvpoly.add": lambda a, r: len(a[0].terms) + len(a[1].terms),
    "mvpoly.parse": lambda a, r: len(r.terms),
    "mvpoly.format": lambda a, r: len(a[0].terms),
    "mvpoly.cube_interpolate": lambda a, r: len(a[0]),
    "exactla.solve": lambda a, r: len(a[0]) * (len(a[0][0]) if a[0] else 0),
    "exactla.rank": lambda a, r: len(a[0]) * (len(a[0][0]) if a[0] else 0),
}

# Cheap accessors and the field-element classes stay unwrapped; field
# arithmetic is counted at the kernel instead of timed per call.
SKIP = {"mvpoly.Poly.is_zero", "mvpoly.Poly.sparsity", "mvpoly.Poly.coeff",
        "mvpoly.format_elem", "gf.FieldElem", "gf.FieldSpec", "gf.FieldTower"}
DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__"}
KERNEL = ("vmul", "vadd", "vinv")


class Tracer:
    """Spans and counters of one traced pass; ``install`` once per process."""

    def __init__(self):
        self.spans = []          # [op, start, end, parent, job]
        self.stack = []
        self.job = -1
        self.work = {}
        self.counts = dict.fromkeys(KERNEL + ("allocs", "bytes_read", "bytes_written"), 0)

    def reset(self):
        """Start a new pass; the installed wrappers keep their references."""
        self.spans = []
        self.stack.clear()
        self.work = {}
        for name in self.counts:
            self.counts[name] = 0

    # -- spans ----------------------------------------------------------------

    def span(self, op, fn):
        measure = WORK.get(op)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            rec = [op, clock(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                self.work[op] = self.work.get(op, 0) + measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, job_id, fn, *args):
        self.job = job_id
        return self.span("cli.job", fn)(*args)

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap the functions and methods of every layer module. In gf only
        the field constructors get spans; field arithmetic is counted at the
        kernel and in FieldElem allocations instead."""
        mods = {name.split(".")[1]: m for name, m in sys.modules.items()
                if name.startswith("ipsforge.") and m is not None}
        targets = {}  # id(original) -> (original, op, private, home module)
        for layer in LAYERS[:-1]:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if qual in SKIP:
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, BaseException):
                        self._wrap_methods(layer, obj)
                elif _defined_in(obj, mod) and (layer != "gf" or qual in OPS):
                    targets[id(obj)] = (obj, OPS.get(qual, qual),
                                        name.startswith("_"), mod)
        for mod in mods.values():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                hit = targets.get(id(obj))
                if hit is None or (hit[2] and hit[3] is mod):
                    continue
                ns[name] = self.span(hit[1], obj)
        self._count_kernel(mods["_kernel"])
        self._count_allocs(mods["gf"].FieldElem)
        self._count_bytes(mods["cli"])

    def _wrap_methods(self, layer, cls):
        for name, fn in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{name}"
            if not inspect.isfunction(fn) or qual in SKIP:
                continue
            if name.startswith("_") and name not in DUNDERS:
                continue
            setattr(cls, name, self.span(OPS.get(qual, qual), fn))

    def _count_kernel(self, kn):
        counts = self.counts

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in KERNEL:
            setattr(kn, name, counted(name, getattr(kn, name)))

    def _count_allocs(self, elem_cls):
        counts, init = self.counts, elem_cls.__init__

        def __init__(obj, spec, coeffs):
            counts["allocs"] += 1
            init(obj, spec, coeffs)

        elem_cls.__init__ = __init__

    def _count_bytes(self, cli):
        counts = self.counts

        class CountingFile:
            def __init__(self, fh):
                self._fh = fh

            def read(self, *args):
                data = self._fh.read(*args)
                counts["bytes_read"] += len(data)
                return data

            def write(self, data):
                counts["bytes_written"] += len(data)
                return self._fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def __getattr__(self, name):
                return getattr(self._fh, name)

        cli.open = lambda *a, **k: CountingFile(builtins.open(*a, **k))

    # -- aggregation -------------------------------------------------------------

    def aggregate(self):
        """Calls, outermost inclusive time and self time per operation and
        layer, from the spans of the current pass.

        Self time of a span is its duration minus that of its child spans;
        the self time of an operation in SELF_OPS is the self time of the
        spans of its layer that run inside it.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for op, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, busy, op_self, layer_busy, layer_self = {}, {}, {}, {}, {}
        open_stack, op_open, layer_open = [], {}, {}
        for idx, (op, t0, t1, parent, _) in enumerate(spans):
            while open_stack and open_stack[-1] != parent:
                done = spans[open_stack.pop()][0]
                op_open[done] -= 1
                layer_open[done.split(".", 1)[0]] -= 1
            layer = op.split(".", 1)[0]
            dur = t1 - t0
            calls[op] = calls.get(op, 0) + 1
            if not op_open.get(op):
                busy[op] = busy.get(op, 0.0) + dur
            if not layer_open.get(layer):
                layer_busy[layer] = layer_busy.get(layer, 0.0) + dur
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[idx]
            op_open[op] = op_open.get(op, 0) + 1
            layer_open[layer] = layer_open.get(layer, 0) + 1
            open_stack.append(idx)
            for outer in SELF_OPS:
                if op_open.get(outer) and outer.startswith(layer + "."):
                    op_self[outer] = op_self.get(outer, 0.0) + dur - child[idx]
        return {"calls": calls, "busy": busy, "op_self": op_self,
                "layer_busy": layer_busy, "layer_self": layer_self,
                "work": dict(self.work), "counts": dict(self.counts)}

    def dump_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _defined_in(obj, mod):
    fn = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def layer_metrics(agg, job_time, untraced_job_time):
    """The per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    calls, busy, work, counts = agg["calls"], agg["busy"], agg["work"], agg["counts"]

    def rate(n, t):
        return n / t if t > 0 else 0.0

    m = {"gf.kernel.vmul_calls": counts["vmul"],
         "gf.kernel.vadd_calls": counts["vadd"],
         "gf.kernel.vinv_calls": counts["vinv"],
         "gf.elem.allocs": counts["allocs"]}
    for name in METRICS:
        parts = name.rsplit(".", 1)
        op, field = parts if len(parts) == 2 else (name, "")
        if name in m:
            continue
        if field == "calls":
            m[name] = calls.get(op, 0)
        elif field == "busy_s":
            m[name] = busy.get(op, 0.0) if op.count(".") else agg["layer_busy"].get(op, 0.0)
        elif field == "self_s":
            m[name] = agg["op_self"].get(op, 0.0) if op.count(".") else agg["layer_self"].get(op, 0.0)
        elif field in ("term_pairs", "terms_in", "terms", "points", "cells"):
            m[name] = work.get(op, 0)
        elif field.endswith("_per_s"):
            m[name] = rate(work.get(op, 0), busy.get(op, 0.0))
    m["cli.bytes_written"] = counts["bytes_written"]
    m["cli.bytes_read"] = counts["bytes_read"]
    m["trace.overhead_ratio"] = rate(job_time, untraced_job_time)
    m["trace.coverage"] = 1.0 - rate(agg["layer_self"].get("cli", 0.0), job_time)
    return {name: m[name] for name in METRICS}


# (name, unit) of every per-layer metric, in report order.
METRIC_UNITS = [
    ("gf.kernel.vmul_calls", "count"), ("gf.kernel.vadd_calls", "count"),
    ("gf.kernel.vinv_calls", "count"), ("gf.elem.allocs", "count"),
    ("gf.fields.busy_s", "s"),
    ("mvpoly.mul.calls", "count"), ("mvpoly.mul.term_pairs", "count"),
    ("mvpoly.mul.busy_s", "s"), ("mvpoly.mul.term_pairs_per_s", "1/s"),
    ("mvpoly.add.calls", "count"), ("mvpoly.add.terms_in", "count"),
    ("mvpoly.add.busy_s", "s"),
    ("mvpoly.parse.terms", "count"), ("mvpoly.parse.busy_s", "s"),
    ("mvpoly.parse.terms_per_s", "1/s"),
    ("mvpoly.format.terms", "count"), ("mvpoly.format.busy_s", "s"),
    ("mvpoly.format.terms_per_s", "1/s"),
    ("mvpoly.cube_interpolate.points", "count"),
    ("mvpoly.cube_interpolate.busy_s", "s"),
    ("mvpoly.restrict.calls", "count"), ("mvpoly.restrict.busy_s", "s"),
    ("mvpoly.divide.busy_s", "s"), ("mvpoly.self_s", "s"),
    ("symfun.busy_s", "s"), ("symfun.self_s", "s"),
    ("exactla.solve.calls", "count"), ("exactla.solve.cells", "count"),
    ("exactla.solve.busy_s", "s"),
    ("exactla.rank.calls", "count"), ("exactla.rank.cells", "count"),
    ("exactla.rank.busy_s", "s"),
    ("certificates.construct.calls", "count"),
    ("certificates.construct.busy_s", "s"),
    ("certificates.construct.self_s", "s"),
    ("certificates.dump.busy_s", "s"),
    ("certificates.verify.calls", "count"),
    ("certificates.verify.busy_s", "s"), ("certificates.verify.self_s", "s"),
    ("certificates.load.busy_s", "s"),
    ("lowerbounds.ml_inverse.calls", "count"),
    ("lowerbounds.ml_inverse.busy_s", "s"),
    ("lowerbounds.busy_s", "s"), ("lowerbounds.self_s", "s"),
    ("generators.busy_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_written", "count"),
    ("cli.bytes_read", "count"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
]
METRICS = [name for name, _ in METRIC_UNITS]
COUNTS = [name for name, unit in METRIC_UNITS if unit == "count"]
SELF_OPS = ("certificates.construct", "certificates.verify")
