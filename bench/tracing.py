"""Outside-in spans for the traced benchmark run.

The tracer wraps splitjac's public functions at every module-global name they
are looked up by (``splitjac.reconstruct.selling_reduce``,
``splitjac.splitting.build_jpp``, ``splitjac.build_fan``, ...), so calls between
modules and the benchmark's own calls are all seen; no file of the package is
edited.  Each call records (name, start, end, parent span, op, raised) in
memory.  Self time is a span's duration minus the durations of its children.
``Mat.__matmul__`` is only counted, because a span per product would cost more
than the product.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (defining module, function): the span is named "<module>.<function>".
TRACED = (
    ("matrices", "congruence_act"),
    ("tav", "induce_polarization"),
    ("tav", "pullback_polarization"),
    ("tav", "adjoint"),
    ("splitting", "qpp"),
    ("splitting", "build_jpp"),
    ("splitting", "build_diagram"),
    ("selling", "selling_reduce"),
    ("selling", "fd_representative"),
    ("selling", "classify_curve"),
    ("reconstruct", "torelli_preimage"),
    ("reconstruct", "build_covers"),
    ("locus", "build_fan"),
    ("locus", "image_cones"),
    ("locus", "compare_images"),
    ("cli", "main"),
)

# Exact counts read off return values, keyed by span name.
_RESULT_COUNTS = {
    "selling.selling_reduce": ("selling.moves", lambda out: sum(out[1].counts())),
    "locus.build_fan": ("locus.cones", lambda out: len(out.cones)),
}

MATMUL_CALLS = "matrices.Mat.matmul.calls"

# Per-layer metrics, reported per op: (name, unit).
PER_LAYER = (
    ("selling.selling_reduce.self_ms", "ms/op"),
    ("selling.selling_reduce.calls", "count/op"),
    ("selling.selling_reduce.errors", "count/op"),
    ("selling.moves", "count/op"),
    ("selling.fd_representative.self_ms", "ms/op"),
    ("selling.classify_curve.self_ms", "ms/op"),
    ("reconstruct.torelli_preimage.self_ms", "ms/op"),
    ("reconstruct.build_covers.self_ms", "ms/op"),
    ("splitting.qpp.self_ms", "ms/op"),
    ("matrices.congruence_act.calls", "count/op"),
    ("matrices.congruence_act.self_ms", "ms/op"),
    (MATMUL_CALLS, "count/op"),
    ("splitting.build_jpp.self_ms", "ms/op"),
    ("splitting.build_diagram.self_ms", "ms/op"),
    ("tav.induce_polarization.self_ms", "ms/op"),
    ("tav.adjoint.self_ms", "ms/op"),
    ("tav.pullback_polarization.self_ms", "ms/op"),
    ("locus.build_fan.calls", "count/op"),
    ("locus.build_fan.self_ms", "ms/op"),
    ("locus.cones", "count/op"),
    ("locus.image_cones.self_ms", "ms/op"),
    ("locus.compare_images.self_ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("cli.stdout_bytes", "B/op"),
)

# Counts that must repeat exactly in every pass over the same op list (the cli
# workload's checks count cli.stdout_bytes, which must repeat as well).
EXACT_COUNTS = ("selling.moves", "locus.cones", "matrices.congruence_act.calls")


class Tracer:
    """In-memory span recorder; install() patches splitjac, uninstall() restores it."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index, op index, raised]
        self.counts = Counter()
        self.missing = []  # TRACED entries the package does not define
        self._stack = []
        self._op = -1
        self._patched = []  # (owner, attribute, original)
        self._root = self._wrap("bench.op", lambda fn: fn())

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls, result_count = f"{name}.calls", _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, True]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[2] = perf_counter()
                stack.pop()
            if result_count is not None:
                try:
                    counts[result_count[0]] += result_count[1](out)
                except (AttributeError, TypeError, IndexError):
                    counts["bench.uncountable_results"] += 1  # return type changed
            return out
        return traced

    def install(self) -> None:
        wrappers = {}
        for module, func in TRACED:
            fn = getattr(sys.modules.get(f"splitjac.{module}"), func, None)
            if fn is None:
                self.missing.append(f"{module}.{func}")
            else:
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{func}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "splitjac" and not modname.startswith("splitjac."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        from splitjac.matrices import Mat
        matmul, counts = Mat.__matmul__, self.counts

        def counted(a, b):
            counts[MATMUL_CALLS] += 1
            return matmul(a, b)
        self._patch(Mat, "__matmul__", counted)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def call_op(self, index: int, fn):
        """Run one op under a root span, so every span of the op shares its index."""
        self._op = index
        return self._root(fn)

    def layer_totals(self) -> tuple:
        """(self seconds, raised calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, raised = Counter(), Counter()
        for i, (name, start, end, _, _, err) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            raised[name] += err
        return self_s, raised

    def per_layer(self, n_ops: int, output_counts: Counter, speed: float) -> dict:
        """Every PER_LAYER metric, per op; counts not seen by the tracer come from outputs.

        Self times are scaled by the run's speed relative to the reference speed.
        """
        self_s, raised = self.layer_totals()
        values = {}
        for metric, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "self_ms":
                total = self_s[span] * 1e3 * speed
            elif kind == "errors":
                total = raised[span]
            else:
                total = self.counts[metric] + output_counts[metric]
            values[metric] = total / n_ops
        return values

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span:
        [id, parent id or -1, op index, name, start s, end s, raised]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, op, err) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, op, name, start, end, err]) + "\n")
