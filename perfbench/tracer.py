"""Outside-in tracer for the jortwist modules.

The tracer changes no program file.  It replaces chosen functions and
methods of the already imported modules by timing wrappers, runs the
workload, and puts every original back.  Each wrapped call adds to three
aggregates kept under its metric name (module.Class.method or
module.function): the call count, the inclusive time and the self time,
which is the inclusive time minus the time spent in wrapped callees.

A call also records a span (name, start, end, parent span, operation id)
when it crosses a layer boundary, i.e. when the nearest wrapped caller
lives in another module or there is none.  Calls inside one module, such
as DPoly.mul into UPoly.mul, are counted and timed but not kept as spans:
they run millions of times and would not fit in memory.  Spans are kept
in flat arrays and written out once, by `write_spans`, when the run ends.

Work and waste counters (term pairs, shift usefulness, coefficient sizes)
are computed by hooks from each call's arguments and result, after the
call's own clock has stopped.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# Methods named in the metrics drop their dunder: __mul__ and __rmul__
# both count as "mul".
_DUNDER = {"__add__": "add", "__radd__": "add", "__mul__": "mul",
           "__rmul__": "mul", "__call__": "call", "__pow__": "pow",
           "__neg__": "neg", "__sub__": "sub", "__eq__": "eq"}

# What is wrapped, per module.  "*" stands for every function defined in
# the module itself.  Constructors, coercions and properties are left out:
# they are constant-time helpers whose wrapping would cost more than they do.
WRAPPED = {
    "exactalg": ("UPoly.__add__", "UPoly.__radd__", "UPoly.__mul__",
                 "UPoly.__rmul__", "UPoly.__pow__", "UPoly.__call__",
                 "DPoly.__add__", "DPoly.__radd__", "DPoly.__mul__",
                 "DPoly.__rmul__", "DPoly.__pow__", "DPoly.substitute_linear",
                 "DPoly.shift", "DPoly.split_variable", "DPoly.evaluate",
                 "DPoly.specialize_u", "binom_poly", "int_binom"),
    "borel": ("TensorElement.__add__", "TensorElement.__mul__",
              "TensorElement.__eq__", "TensorElement.scale",
              "TensorElement.tensor", "TensorElement.coproduct",
              "TensorElement.counit_contract", "TensorElement.antipode",
              "TensorElement.fold_mul_antipode", "TensorElement.specialize_u",
              "TensorElement.grade_slice", "first_difference", "series_apply",
              "exp_series", "log1p_series", "geometric_inverse", "conjugate"),
    "twists": ("*",),
    "identities": ("*",),
    "report": ("VerificationReport.to_dict", "merge_reports"),
    "cli": ("*",),
}

COUNTERS = ("exactalg.DPoly.mul.term_pairs",
            "borel.TensorElement.mul.out_terms",
            "borel.TensorElement.mul.shift_attempts",
            "borel.TensorElement.mul.shift_useful",
            "exactalg.coef_max_bits",
            "exactalg.u_max_degree")


def metric_name(module, qualname):
    parts = qualname.split(".")
    parts[-1] = _DUNDER.get(parts[-1], parts[-1])
    return ".".join([module] + parts)


class Spans:
    """Flat, append-only span storage; a span's id is its index."""

    def __init__(self):
        self.names = []  # name table; spans refer to it by index
        self.name_ids = array("l")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")

    def __len__(self):
        return len(self.starts)

    def open(self, name_id, parent, op):
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ops.append(op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        return len(self.starts) - 1

    def records(self):
        for i in range(len(self)):
            yield {"id": i, "name": self.names[self.name_ids[i]],
                   "parent": self.parents[i], "op": self.ops[i],
                   "start": self.starts[i], "end": self.ends[i]}


class Tracer:
    """Wraps functions, aggregates per-name stats and keeps spans.

    stats[name] is [calls, total_s, self_s].  `clock` is injectable so the
    arithmetic can be tested on a synthetic call tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = Spans()
        self.op = -1
        self._stack = []      # frames: [child_time, span_id, module]
        self._patches = []    # (namespace, attribute, original)

    def wrap(self, module, name, fn, hook=None):
        """Return a timing wrapper of fn that counts under `name`."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name not in self.spans.names:
            self.spans.names.append(name)
        name_id = self.spans.names.index(name)
        stack, clock, spans = self._stack, self.clock, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = parent is None or parent[2] != module
            if record:
                sid = spans.open(name_id, parent[1] if parent else -1, self.op)
            else:
                sid = parent[1]
            frame = [0.0, sid, module]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans.starts[sid] = t0
                    spans.ends[sid] = t1
            if hook is not None:
                hook(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self):
        """Wrap everything in WRAPPED, in every namespace that holds it.

        All originals are captured before the first patch, so a module that
        imported a function from another one (twists imports
        geometric_inverse from borel; the package re-exports it) is matched
        against the original object, never against a wrapper.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules["jortwist." + m] for m in WRAPPED}
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and (key == "jortwist"
                                              or key.startswith("jortwist."))]
        plan = []  # (module key, qualname, owner, attribute, original)
        for key, targets in WRAPPED.items():
            mod = mods[key]
            if targets == ("*",):
                targets = sorted(
                    n for n, v in vars(mod).items()
                    if callable(v) and not isinstance(v, type)
                    and getattr(v, "__module__", None) == mod.__name__)
            for target in targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(mod, cls_name)
                    plan.append((key, target, owner, attr, vars(owner)[attr]))
                else:
                    original = getattr(mod, target)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                plan.append((key, target, ns, attr, original))
        wrappers = {}
        for key, qualname, owner, attr, original in plan:
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                name = metric_name(key, qualname)
                wrapper = self.wrap(key, name, original, HOOKS.get(name))
                wrappers[id(original)] = wrapper
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def value(self, metric):
        """A per-layer metric by name: <fn>.calls / .total_s / .self_s,
        a counter, or a ratio derived from counters (0 when nothing was
        attempted)."""
        if metric in self.counters:
            return self.counters[metric]
        if metric == "borel.TensorElement.mul.shift_useful_ratio":
            attempts = self.counters["borel.TensorElement.mul.shift_attempts"]
            useful = self.counters["borel.TensorElement.mul.shift_useful"]
            return useful / attempts if attempts else 0.0
        if metric == "identities.instances":
            return self.stats["identities._instance"][0]
        base, _, field = metric.rpartition(".")
        index = {"calls": 0, "total_s": 1, "self_s": 2}[field]
        return self.stats[base][index]

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans.records():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- hooks: work and waste counters computed from arguments and results -----

def _dpoly_mul(counters, args, result):
    a, b = args
    other = len(b.terms) if hasattr(b, "terms") else 1
    counters["exactalg.DPoly.mul.term_pairs"] += len(a.terms) * other


def _tensor_mul(counters, args, result):
    """Replays the offset grouping of TensorElement.__mul__: each (left
    term, right offset group) pair is one shift; it is useful when some
    entry of the group stays within the truncation grade."""
    a, b = args
    n = a.truncation
    min_grade = {}
    for key in b.terms:
        offsets = tuple(-(p + q) for p, q in key)
        grade = sum(p for p, _ in key)
        min_grade[offsets] = min(grade, min_grade.get(offsets, grade))
    lowest = list(min_grade.values())
    for key in a.terms:
        room = n - sum(p for p, _ in key)
        counters["borel.TensorElement.mul.shift_attempts"] += len(lowest)
        counters["borel.TensorElement.mul.shift_useful"] += sum(
            1 for g in lowest if g <= room)
    counters["borel.TensorElement.mul.out_terms"] += len(result.terms)


def _element_size(counters, args, result):
    bits = degree = 0
    for d in result.terms.values():
        for coef in d.terms.values():
            for deg, c in coef.coeffs.items():
                degree = max(degree, deg)
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    counters["exactalg.coef_max_bits"] = max(
        counters["exactalg.coef_max_bits"], bits)
    counters["exactalg.u_max_degree"] = max(
        counters["exactalg.u_max_degree"], degree)


HOOKS = {
    "exactalg.DPoly.mul": _dpoly_mul,
    "borel.TensorElement.mul": _tensor_mul,
    "twists.build_twist": _element_size,
}
