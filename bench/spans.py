"""Per-layer spans and counters for fglab, recorded from outside the package.

`Tracer.install()` wraps the public entry points of each layer (listed in HOOKS) so
that every call records a span (name, start, end, parent) and, where the
layer's arguments or result show it, a count of the work done.  Nothing under
src/ changes: a function is replaced in every fglab module that binds it (a
module that did ``from .adams import psi_tensor_apoly`` holds its own
reference), and a method is replaced on its class.  `Tracer.uninstall()` puts
every original back.

Counts use public values only (``.terms``, ``len(RelationSet)``,
``dmonomials_upto``, the kernel list); private state such as the reducer's
echelon is never read.

Run as a script, ``python3 bench/spans.py <fglab CLI arguments>`` runs the
CLI once with tracing on.  stdout is the CLI's own output, unchanged; the
trace goes to stderr as one JSON line starting with TRACE_MARK.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_MARK = "@@fglab-bench-trace "

# Table ids of golden_data.TABLES; each GoldenTable.diff() call is one span.
GOLDEN_TABLES = (
    "inverse_series", "twist_images", "cpn_box", "miscenko", "chern_classes",
    "chern_numbers", "chern_reduced", "chern_nullspace", "todd", "psi_powers",
    "psi_beta", "psi_beta_mod2", "nki_table", "relations", "psi_dk_base",
    "psi_dk_thom", "spherical", "dilation",
)


def _count_mul(add, args, result):
    left, right = args
    add("series.mul_pairs", len(left.terms) * len(right.terms))
    add("series.mul_terms_out", len(result.terms))


def _count_relations(add, args, result):
    add("adams.relations_n", len(result))


def _count_reduce(add, args, result):
    add("adams.reduce_out_terms", len(result.terms))


def _count_gf2_kernel(add, args, result):
    from fglab.adams import dmonomials_upto

    add("adams.gf2_columns", len(dmonomials_upto(args[0] // 2, include_const=True)))
    add("adams.gf2_kernel_dim", len(result[0]))


def _golden_span(args):
    return f"golden_data.{args[0].table_id}"


# (module, attribute path, span name or a function of the call's arguments,
#  counter or None).  Every span also counts its calls.
HOOKS = (
    ("fglab.series", "MultiSeries.__mul__", "series.mul", _count_mul),
    ("fglab.series", "MultiSeries.substitute", "series.substitute", None),
    ("fglab.series", "MultiSeries.comp_inverse", "series.comp_inverse", None),
    ("fglab.series", "MultiSeries.reciprocal", "series.reciprocal", None),
    ("fglab.fgl", "fgl_twist", "fgl.twist", None),
    ("fglab.adams", "gen_2structure_relations", "adams.relations", _count_relations),
    ("fglab.adams", "DReducer.__init__", "adams.reducer_build", None),
    ("fglab.adams", "DReducer.reduce", "adams.reduce", _count_reduce),
    ("fglab.adams", "psi_tensor_apoly", "adams.psi_tensor", None),
    ("fglab.adams", "spherical_search", "adams.gf2_kernel", _count_gf2_kernel),
    ("fglab.adams", "in_gf2_span", "adams.gf2_span", None),
    ("fglab.cannibal", "theta3_direct", "cannibal.theta3", None),
    ("fglab.cannibal", "thom_psi_dk", "cannibal.thom_psi", None),
    ("fglab.chern", "rref", "chern.rref", None),
    ("fglab.mahler", "dilate", "mahler.dilate", None),
    ("fglab.golden_data", "GoldenTable.diff", _golden_span, None),
)

# Spans that have wrapped callees also report their self time.
SELF_TIMED = (
    "series.substitute", "series.comp_inverse", "series.reciprocal",
    "fgl.twist", "cannibal.theta3", "cannibal.thom_psi",
)
SPAN_NAMES = tuple(h[2] for h in HOOKS if isinstance(h[2], str)) + tuple(
    f"golden_data.{t}" for t in GOLDEN_TABLES)
COUNTERS = (
    "series.mul_pairs", "series.mul_terms_out", "adams.relations_n",
    "adams.reduce_out_terms", "adams.gf2_columns", "adams.gf2_kernel_dim",
)
CALL_COUNTED = ("series.mul", "adams.reduce", "adams.psi_tensor", "chern.rref")

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    tuple((f"{s}_s", "s") for s in SPAN_NAMES)
    + tuple((f"{s}_self_s", "s") for s in SELF_TIMED)
    + tuple((f"{s}_calls", "count") for s in CALL_COUNTED)
    + tuple((c, "count") for c in COUNTERS)
    + (("series.mul_yield", "ratio"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.coverage", "ratio"), ("trace.spans", "count"))
)


class Tracer:
    """Span tree and counters of one traced run.

    A span is [name, start, end, parent index]; parent is -1 for a root.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []
        self._patched = []  # (owner, attribute, original), in patch order

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, fn, span, counter):
        spans, stack, add = self.spans, self._open, self.add
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args)
            i = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if counter is not None:
                counter(add, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every hook; a function is replaced wherever an fglab module binds it."""
        for modname, path, span, counter in HOOKS:
            module = importlib.import_module(modname)
            if "." in path:
                clsname, attr = path.split(".")
                owners = [getattr(module, clsname)]
                original = owners[0].__dict__[attr]
            else:
                attr = path
                original = getattr(module, attr)
                owners = [m for name, m in sorted(sys.modules.items())
                          if (name == "fglab" or name.startswith("fglab."))
                          and m.__dict__.get(attr) is original]
            wrapped = self._wrap(original, span, counter)
            for owner in owners:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a name
        nested in itself is not counted twice.  Self time is a span's
        duration minus its children's durations.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total_s"] += end - start
        return out

    def root_s(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def layer_metrics(trace, traced, untraced_wall_s):
    """Every LAYER_METRICS value from one traced run; layers not reached read 0.

    ``traced`` is the traced operation as timed by run.py: its wall_s and
    wall_scale put span seconds on the same reference-speed scale as the
    end-to-end metrics, and ``untraced_wall_s`` is the untraced median on it.
    """
    summary, counts, scale = trace["summary"], trace["counts"], traced.wall_scale
    values = {}
    for s in SPAN_NAMES:
        values[f"{s}_s"] = summary.get(s, {}).get("total_s", 0.0) * scale
    for s in SELF_TIMED:
        values[f"{s}_self_s"] = summary.get(s, {}).get("self_s", 0.0) * scale
    for s in CALL_COUNTED:
        values[f"{s}_calls"] = summary.get(s, {}).get("calls", 0)
    for c in COUNTERS:
        values[c] = counts.get(c, 0)
    pairs = counts.get("series.mul_pairs", 0)
    values["series.mul_yield"] = counts.get("series.mul_terms_out", 0) / pairs if pairs else 0.0
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced_wall_s
    values["trace.coverage"] = trace["root_s"] / trace["main_s"]
    values["trace.spans"] = sum(row["calls"] for row in summary.values())
    units = dict(LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in LAYER_METRICS}


def run_traced(argv):
    """Run the fglab CLI in this process with tracing on; return (exit code, trace)."""
    sys.path.insert(0, str(ROOT / "src"))
    from fglab import cli

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        code = cli.main(list(argv))
        main_s = time.perf_counter() - start
    sys.stdout.flush()
    return code, {"spans": tracer.spans, "counts": tracer.counts,
                  "summary": tracer.summary(), "root_s": tracer.root_s(), "main_s": main_s}


if __name__ == "__main__":
    exit_code, trace = run_traced(sys.argv[1:])
    sys.stderr.write(TRACE_MARK + json.dumps(trace) + "\n")
    sys.exit(exit_code)
