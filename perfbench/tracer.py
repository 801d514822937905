"""Per-layer timings for one report, recorded from outside the library.

The tracer wraps the public functions of every ncgraded module, plus
`FreeElement.__mul__` and the `RowSpan` methods, and rebinds each wrapper
under every name that refers to the original in any ncgraded module.
`resolution` and `duality` import `kernel_basis`, `normal_form` and `rref`
by name, so patching only the defining module would miss their calls.

Spans are aggregated as they close rather than stored one by one: per span
its calls, inclusive time and self time (inclusive time minus the time of
the spans it called), and per layer the time of its outermost spans.  The
report itself (`cli.run`) is the root and is not a span, so the time it
spends outside every span is the unattributed share.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("presentation", "freealg", "groebner", "hilbert", "resolution",
          "exactla", "duality", "cli")

# Word and scalar helpers called once per word or term (millions of times a
# report); their cost stays in the self time of the span that calls them.
LEAF_HELPERS = {
    "freealg": {"word_degree", "deglex_key", "compare_words"},
    "groebner": {"find_subword", "contains_subword"},
    "cli": {"run"},   # the report itself: the root, not a span
}

# (layer, class name, method name, span name)
METHODS = (
    ("freealg", "FreeElement", "__mul__", "mul"),
    ("exactla", "RowSpan", "add", "rowspan_add"),
    ("exactla", "RowSpan", "reduce", "rowspan_reduce"),
    ("exactla", "RowSpan", "contains", "rowspan_contains"),
    ("exactla", "RowSpan", "basis", "rowspan_basis"),
)

# Metrics that are counts of work or ratios of counts: the same code on the
# same input must give them exactly, so the benchmark checks that they repeat.
COUNTERS = (
    "freealg.mul.calls",
    "groebner.normal_form.calls",
    "groebner.normal_form.reuse",
    "groebner.complete.calls",
    "groebner.pairs_processed",
    "resolution.resolve_cyclic.calls",
    "exactla.rowspan_add.calls",
    "exactla.rowspan_add.useful",
    "exactla.rref.calls",
    "exactla.rref.cells",
    "cli.scan.points",
)


class Tracer:
    """Wraps the library's layer boundaries and accumulates span times."""

    def __init__(self) -> None:
        self.spans: dict = {}          # span -> [calls, inclusive s, self s]
        self.layer_s = Counter()       # layer -> time in its outermost spans
        self.layer_self_s = Counter()  # layer -> self time of its spans
        self.root_s = 0.0              # time inside spans called by the root
        self.counts = Counter()
        self._nf_seen: dict = {}       # id(rs) -> (rs, set of input keys)
        self._stack: list = []         # child time of each open span
        self._depth = Counter()        # open spans per span name and layer

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"ncgraded.{layer}"] for layer in LAYERS}
        holders = [m for n, m in sys.modules.items()
                   if n == "ncgraded" or n.startswith("ncgraded.")]
        for layer, mod in modules.items():
            skip = LEAF_HELPERS.get(layer, set())
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapper)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self._wrap(layer, span, getattr(cls, meth)))

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        rec = self.spans.setdefault(key, [0, 0.0, 0.0])
        before, after = _HOOKS.get(key, (None, None))
        stack, depth = self._stack, self._depth
        layer_s, layer_self_s = self.layer_s, self.layer_self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            stack.append(0.0)
            depth[key] += 1
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                depth[key] -= 1
                depth[layer] -= 1
                rec[0] += 1
                rec[2] += dur - child
                layer_self_s[layer] += dur - child
                if not depth[key]:
                    rec[1] += dur
                if not depth[layer]:
                    layer_s[layer] += dur
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results -----------------------------------------------------------

    def metrics(self, report: dict, report_s: float) -> dict:
        """Per-layer metrics of one traced report (all but
        `trace.overhead_frac`, which needs untraced reports too)."""
        sp = self.spans

        def calls(k):
            return sp.get(k, (0, 0.0, 0.0))[0]

        def incl(k):
            return sp.get(k, (0, 0.0, 0.0))[1]

        def self_s(k):
            return sp.get(k, (0, 0.0, 0.0))[2]

        def ratio(n, d):
            return n / d if d else 0.0

        c = self.counts
        nf_calls = calls("groebner.normal_form")
        add_calls = calls("exactla.rowspan_add")
        scan = report.get("normal_elements", {}).get("degrees", {})
        out = {
            "presentation.s": float(self.layer_s["presentation"]),
            "freealg.mul.calls": calls("freealg.mul"),
            "freealg.mul.s": incl("freealg.mul"),
            "groebner.normal_form.s": incl("groebner.normal_form"),
            "groebner.normal_form.calls": nf_calls,
            "groebner.normal_form.reuse": ratio(c["nf_repeat"], nf_calls),
            "groebner.complete.s": incl("groebner.complete"),
            "groebner.complete.calls": calls("groebner.complete"),
            "groebner.pairs_processed": c["pairs_processed"],
            "groebner.normal_words.s": incl("groebner.normal_words"),
            "hilbert.s": float(self.layer_s["hilbert"]),
            "resolution.self_s": float(self.layer_self_s["resolution"]),
            "resolution.s": float(self.layer_s["resolution"]),
            "resolution.resolve_cyclic.calls": calls("resolution.resolve_cyclic"),
            "exactla.rowspan_add.s": incl("exactla.rowspan_add"),
            "exactla.rowspan_add.calls": add_calls,
            "exactla.rowspan_add.useful": ratio(c["add_useful"], add_calls),
            "exactla.kernel_basis.self_s": self_s("exactla.kernel_basis"),
            "exactla.rref.s": incl("exactla.rref"),
            "exactla.rref.calls": calls("exactla.rref"),
            "exactla.rref.cells": c["rref_cells"],
            "exactla.solve_columns.s": incl("exactla.solve_columns"),
            "duality.ext.self_s": (self_s("duality.ext_k_A")
                                   + self_s("duality.hochschild_ext")),
            "duality.bimodule.s": incl("duality.diagonal_bimodule_resolution"),
            "duality.rigidity.s": incl("duality.rigidity_check"),
            "cli.scan.s": incl("cli.normal_element_scan"),
            "cli.scan.points": sum(d["tested"] for d in scan.values()),
            "cli.probe.s": incl("cli.confluence_probe"),
            "trace.unattributed_frac": (report_s - self.root_s) / report_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self.layer_self_s[layer])
        return out


def _nf_before(tr: Tracer, args) -> None:
    rs, elem = args[0], args[1]
    _, seen = tr._nf_seen.setdefault(id(rs), (rs, set()))
    key = frozenset(elem.terms.items())
    if key in seen:
        tr.counts["nf_repeat"] += 1
    else:
        seen.add(key)


def _rref_before(tr: Tracer, args) -> None:
    m = args[0]
    tr.counts["rref_cells"] += m.rows * m.cols


def _add_after(tr: Tracer, args, result) -> None:
    tr.counts["add_useful"] += bool(result)


def _complete_after(tr: Tracer, args, result) -> None:
    tr.counts["pairs_processed"] += result.stats.get("pairs_processed", 0)


_HOOKS = {
    "groebner.normal_form": (_nf_before, None),
    "exactla.rref": (_rref_before, None),
    "exactla.rowspan_add": (None, _add_after),
    "groebner.complete": (None, _complete_after),
}
