"""Spans and counters recorded around calls into hklab, from outside it.

``Tracer.install`` replaces each traced function or method by a wrapper in
every ``hklab`` namespace that holds it (``hklab.llv.frame_calculus`` and the
copy ``hklab.verifier`` imported alike), so calls made inside the package are
seen too.  ``Tracer.uninstall`` puts every original back.  No file of the
package is changed.

A span records its name, start, end and parent span.  Spans are kept in
flat arrays in memory and written out once, by ``write``, when the run ends.
Functions called too often for a span per call get a counter only.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

MARK = "__perfbench_wrapped__"

# Which end-to-end metric each layer should move, and on which workload:
#
# * verbitsky, modp, quadforms (the quotient build): nearly all of wall_s on
#   build_wide, under a tenth of it on grid, nothing on ingest;
# * llv (sl2 completion, linear duals, frame calculus): wall_s on grid and
#   most of validate on ingest, nothing on build_wide.  On ingest,
#   llv.linear_dual_table.calls per module shows the table recomputed by
#   validate, module_frame_calculus and check_odd;
# * filtrations: wall_s and slowest_op_s on grid, nothing elsewhere;
# * linalg (exact elimination and products): wall_s and peak_rss_mb on grid
#   and ingest, about nothing on build_wide;
# * module_io (schema parse, validation): ingest only;
# * verifier: the engine's own phase split of run_instance, on grid.

# (layer, module, attribute): one span per call.
SPANS = (
    ("verbitsky", "hklab.verbitsky", "build_verbitsky"),
    ("verbitsky", "hklab.verbitsky", "GradedAlgebra.dump_canonical"),
    ("modp", "hklab._modp", "ModpReducer.insert"),
    ("quadforms", "hklab.quadforms", "sample_isotropic"),
    ("llv", "hklab.llv", "sl2_complete"),
    ("llv", "hklab.llv", "linear_dual_table"),
    ("llv", "hklab.llv", "frame_calculus"),
    ("llv", "hklab.llv", "bigrading"),
    ("llv", "hklab.llv", "verify_derivation"),
    ("llv", "hklab.llv", "commutator_op"),
    ("filtrations", "hklab.filtrations", "graded_weight_filtration"),
    ("filtrations", "hklab.filtrations", "weight_filtration"),
    ("filtrations", "hklab.filtrations", "perverse_filtration"),
    ("filtrations", "hklab.filtrations", "crosscheck_perverse_weight"),
    ("filtrations", "hklab.filtrations", "conjugate_hodge_check"),
    ("filtrations", "hklab.filtrations", "compare_gr_dims"),
    ("linalg", "hklab.linalg", "rref"),
    ("linalg", "hklab.linalg", "kernel_basis"),
    ("linalg", "hklab.linalg", "invert"),
    ("module_io", "hklab.module_io", "load_module"),
    ("module_io", "hklab.module_io", "validate"),
)

# (layer, module, attribute): calls counted, no span.
COUNTED = (
    ("linalg", "hklab.linalg", "Subspace.contains"),
    ("linalg", "hklab.linalg", "Mat.__mul__"),
    ("modp", "hklab._modp", "ModpReducer.__init__"),
)

LAYERS = ("verifier", "verbitsky", "modp", "quadforms", "llv",
          "filtrations", "linalg", "module_io")

# Spans the benchmark opens itself around each op belong to this layer.
OP_LAYER = "verifier"


def _insert_hook(counts, args, result):
    counts["modp.insert.accepted"] += bool(result)


def _mul_hook(counts, args, result):
    a, b = args
    if result is not NotImplemented:
        counts["linalg.mul.mults"] += a.rows * a.cols * b.cols


def _load_hook(counts, args, result):
    src = args[0]
    if isinstance(src, str):
        counts["module_io.load_module.bytes"] += len(src.encode("utf-8"))


HOOKS = {
    "ModpReducer.insert": _insert_hook,
    "Mat.__mul__": _mul_hook,
    "load_module": _load_hook,
}


def metric_name(layer: str, attr: str) -> str:
    """Metric stem of a traced callable, e.g. ``linalg.rref``."""
    short = {"GradedAlgebra.dump_canonical": "dump_canonical",
             "ModpReducer.insert": "insert",
             "ModpReducer.__init__": "reducers",
             "Mat.__mul__": "mul"}.get(attr, attr)
    return f"{layer}.{short}"


def _hklab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hklab" or name.startswith("hklab."))]


def _resolve(module: str, attr: str):
    """(owner, key, original) for a module function or a class method."""
    owner = sys.modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


class Tracer:
    """Installs wrappers, records spans and counters, and summarises them."""

    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")   # 1 if no span of the same name is open
        self._stack: list = []
        self._open = {}                # name id -> number of open spans
        self.counts: dict = {}
        self.reported: list = []       # names of the wrapped callables
        self._patched: list = []       # (namespace, key, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self._open[len(self.names) - 1] = 0
        return len(self.names) - 1

    def _begin(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _end(self, idx: int, nid: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        nid = self.names.index(name) if name in self.names \
            else self._name_id(name, OP_LAYER)
        idx = self._begin(nid)
        try:
            yield
        finally:
            self._end(idx, nid)

    def _span_wrapper(self, fn, nid: int, hook):
        begin, end, counts = self._begin, self._end, self.counts

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx, nid)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key: str, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, module: str, attr: str, wrapper) -> None:
        owner, key, original = _resolve(module, attr)
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", key)
        if isinstance(owner, type):
            targets = [(owner, key)]
        else:
            targets = [(m, k) for m in _hklab_modules()
                       for k, v in vars(m).items() if v is original]
        for ns, k in targets:
            self._patched.append((ns, k, original))
            setattr(ns, k, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for key in ("modp.insert.accepted", "linalg.mul.mults",
                    "module_io.load_module.bytes"):
            self.counts[key] = 0
        for layer, module, attr in SPANS:
            nid = self._name_id(metric_name(layer, attr), layer)
            self.reported.append(self.names[nid])
            _owner, _key, original = _resolve(module, attr)
            self._patch(module, attr,
                        self._span_wrapper(original, nid, HOOKS.get(attr)))
        for layer, module, attr in COUNTED:
            key = metric_name(layer, attr) + ".calls"
            self.counts[key] = 0
            _owner, _key, original = _resolve(module, attr)
            self._patch(module, attr,
                        self._count_wrapper(original, key, HOOKS.get(attr)))

    def uninstall(self) -> None:
        while self._patched:
            ns, key, original = self._patched.pop()
            setattr(ns, key, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, busy seconds and self seconds, and per-layer self
        seconds.  Busy time counts only spans with no open span of the same
        name around them, so recursion is not counted twice; self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[nid] += 1
            if self.span_outer[i]:
                busy[nid] += dur
            own[nid] += dur - child[i]
        out = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layers[self.layer_of[nid]] += own[nid]
            if name in self.reported:
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.s"] = busy[nid]
                out[f"{name}.self_s"] = own[nid]
        for layer, s in layers.items():
            out[f"layer.{layer}.self_s"] = s
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent] with times in
        seconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        spans = [[self.span_name[i], round(self.span_start[i] - t0, 9),
                  round(self.span_end[i] - t0, 9), self.span_parent[i]]
                 for i in range(len(self.span_name))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh,
                      separators=(",", ":"))
            fh.write("\n")


def leftover_wrappers() -> list:
    """Names in hklab namespaces and classes that still hold a wrapper."""
    found = []
    for mod in _hklab_modules():
        for key, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k2, v2 in vars(value).items():
                    if getattr(v2, MARK, False):
                        found.append(f"{mod.__name__}.{key}.{k2}")
    return found
