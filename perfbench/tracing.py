"""Spans around the calls into each layer of ``qmarkov``, from outside it.

A layer is a module of ``qmarkov``.  ``Tracer.install`` wraps every public
function of each layer, plus ``channels._commutant_of_family`` (which
``kidec`` calls across the layer boundary), both at the module attribute
and at every other ``qmarkov`` module's ``from .x import f`` binding.
Classes are wrapped at ``__init__`` (and ``PureVec.density``) but never
rebound, because ``isinstance`` checks use the imported names.

A span is ``[name, layer, start, end, parent, query, attrs]``.  Spans are
kept in memory and written out by ``Tracer.dump``.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("linalg", "entropy", "channels", "kidec", "markov", "protocol", "stateio", "cli")
CROSS_LAYER_PRIVATE = {"channels": ("_commutant_of_family",)}
CLASS_METHODS = {
    "linalg": (("DensityOp", "__init__"), ("PureVec", "__init__"), ("PureVec", "density"),
               ("IsometryOp", "__init__")),
    "channels": (("KrausChannel", "__init__"),),
}
ROOT = "bench.query"

NAME, LAYER, START, END, PARENT, QUERY, ATTRS = range(7)

# Per-layer metrics reported by the traced run, in report order.
FUNCTION_METRICS = (
    "linalg.DensityOp.calls", "linalg.DensityOp.self_s", "linalg.DensityOp.bytes",
    "linalg.PureVec.density.calls", "linalg.marginal.self_s",
    "linalg.partial_trace.self_s", "linalg.permute_op.self_s",
    "entropy.qcmi.self_s", "entropy.qmi.self_s", "entropy.vn_entropy.calls",
    "entropy.vn_entropy.self_s",
    "channels._commutant_of_family.self_s", "channels._commutant_of_family.peak_mb",
    "kidec.ki_decompose.calls", "kidec.ki_decompose.self_s",
    "kidec.ki_tripartite.self_s", "channels.channel_E.self_s",
    "channels.transfer_matrices.calls", "channels.transfer_matrices.self_s",
    "channels.ergodic_projector.self_s", "markov.markov_cost_algorithm.self_s",
    "markov.bounds_check.self_s", "markov.spectral_applied_frac",
    "stateio.loads.self_s", "stateio.loads.bytes", "channels.petz_channel.self_s",
    "channels.apply_channel.self_s", "markov.recovery_check.self_s",
    "protocol.simulate.self_s", "protocol.build_protocol_state.self_s",
    "protocol.average_markov_state.self_s", "protocol.sample_block_unitary.calls",
    "protocol.sample_block_unitary.self_s", "protocol.typical_mass.self_s",
    "entropy.trace_norm.calls", "entropy.trace_norm.self_s", "linalg.haar_unitary.self_s",
    "cli.main.self_s",
)
LAYER_METRICS = tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls"))
PER_LAYER_METRICS = LAYER_METRICS + FUNCTION_METRICS + ("bench.trace_overhead_frac",)


def metric_unit(name: str) -> str:
    return {"self_s": "s", "calls": "count", "bytes": "B", "peak_mb": "MB"}.get(
        name.rsplit(".", 1)[1], "frac")


def _attrs_hook(name: str):
    """Extra per-span measurement for a few names, or None."""
    if name == "linalg.DensityOp":
        def hook(args, kwargs, result):
            lay = args[1] if len(args) > 1 else kwargs["layout"]
            return {"bytes": 16 * lay.dim * lay.dim}
    elif name == "stateio.loads":
        def hook(args, kwargs, result):
            text = args[0] if args else kwargs["text"]
            return {"bytes": len(text.encode("utf-8"))}
    elif name == "markov.markov_cost_algorithm":
        def hook(args, kwargs, result):
            return {"applied": result is not None}
    else:
        return None
    return hook


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        hook = _attrs_hook(name)
        measure_peak = name == "channels._commutant_of_family"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.query, None]
            spans.append(span)
            stack.append(idx)
            if measure_peak:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if measure_peak:
                    span[ATTRS] = {"peak": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if hook is not None:
                span[ATTRS] = hook(args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, layer) for everything to wrap."""
        for layer in LAYERS:
            mod = importlib.import_module(f"qmarkov.{layer}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in CROSS_LAYER_PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, f"{layer}.{attr}", layer
            for cls_name, meth in CLASS_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                name = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                yield cls, meth, name, layer

    def install(self) -> None:
        if self._patches:
            return
        targets = list(self._targets())   # imports every layer first
        modules = [m for k, m in list(sys.modules.items())
                   if k == "qmarkov" or k.startswith("qmarkov.")]
        for owner, attr, name, layer in targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, layer, original)
            owners = [owner] if inspect.isclass(owner) else [
                m for m in modules if vars(m).get(attr) is original]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- queries
    def begin_query(self, qid) -> int:
        """Open the root span of query ``qid``; returns its index."""
        self.query = qid
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, "bench", time.perf_counter(), 0.0, None, qid, None])
        return self._stack[-1]

    def end_query(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()
        self.query = None

    def dump(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "query", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **dict(zip(keys, span))}) + "\n")


# ----------------------------------------------------------------- analysis

def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    out = []
    for idx, span in enumerate(spans):
        s, e = span[START], span[END]
        kids = [(max(c[START], s), min(c[END], e)) for c in children.get(idx, ())]
        out.append((e - s) - covered([k for k in kids if k[1] > k[0]]))
    return out


def query_metrics(spans) -> dict:
    """Per-layer metrics of one query.

    ``spans`` are the spans of one query, root first, with parents as
    indices into the list.  ``query_s`` is the root span's duration and
    ``self_sum_s`` the sum of all self times, which equals it when every
    child lies inside its parent.
    """
    selfs = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for span, st in zip(spans, selfs):
        name, layer = span[NAME], span[LAYER]
        if name == ROOT:
            m["query_s"] = span[END] - span[START]
            continue
        for key in (layer, name):
            m[f"{key}.self_s"] += st
            m[f"{key}.calls"] += 1
        attrs = span[ATTRS] or {}
        if "bytes" in attrs:
            m[f"{name}.bytes"] += attrs["bytes"]
        if "peak" in attrs:
            m[f"{name}.peak_mb"] = max(m[f"{name}.peak_mb"], attrs["peak"] / 2**20)
        if attrs.get("applied"):
            m["markov.markov_cost_algorithm.applied"] += 1
    m["self_sum_s"] = sum(selfs)
    return dict(m)


def query_spans(spans, start: int) -> list[list]:
    """The spans from index ``start`` on, with parent indices rebased to it."""
    return [span[:PARENT] + [None if span[PARENT] is None else span[PARENT] - start]
            + span[PARENT + 1:] for span in spans[start:]]


def layer_shares(per_query: list[dict]) -> dict:
    """Each layer's self time as a share of the traced query time, pooled."""
    total = sum(q["query_s"] for q in per_query)
    return {layer: sum(q.get(f"{layer}.self_s", 0.0) for q in per_query) / total
            for layer in LAYERS}


def summarize(per_query: list[dict]) -> dict:
    """Median over queries of each per-layer metric (0 where never seen),
    except ``markov.spectral_applied_frac``, which pools every query:
    non-None returns of ``markov_cost_algorithm`` over its calls."""
    out = {}
    for name in LAYER_METRICS + FUNCTION_METRICS:
        if name == "markov.spectral_applied_frac":
            calls = sum(q.get("markov.markov_cost_algorithm.calls", 0) for q in per_query)
            applied = sum(q.get("markov.markov_cost_algorithm.applied", 0) for q in per_query)
            out[name] = applied / calls if calls else 0.0
        else:
            out[name] = statistics.median(q.get(name, 0.0) for q in per_query)
    return out
