"""Span tracing of ``xattn`` from outside the package.

``Tracer.install`` rebinds each traced public function at every ``xattn``
module that holds it (``xattn.attention.softmax`` and the ``softmax`` that
``xattn.attention`` imported are one binding site each), so calls between
modules are recorded as well as the benchmark's own calls. Every call
becomes a span: name, start, end, parent span and trace id. Spans are kept
in memory as columns and reduced to per-layer numbers once the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

# (module, attribute) of each traced callable; "Class.method" wraps the
# method on its class. The span is named "<module tail>.<attribute>".
TARGETS: tuple[tuple[str, str], ...] = (
    ("xattn.dataio", "load_dataset"),
    ("xattn.dataio", "load_feature_map"),
    ("xattn.dataio", "Dataset.tag_vector"),
    ("xattn.model", "extract_features"),
    ("xattn.model", "embed_shop"),
    ("xattn.model", "embed_shop_simple"),
    ("xattn.model", "embed_user_simple"),
    ("xattn.model", "embed_user_context"),
    ("xattn.model", "backward_triple"),
    ("xattn.model", "params_fingerprint"),
    ("xattn.model", "load_checkpoint"),
    ("xattn.attention", "FeatureMap.__post_init__"),
    ("xattn.attention", "tag_attend"),
    ("xattn.attention", "context_attend"),
    ("xattn.attention", "tag_attend_backward"),
    ("xattn.attention", "context_attend_backward"),
    ("xattn.numeric", "softmax"),
    ("xattn.numeric", "l2_normalize"),
    ("xattn.numeric", "l2_normalize_backward"),
    ("xattn.metric", "distance"),
    ("xattn.metric", "triplet_loss"),
    ("xattn.metric", "triplet_loss_backward"),
    ("xattn.training", "train_stage"),
    ("xattn.training", "sample_triples"),
    ("xattn.training", "sgd_step"),
    ("xattn.retrieval", "build_index"),
    ("xattn.retrieval", "initial_search"),
    ("xattn.retrieval", "rerank"),
    ("xattn.retrieval", "search"),
    ("xattn.retrieval", "save_index"),
    ("xattn.retrieval", "load_index"),
)

# Each call of these starts a new trace id, shared by the spans under it:
# one id per query and one per training triple.
REQUEST_SPANS = frozenset({"retrieval.search", "model.backward_triple"})

HINGE_ACTIVE = "metric.triplet_loss.active"


def _stage_span_name(args: tuple, kwargs: dict) -> str:
    """``train_stage`` spans are named per stage: ``training.stage.<stage>``."""
    stage = args[0] if args else kwargs["stage"]
    return f"training.stage.{stage.strip().lower()}"


class Tracer:
    """Records spans of traced ``xattn`` calls between install and uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self.counters: dict[str, int] = {}
        self.active = True
        self._stack: list[int] = []
        self._traces = 0
        self._restore: list[tuple[object, str, object]] = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run calls untraced, e.g. a warm-up that must not be counted."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, fn: Callable, span: str) -> Callable:
        code = self.code(span)
        request = span in REQUEST_SPANS
        dynamic = _stage_span_name if span == "training.train_stage" else None
        hinge = span == "metric.triplet_loss"
        stack, perf = self._stack, time.perf_counter
        names, start, end, parent, trace = self.name, self.start, self.end, self.parent, self.trace

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(start)
            up = stack[-1] if stack else -1
            if request or up < 0:
                self._traces += 1
                trace.append(self._traces)
            else:
                trace.append(trace[up])
            names.append(self.code(dynamic(args, kwargs)) if dynamic else code)
            parent.append(up)
            end.append(math.nan)
            stack.append(index)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf()
                stack.pop()
            if hinge and result > 0.0:
                self.counters[HINGE_ACTIVE] = self.counters.get(HINGE_ACTIVE, 0) + 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every target at every loaded ``xattn`` module holding it.

        A target the package no longer has is skipped, and its metrics read 0.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "xattn" or n.startswith("xattn.")]
        for module_name, attr in TARGETS:
            span = f"{module_name.rsplit('.', 1)[1]}.{attr.replace('.__post_init__', '')}"
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if isinstance(cls, type) else None
                if original is None:
                    continue
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; the covered part is the union of their
    intervals clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(start))]
    for up, intervals in children.items():
        lo, hi = start[up], end[up]
        covered = 0.0
        reach = lo
        for s, e in sorted(intervals):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[up] -= covered
    return out


class SpanStats:
    """Per-name call counts, self times and durations of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        self.counters = dict(tracer.counters)
        n = len(tracer.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.durations: list[list[float]] = [[] for _ in range(n)]
        for i, code in enumerate(tracer.name):
            self.calls[code] += 1
            self.self_s[code] += selfs[i]
            self.durations[code].append(tracer.end[i] - tracer.start[i])
        self._codes = {name: code for code, name in enumerate(tracer.names)}
        self._name, self._parent = tracer.name, tracer.parent

    def count(self, name: str) -> int:
        code = self._codes.get(name)
        return 0 if code is None else self.calls[code]

    def self_ms(self, name: str) -> float:
        code = self._codes.get(name)
        return 0.0 if code is None else 1e3 * self.self_s[code]

    def durations_of(self, name: str) -> list[float]:
        code = self._codes.get(name)
        return [] if code is None else self.durations[code]
