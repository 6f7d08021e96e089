"""In-memory span recorder for the traced run.

``Tracer.install`` replaces a public function where the calling module bound
it (for example ``countfam.gfpd.m_wright``, which ``_mixture_nodes`` looks up
at call time) with a wrapper that records a span; ``Tracer.restore`` puts
the originals back.  Nothing inside countfam is edited and none of its
caches is touched.

A span is ``[name, start, end, parent, run, error, attrs]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``run`` the benchmark
operation it belongs to.  High-frequency leaf functions (called thousands of
times per operation) are aggregated per parent span into
``[name, parent, nested, run, calls, busy_s, errors]`` instead, which keeps the
trace small without changing any parent's self time.

``overhead_s`` is measured inside the wrappers: the time from entering a
wrapper to calling the function plus the time from its return to leaving
the wrapper.  The extra Python call per wrapped call is not included.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.leaves = {}
        self._stack = []
        self._patches = []
        self.run = None
        self.overhead_s = 0.0  # time spent in the wrappers' own bookkeeping
        self._leaf_depth = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, leaf, classify, observe):
        spans, leaves, stack = self.spans, self.leaves, self._stack

        if leaf:
            def wrapper(*args, **kwargs):
                # a leaf inside another leaf (eta under wpd_pmf_recursive) is
                # kept apart so its time is not taken twice from the parent
                key = (name, stack[-1] if stack else -1, self._leaf_depth > 0)
                self._leaf_depth += 1
                start = _now()
                failed = 0
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    failed = 1
                    raise
                finally:
                    end = _now()
                    self._leaf_depth -= 1
                    rec = leaves.get(key)
                    if rec is None:
                        leaves[key] = [1, end - start, failed, self.run]
                    else:
                        rec[0] += 1
                        rec[1] += end - start
                        rec[2] += failed
                    self.overhead_s += _now() - end
        else:
            def wrapper(*args, **kwargs):
                entry = _now()
                label = classify(args, kwargs) if classify else name
                span = [label, None, None, stack[-1] if stack else -1, self.run, None, None]
                stack.append(len(spans))
                spans.append(span)
                span[1] = _now()
                self.overhead_s += span[1] - entry
                try:
                    out = fn(*args, **kwargs)
                    span[2] = _now()
                    if observe:
                        span[6] = observe(out, args, kwargs)
                    return out
                except Exception as exc:
                    span[5] = type(exc).__name__
                    raise
                finally:
                    if span[2] is None:
                        span[2] = _now()
                    stack.pop()
                    self.overhead_s += _now() - span[2]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, module, attr, name, leaf=False, classify=None, observe=None):
        """Wrap ``module.attr``; ``classify(args, kwargs)`` may rename the span
        per call, ``observe(result, args, kwargs)`` returns attributes to keep."""
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self._wrap(orig, name, leaf, classify, observe))

    def restore(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    @contextmanager
    def op(self, run, name):
        """Root span of one benchmark operation."""
        self.run = run
        idx = len(self.spans)
        span = [name, _now(), None, -1, run, None, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span[2] = _now()
            self.run = None

    # -- summaries ---------------------------------------------------------

    def leaf_rows(self):
        return [[name, parent, nested, rec[3], rec[0], rec[1], rec[2]]
                for (name, parent, nested), rec in self.leaves.items()]

    def self_times(self):
        """Span duration minus the time covered by its child spans and leaves."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for name, parent, nested, _run, _calls, busy, _err in self.leaf_rows():
            if parent >= 0 and not nested:
                child[parent] += busy
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def ancestors(self, idx):
        while idx >= 0:
            yield idx
            idx = self.spans[idx][3]

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "span_fields": ["name", "start", "end", "parent", "run", "error", "attrs"],
                       "spans": self.spans,
                       "leaf_fields": ["name", "parent", "nested", "run", "calls", "busy_s",
                                       "errors"],
                       "leaves": self.leaf_rows()}, fh)
