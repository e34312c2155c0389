"""Span tracing from outside the program.

The tracer replaces a function by a timing wrapper under the name its
caller looks it up by (``driver.evaluate``, ``pyramid.downsample``, ...)
and restores every name afterwards. The source stays unchanged. A name
that no longer exists is recorded as untraced instead of failing, so a
later refactor degrades the per-layer report rather than breaking it.

Spans stay in memory as tuples (name, start, end, parent, run, extra);
``extra`` is a per-call count computed from the arguments or the result.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

import numpy as np


def _window_px(args, kwargs, result):
    values = args[0]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    if mask is None:
        return int(values.shape[0] * values.shape[1])
    return int(np.count_nonzero(mask))


def _relabel_px(args, kwargs, result):
    labels, rs, cs = args[:3]
    return int(labels[rs, cs].size)


def _level_counts(args, kwargs, result):
    perm = args[4] if len(args) > 4 else kwargs["perm"]
    return (len(perm), result.evaluations, result.accepted)


def _bytes_out(args, kwargs, result):
    return len(result)


LATE_RATIO = 0.05

# (module, attribute, span name, extra). Names are those the caller uses:
# the job calls the package API, the driver and the pyramid their imports.
TARGETS = (
    ("mcvseg", "load_pnm", "pnmio.load", None),
    ("mcvseg", "run_mcv", "driver.run_mcv", None),
    ("mcvseg", "save_labels", "pnmio.encode", _bytes_out),
    ("mcvseg", "colorize", "pnmio.encode", None),
    ("mcvseg", "save_pnm", "pnmio.encode", _bytes_out),
    ("mcvseg.driver", "permutation", "driver.permutation", None),
    ("mcvseg.driver", "_run_level_inplace", "driver.level", _level_counts),
    ("mcvseg.driver", "evaluate", "mrf.evaluate", _window_px),
    ("mcvseg.driver", "pyramid_evaluate", "pyramid.evaluate", None),
    ("mcvseg.driver", "_relabel", "partition.relabel", _relabel_px),
    ("mcvseg.driver", "canonicalize", "partition.canonicalize", None),
    ("mcvseg.pyramid", "downsample", "pyramid.downsample", None),
    ("mcvseg.pyramid", "evaluate", "mrf.evaluate", _window_px),
)


class Tracer:
    """Records spans of the wrapped calls; use as a context manager."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.run = 0
        self.missing: list[str] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list = []

    def __enter__(self):
        for mod_name, attr, span, extra in TARGETS:
            mod = self.modules[mod_name]
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, self._wrapper(orig, span, extra, f"{mod_name}.{attr}"))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrapper(self, fn, span, extra, target):
        spans, stack, calls = self.spans, self._stack, self.calls
        calls[target] = 0

        def wrapped(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                calls[target] += 1
                x = extra(args, kwargs, result) if returned and extra else None
                spans[sid] = (span, start, end, parent, self.run, x)

        return wrapped

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: [name, start, end, parent, run, extra]."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "extra"],
                       "missing": self.missing, "spans": self.spans}, f)


def summarize(spans: list, first: int) -> dict:
    """Per-layer totals of the spans recorded from index ``first`` on.

    Self time of a span is its duration minus its children's durations;
    calls within one thread nest strictly, so children never overlap.
    ``late_s`` is the time in levels accepting under LATE_RATIO of their
    evaluations.
    """
    mine = [(sid, spans[sid]) for sid in range(first, len(spans))]
    child = defaultdict(float)
    for _, (_, start, end, parent, _, _) in mine:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    extra = defaultdict(int)
    late = visits = evaluations = accepted = 0.0
    for sid, (name, start, end, _, _, x) in mine:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child[sid]
        if name == "driver.level" and x is not None:
            v, e, a = x
            visits += v
            evaluations += e
            accepted += a
            if e == 0 or a / e < LATE_RATIO:
                late += dur
        elif x is not None:
            extra[name] += x
    return {"calls": dict(calls), "total": dict(total), "self": dict(self_time),
            "extra": dict(extra), "late_s": late, "visits": int(visits),
            "evaluations": int(evaluations), "accepted": int(accepted)}
