"""Outside-in tracing of the `gat` layers.

`Tracer.installed()` wraps the public functions of each layer by rebinding
their names in every module that holds them, so a call is caught however it
is made: `normalize_term` is rebound in both `gat.equality` and
`gat.canonicity`, and `eq_sort`, which the checker imports inside a
function, is caught through `gat.equality`.  Nothing in `src/` changes.
`gat.syntax` is not wrapped: it is called too often to time from outside
without distorting the timings, so its cost lands in its caller's self time.

A span records its name, start, end, parent span and op id.  Spans stay in
memory and are written out at the end.  A span's self time is its duration
minus the durations of its child spans; within one thread children never
overlap, so self times of an op add up to the op's root span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from gat import equality


def _parsed(counts, args, kwargs, out):
    counts["surface.parse_chars"] += len(args[0] if args else kwargs["text"])


def _eq_verdict(counts, args, kwargs, out):
    if isinstance(out, equality.Equal):
        counts["equality.equal"] += 1
        counts["equality.trace_steps"] += len(out.trace.steps)


def _normalized(counts, args, kwargs, out):
    counts["equality.trace_steps"] += len(out[1].steps)


def _replayed(counts, args, kwargs, out):
    trace = args[2] if len(args) > 2 else kwargs["trace"]
    counts["equality.replay_steps"] += len(trace.steps)


def _generated(counts, args, kwargs, out):
    counts["canonicity.terms"] += len(out)


# (span name, module, function, work counter)
TARGETS = (
    ("surface.parse", "gat.surface", "parse_source", _parsed),
    ("surface.parse", "gat.surface", "parse_term", _parsed),
    ("surface.parse", "gat.surface", "parse_sort", _parsed),
    ("surface.parse", "gat.surface", "parse_telescope", _parsed),
    ("checker.check_theory", "gat.checker", "check_theory", None),
    ("checker.check_theory", "gat.checker", "theory_extends", None),
    ("checker.check_telescope", "gat.checker", "check_telescope", None),
    ("checker.check_sort", "gat.checker", "check_sort", None),
    ("checker.check_term", "gat.checker", "check_term", None),
    ("checker.check_subst", "gat.checker", "check_subst", None),
    ("checker.infer_term", "gat.checker", "infer_term", None),
    ("equality.eq_sort", "gat.equality", "eq_sort", _eq_verdict),
    ("equality.eq_term", "gat.equality", "eq_term", _eq_verdict),
    ("equality.normalize_term", "gat.equality", "normalize_term", _normalized),
    ("equality.replay_trace", "gat.equality", "replay_trace", _replayed),
    ("canonicity.generate", "gat.canonicity", "generate_closed_obs_terms",
     _generated),
    ("canonicity.evaluate_closed", "gat.canonicity", "evaluate_closed", None),
    # the benchmark builds theories the way gat.library does, minus its memo
    ("library.build", "workloads", "build_theory", None),
)

OP_SPAN = "bench.op"

# per-layer metrics: name -> unit
PER_LAYER = {
    "surface.parse_s": "s",
    "surface.parse_calls": "count",
    "surface.chars_per_s": "1/s",
    "checker.check_theory_s": "s",
    "checker.check_telescope_s": "s",
    "checker.check_sort_s": "s",
    "checker.check_term_s": "s",
    "checker.check_subst_s": "s",
    "checker.infer_term_s": "s",
    "checker.check_term_calls": "count",
    "checker.infer_term_calls": "count",
    "equality.eq_sort_s": "s",
    "equality.eq_sort_calls": "count",
    "equality.normalize_term_s": "s",
    "equality.normalize_term_calls": "count",
    "equality.eq_term_s": "s",
    "equality.eq_term_calls": "count",
    "equality.replay_trace_s": "s",
    "equality.replay_steps": "count",
    "equality.trace_steps": "count",
    "equality.fuel_spent": "count",
    "equality.equal_ratio": "ratio",
    "canonicity.generate_s": "s",
    "canonicity.evaluate_closed_s": "s",
    "canonicity.terms": "count",
    "library.build_s": "s",
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # (span id, name index, start ns, end ns, parent span id, op id)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._ops = 0
        self._next = 0
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, ix, parent, t0) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, ix, t0, t1, parent, self.op_id))

    def _wrap(self, ix: int, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(sid, ix, parent, t0)
            if count is not None and self.op_id >= 0:
                count(self.counts, args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target in every `gat` module and in the benchmark's
        workloads module; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gat" or n.startswith("gat.")
                                         or n == "workloads")]
        undo = []
        try:
            for span, module, fn_name, count in TARGETS:
                orig = getattr(sys.modules[module], fn_name)
                wrapper = self._wrap(self._name(span), orig, count)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(undo):
                setattr(m, attr, orig)

    @contextmanager
    def op(self):
        """The root span of one op; spans opened inside it carry its id."""
        self.op_id = self._ops
        self._ops += 1
        ix = self._name(OP_SPAN)
        sid, parent = self._enter()
        t0 = time.perf_counter_ns()
        try:
            with equality.record_fuel() as meter:
                yield
            self.counts["equality.fuel_spent"] += meter[0]
        finally:
            self._exit(sid, ix, parent, t0)
            self.op_id = -1

    def self_times(self) -> list[int]:
        """Self nanoseconds of each span, in the order of `spans`."""
        child_ns: Counter = Counter()
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        return [t1 - t0 - child_ns[sid] for sid, _, t0, t1, _, _ in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but the overhead.  Times and counts cover
        spans inside ops; `library.build_s` is the inclusive time of every
        theory build, inside ops or in a round's set-up."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        builds = 0.0
        for span, own in zip(self.spans, self.self_times()):
            _, ix, t0, t1, _, op = span
            name = self.names[ix]
            if name == "library.build":
                builds += (t1 - t0) / 1e9
            if op >= 0:
                self_s[name] += own / 1e9
                calls[name] += 1
        c = self.counts
        eq_calls = calls["equality.eq_sort"] + calls["equality.eq_term"]
        parse_s = self_s["surface.parse"]
        out = {
            "surface.parse_s": parse_s,
            "surface.parse_calls": calls["surface.parse"],
            "surface.chars_per_s": (c["surface.parse_chars"] / parse_s
                                    if parse_s else 0.0),
            "equality.replay_steps": c["equality.replay_steps"],
            "equality.trace_steps": c["equality.trace_steps"],
            "equality.fuel_spent": c["equality.fuel_spent"],
            "equality.equal_ratio": (c["equality.equal"] / eq_calls
                                     if eq_calls else 0.0),
            "canonicity.terms": c["canonicity.terms"],
            "library.build_s": builds,
            "bench.self_s": self_s[OP_SPAN],
        }
        for metric in PER_LAYER:
            span = metric.rsplit("_", 1)[0]
            if metric.endswith("_s") and metric not in out:
                out[metric] = self_s[span]
            elif metric.endswith("_calls") and metric not in out:
                out[metric] = calls[span]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"fields": ["span", "name", "start_ns", "end_ns",
                                  "parent", "op"],
                       "names": self.names, "spans": self.spans}, f)
