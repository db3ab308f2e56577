"""Outside-in tracing of the randova CLI path.

The traced run calls ``randova.cli.main(argv)`` in-process with wrappers
installed over the public names that ``randova.cli`` and
``randova.inference`` call. Each wrapper records a span (name, start, end,
parent span, run id) around the call; one CLI invocation is one run id.
Spans stay in memory in flat arrays and are written out once, at the end.
Nothing under ``src/`` changes: the wrappers are set as module attributes
and restored afterwards.

A span's self time is its duration minus the durations of its child spans.
Every span name belongs to exactly one layer, so the layers' self times add
up to the traced total, the summed durations of the root ``cli`` spans.
"""

from __future__ import annotations

import contextlib
import io
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> the per-layer time metric its self time counts towards
LAYER_OF_SPAN = {
    "cli": "cli.self_s",
    "documents.load": "documents.load_s",
    "documents.dump": "documents.dump_s",
    "enumeration.next": "enumeration.time_s",
    "anova.batch": "anova.time_s",
    "inference.exact_distribution": "inference.aggregate_s",
    "inference.query": "inference.query_s",
    "inference.monte_carlo": "inference.mc_self_s",
    "fdist.quantile": "fdist.time_s",
    "fdist.survival": "fdist.time_s",
}
LAYER_TIMES = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


class SpanLog:
    """Spans held in memory as parallel arrays, plus counters."""

    def __init__(self) -> None:
        self.names = list(LAYER_OF_SPAN)
        self._code = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.summaries: list = []  # RandomizationSummary of each exact_distribution call
        self.draws: list = []  # assignments of sampled streams, checked after the run
        # hashes of the label grids an exact stream yielded: equal grids hash
        # alike, so as many hashes as assignments means no grid came twice
        self.seen: set[int] = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._code[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def leaf(self, code: int, start: float, end: float) -> None:
        """A finished span with no children (one step of a stream)."""
        self.name.append(code)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def layer_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer metric, and the traced total."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        in_children = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                                  minlength=len(duration))
        own = np.bincount(a["name"], weights=duration - in_children, minlength=len(self.names))
        times = dict.fromkeys(LAYER_TIMES, 0.0)
        for code, name in enumerate(self.names):
            times[LAYER_OF_SPAN[name]] += float(own[code])
        total = float(duration[~has_parent].sum())
        return times, total

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class _TracedStream:
    """Times each next() on an assignment stream as one enumeration span."""

    def __init__(self, log: SpanLog, stream, sampled: bool) -> None:
        self._log = log
        self._next = iter(stream).__next__
        self._code = log._code["enumeration.next"]
        self._sampled = sampled

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        try:
            item = self._next()
        finally:
            self._log.leaf(self._code, start, perf_counter())
        self._log.count("enumeration.assignments")
        if self._sampled:
            self._log.draws.append(item)
        else:
            self._log.seen.add(hash(item.labels().tobytes()))
        return item


def _wrap(log: SpanLog, name: str, fn, after=None):
    def traced(*args, **kwargs):
        with log.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def installed(log: SpanLog):
    """Install the span wrappers on randova's call sites; restore them on exit."""
    import randova.cli as cli
    import randova.inference as inference

    def stream(table, space):
        it, size, is_exact = original["assignment_stream"](table, space)
        return _TracedStream(log, it, sampled=not is_exact), size, is_exact

    def on_anova(args, result):
        log.count("anova.calls")
        log.count("anova.assignments", len(args[1]))

    def on_query(args, result):
        log.count("inference.query_calls")

    def on_fdist(args, result):
        log.count("fdist.calls")

    def on_dump(args, result):
        log.count("documents.report_bytes", len(result.encode("utf-8")))

    targets = {
        "assignment_stream": (inference, None),
        "batch_anova_rcb": (inference, ("anova.batch", on_anova)),
        "batch_anova_ls": (inference, ("anova.batch", on_anova)),
        "exact_distribution": (inference, ("inference.exact_distribution",
                                           lambda args, result: log.summaries.append(result))),
        "probability_f_above": (inference.RandomizationSummary, ("inference.query", on_query)),
        "f_quantile": (inference, ("fdist.quantile", on_fdist)),
        "f_survival": (inference, ("fdist.survival", on_fdist)),
        "monte_carlo_with_errors": (cli, ("inference.monte_carlo", None)),
        "load_table": (cli, ("documents.load", None)),
        "dumps_report": (cli, ("documents.dump", on_dump)),
    }
    original = {attr: getattr(owner, attr) for attr, (owner, _) in targets.items()}
    try:
        for attr, (owner, spec) in targets.items():
            setattr(owner, attr, stream if spec is None else _wrap(log, spec[0], original[attr], spec[1]))
        yield
    finally:
        for attr, (owner, _) in targets.items():
            setattr(owner, attr, original[attr])


def traced_cli(log: SpanLog, argv: list[str]) -> tuple[int, str]:
    """Run randova.cli.main(argv) under a root span; return (exit code, stdout)."""
    import randova.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), log.span("cli"):
        code = cli.main(argv)
    return code, out.getvalue()
