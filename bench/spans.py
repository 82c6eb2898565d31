"""Span tracer that wraps bineffect functions at the names the package calls them by.

Each module looks its collaborators up in its own namespace (for example
`bineffect.simulation.fit_logistic`), so a function is wrapped once per
lookup site. Spans stay in memory; `summarize` turns one batch of spans into
per-layer totals, where a span's self time is its duration minus the time of
its direct child spans. The package itself is not modified: wrappers are
installed for a batch and removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# (module under bineffect, attribute where it is looked up, span name);
# a dotted attribute names a class member.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "core.load_csv"),
    ("cli", "estimate", "estimators.estimate"),
    ("core", "ObservationSet.subset", "core.subset"),
    ("estimators", "positivity_diagnostic", "core.positivity_diagnostic"),
    ("estimators", "fit_ols_interacted", "nuisance.fit_ols_interacted"),
    ("simulation", "fit_ols_interacted", "nuisance.fit_ols_interacted"),
    ("estimators", "fit_logistic", "nuisance.fit_logistic"),
    ("simulation", "fit_logistic", "nuisance.fit_logistic"),
    ("estimators", "sandwich_variance", "estimators.sandwich_variance"),
    ("simulation", "sandwich_variance", "estimators.sandwich_variance"),
    ("estimators", "_bootstrap_many", "estimators.bootstrap"),
    ("simulation", "_bootstrap_many", "estimators.bootstrap"),
    ("estimators", "estimate_aipw", "estimators.estimate_aipw"),
    ("simulation", "estimate_aipw", "estimators.estimate_aipw"),
    ("estimators", "estimate_tmle", "estimators.estimate_tmle"),
    ("simulation", "estimate_tmle", "estimators.estimate_tmle"),
    ("estimators", "tmle_update", "estimators.tmle_update"),
    ("simulation", "sample_dgp", "simulation.sample_dgp"),
    ("simulation", "truth_oracle", "simulation.truth_oracle"),
    ("simulation", "run_monte_carlo", "simulation.run_monte_carlo"),
)

# span name -> function of the wrapped call's result giving the span's count
COUNTS = {
    "core.load_csv": lambda data: data.n,
    "core.positivity_diagnostic": len,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    failed: bool = False
    count: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        self.spans.clear()
        self._stack.clear()
        restore = []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(f"bineffect.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf, None)
                if original is None:  # the package no longer has this entry point
                    continue
                setattr(owner, leaf, self._wrap(name, original))
                restore.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)


@dataclass
class LayerTotals:
    calls: int = 0
    failed: int = 0
    count: int = 0
    dur_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> tuple[dict[str, LayerTotals], list[float]]:
    """Per-span-name totals, and the intervals in ms between consecutive
    `simulation.sample_dgp` entries under the same root span."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals: dict[str, LayerTotals] = {}
    for span, inner in zip(spans, child_s):
        t = totals.setdefault(span.name, LayerTotals())
        dur = span.end - span.start
        t.calls += 1
        t.failed += span.failed
        t.count += span.count
        t.dur_s += dur
        t.self_s += dur - inner

    intervals = []
    last_entry: dict[int, float] = {}
    for i, span in enumerate(spans):
        if span.name != "simulation.sample_dgp":
            continue
        root = i
        while spans[root].parent >= 0:
            root = spans[root].parent
        if root in last_entry:
            intervals.append(1e3 * (span.start - last_entry[root]))
        last_entry[root] = span.start
    return totals, intervals
