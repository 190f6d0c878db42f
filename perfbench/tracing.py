"""Per-layer tracing from outside the program.

The benchmark wraps the entry points of each layer at run time and
restores them afterwards; nothing under ``src/`` knows it is traced.
Spans are aggregated in memory per thread (name -> calls, busy, self)
and merged when the traced pass ends.

* ``busy`` is a span's wall duration.  A span nested inside another of
  the same name adds a call but no busy time, so re-entry is not
  double-counted.
* ``self`` is the duration minus what the span's direct child spans
  cover; summed over every span of one thread it never exceeds that
  thread's wall time.
* Counters (``llm.seed``: hundreds of thousands of calls per pass) are
  bare ``itertools.count`` ticks, which are atomic under the GIL, so a
  count repeats exactly at any serve width.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections.abc import Callable

_MISSING = object()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, factory: Callable) -> None:
        """Replace ``owner.attr`` with ``factory(current value)``.

        Works for module functions, plain methods patched on a class,
        and classmethods patched on their class (the wrapper calls the
        already-bound original).
        """
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, factory(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Tracer:
    """Span and counter aggregation shared by every traced thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._tables_lock = threading.Lock()
        self._counters: dict[str, itertools.count] = {}
        self.patches = Patches()

    def _thread_state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._tables_lock:
                self._tables.append(state[1])
        return state

    def span(self, name: str) -> Callable[[Callable], Callable]:
        """A wrapper factory recording one span per call under ``name``."""
        clock = time.perf_counter

        def factory(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                stack, table = self._thread_state()
                reentrant = any(frame[0] == name for frame in stack)
                frame = [name, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    row = table.get(name)
                    if row is None:
                        row = table[name] = [0, 0.0, 0.0]
                    row[0] += 1
                    if not reentrant:
                        row[1] += elapsed
                    row[2] += elapsed - frame[1]

            return traced

        return factory

    def counter(
        self, name: str, when: Callable[[object], bool] | None = None
    ) -> Callable[[Callable], Callable]:
        """A wrapper factory counting calls (or results matching ``when``)."""
        ticks = self._counters.setdefault(name, itertools.count())

        def factory(fn: Callable) -> Callable:
            if when is None:
                def counted(*args, **kwargs):
                    next(ticks)
                    return fn(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    if when(result):
                        next(ticks)
                    return result

            return counted

        return factory

    def spans(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, busy_s, self_s)`` merged over threads."""
        merged: dict[str, list] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, busy, own) in table.items():
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += busy
                row[2] += own
        return {name: tuple(row) for name, row in merged.items()}

    def threads(self) -> int:
        """How many threads recorded at least one span."""
        with self._tables_lock:
            return sum(1 for table in self._tables if table)

    def counts(self) -> dict[str, int]:
        """Final counter values (reading advances each counter once)."""
        return {name: next(ticks) for name, ticks in self._counters.items()}


#: Analysis entry points as the study module calls them.
ANALYSIS_FUNCTIONS = (
    "citation_miss_rates",
    "domain_concentration",
    "domain_overlap",
    "freshness_by_engine",
    "pairwise_consistency",
    "sensitivity",
    "typology_by_intent",
)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer's entry points; undo with ``patches.restore``."""
    from repro.core import runner, study
    from repro.engines import base, generative, retrieval
    from repro.llm import context, model, rng
    from repro.search import engine

    wrap = tracer.patches.wrap
    wrap(engine.SearchEngine, "search", tracer.span("search"))
    wrap(retrieval.Retriever, "candidates", tracer.span("retrieval.candidates"))
    wrap(retrieval.Retriever, "select_sources", tracer.span("retrieval.select"))
    wrap(base.AnswerEngine, "answer", tracer.span("engine.answer"))
    # The serve tier peeks the memo without touching the engine's
    # counters; a non-None peek is a memo hit.
    wrap(
        base.AnswerEngine,
        "cached_answer",
        tracer.counter("engine.memo_peek_hits", when=lambda r: r is not None),
    )
    wrap(model.SimulatedLLM, "rank_entities", tracer.span("llm.rank"))
    wrap(model.SimulatedLLM, "pairwise_judge", tracer.span("llm.pairwise"))
    wrap(context.ContextWindow, "fingerprint", tracer.span("llm.fingerprint"))
    wrap(runner.EvidenceCache, "get_or_compute", tracer.span("evidence"))
    for name in ANALYSIS_FUNCTIONS:
        wrap(study, name, tracer.span("analysis"))
    # context_from_pages and derive_seed are imported by name into
    # several modules (derive_rng reaches derive_seed through the rng
    # module's globals), so every module-level binding is wrapped.
    _wrap_everywhere(tracer, "context_from_pages", generative.context_from_pages,
                     tracer.span("engine.context"))
    _wrap_everywhere(tracer, "derive_seed", rng.derive_seed, tracer.counter("llm.seed"))


def _wrap_everywhere(tracer: Tracer, attr: str, original: Callable, factory: Callable) -> None:
    """Wrap ``attr`` in every ``repro`` module whose global is ``original``."""
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and vars(module).get(attr) is original
        ):
            tracer.patches.wrap(module, attr, factory)


def instrument_setup(tracer: Tracer) -> None:
    """Wrap the two world-building phases ``World.build`` runs."""
    from repro.core.world import World
    from repro.webgraph.corpus import CorpusGenerator

    tracer.patches.wrap(CorpusGenerator, "generate", tracer.span("setup.corpus"))
    tracer.patches.wrap(World, "assemble", tracer.span("setup.assemble"))
