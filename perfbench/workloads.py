"""The benchmark's workloads.

Each workload makes its inputs from the seed (untimed), and then runs
*passes*, each on a world built fresh for it (timed: that is
``setup_s``).  One pass is a fixed unit of work whose output digest must
be the same every time.
Everything runs without a resilience context, with the sequential
study runner and serve width 2, so the load comes from one process
with at most two busy threads.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.core.config import StudyConfig
from repro.core.experiments import run_experiment
from repro.core.study import ComparativeStudy
from repro.core.world import World
from repro.engines.base import AnswerEngine
from repro.entities.catalog import build_default_catalog
from repro.llm.model import SimulatedLLM
from repro.serve import (
    LoadProfile,
    ServeSnapshot,
    answers_digest,
    generate_requests,
    query_pool,
)
from tracing import Patches, Tracer, instrument

#: Serve-loop worker threads; admission window is the loop default (4x).
SERVE_WIDTH = 2
#: The serve stream: uniform popularity over a pool twice its length,
#: so almost every request misses the memo, on in-process shards.
SERVE_REQUESTS = 1000
SERVE_POOL = 2000
SERVE_SHARDS = 4
#: Serve outcomes that did not deliver a full answer.
FAILED_OUTCOMES = ("shed", "degraded", "partial")


@dataclass
class PassResult:
    """One pass: its output digest, operations and per-operation latency."""

    digest: str
    ops: int
    failed: int
    wall_s: float
    latencies_s: list[float]
    #: Serve passes only: the loop's results and its own accounting.
    serve_results: list = field(default_factory=list)
    snapshot: ServeSnapshot | None = None


class _OpTimer:
    """The untraced run's one probe: wall time per user-level operation."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def wrap(self, fn):
        samples = self.samples
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(clock() - started)

        return timed


def _config(seed: int, shards: int = 0) -> StudyConfig:
    # Explicit execution knobs: ambient REPRO_* settings must not change
    # what the benchmark measures.
    return StudyConfig(
        seed=seed, workers=1, executor="process", search_shards=shards,
        resident_shards=False,
    )


class StudyWorkload:
    """Paper experiments on a fresh world; digest over the rendered texts."""

    def __init__(self, name: str, experiments: tuple[str, ...], op_sites):
        self.name = name
        self.experiments = experiments
        #: (owner, method) pairs whose calls are this workload's operations.
        self.op_sites = op_sites

    def inputs(self, seed: int) -> None:
        # The study generates its query sets from the world's seed.
        return None

    def build(self, seed: int, inputs) -> World:
        return World.build(_config(seed))

    def run_pass(self, world: World, inputs, tracer: Tracer | None = None) -> PassResult:
        timer = _OpTimer()
        patches = Patches()
        for owner, attr in self.op_sites:
            patches.wrap(owner, attr, timer.wrap)
        if tracer is not None:
            instrument(tracer)
        hasher = hashlib.sha256()
        started = time.perf_counter()
        try:
            study = ComparativeStudy(world)
            for experiment_id in self.experiments:
                run = run_experiment
                if tracer is not None:
                    run = tracer.span(f"study.{experiment_id}")(run_experiment)
                __, text = run(experiment_id, world, study=study)
                hasher.update(f"[{experiment_id}]\n{text}\n".encode("utf-8"))
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.patches.restore()
            patches.restore()
        return PassResult(
            digest=hasher.hexdigest(),
            ops=len(timer.samples),
            failed=0,
            wall_s=wall,
            latencies_s=timer.samples,
        )


@dataclass(frozen=True)
class ServeInputs:
    pool: list
    stream: list


class ServeWorkload:
    """A uniform request stream drained by ``ServeLoop(workers=SERVE_WIDTH)``
    on a world with ``SERVE_SHARDS`` in-process search shards."""

    name = "serve-cold-sharded"

    def inputs(self, seed: int) -> ServeInputs:
        # The default catalog does not depend on the seed, so the stream
        # is generated once, outside the timed set-up.
        catalog = build_default_catalog()
        pool = query_pool(catalog, SERVE_POOL, seed=seed)
        profile = LoadProfile(
            requests=SERVE_REQUESTS,
            qps=400.0,
            burstiness=4.0,
            zipf_s=0.0,
            pool_size=SERVE_POOL,
            seed=seed,
        )
        return ServeInputs(pool=pool, stream=generate_requests(catalog, profile, pool=pool))

    def build(self, seed: int, inputs: ServeInputs) -> World:
        return World.build(_config(seed, shards=SERVE_SHARDS))

    def run_pass(self, world: World, inputs: ServeInputs, tracer: Tracer | None = None) -> PassResult:
        loop = world.serve_loop(workers=SERVE_WIDTH)
        if tracer is not None:
            instrument(tracer)
        started = time.perf_counter()
        try:
            results = loop.serve(inputs.stream)
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.patches.restore()
        return PassResult(
            digest=answers_digest(results),
            ops=len(results),
            failed=sum(r.outcome in FAILED_OUTCOMES for r in results),
            wall_s=wall,
            latencies_s=[r.queue_delay_seconds + r.service_seconds for r in results],
            serve_results=results,
            snapshot=loop.stats.snapshot(),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        StudyWorkload(
            "study-answer", ("fig1", "fig2", "fig3", "fig4"), ((AnswerEngine, "answer"),)
        ),
        StudyWorkload(
            "study-probe",
            ("table1", "table2", "table3"),
            ((SimulatedLLM, "rank_entities"), (SimulatedLLM, "pairwise_judge")),
        ),
        ServeWorkload(),
    )
}
