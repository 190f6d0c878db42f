"""Benchmark: parallel runner scaling on the Figure 1 workload.

Runs the fig1 experiment sequentially (``workers=1``) and through the
process pool (``workers=4``) on the same world, with every memo cleared
before each timed run so both start cold.  Asserts the runner's
determinism invariant unconditionally — the parallel ``OverlapReport``
and its rendered text must be byte-identical to the sequential ones —
and asserts the >=2x wall-clock speedup wherever the host actually has
the cores to show it (a single-core CI box cannot, and is exempt).
"""

import os
import time

from repro.core.report import render_fig1
from repro.core.runner import StudyRunner
from repro.core.study import ComparativeStudy

#: Cores needed before the speedup assertion is meaningful.
SPEEDUP_WORKERS = 4
SPEEDUP_FLOOR = 2.0


def _cold(world) -> None:
    for engine in world.engines.values():
        engine.clear_cache()
    world.evidence_cache.clear()
    world.search_engine.clear_gains()  # the shared scorer's BM25 gain tables


def _timed_fig1(world, workers: int, timings: dict) -> object:
    _cold(world)
    study = ComparativeStudy(world, runner=StudyRunner(world, workers=workers))
    started = time.perf_counter()
    result = study.domain_overlap_ranking()
    timings[workers] = time.perf_counter() - started
    return result


def test_runner_scaling_fig1(world, benchmark, record_result):
    timings: dict[int, float] = {}

    sequential = _timed_fig1(world, 1, timings)
    parallel = benchmark.pedantic(
        lambda: _timed_fig1(world, SPEEDUP_WORKERS, timings),
        rounds=1,
        iterations=1,
    )

    # Determinism is the acceptance bar: byte-identical at any width.
    assert sequential == parallel
    assert render_fig1(sequential) == render_fig1(parallel)

    speedup = timings[1] / timings[SPEEDUP_WORKERS]
    cores = os.cpu_count() or 1
    record_result(
        "runner_scaling",
        "\n".join(
            [
                "Runner scaling — Figure 1 workload "
                f"({world.config.sizes.ranking_queries} queries, "
                f"{len(world.engines)} engines, {cores} cores)",
                f"  sequential (workers=1):          {timings[1]:7.2f}s",
                f"  process pool (workers={SPEEDUP_WORKERS}):        "
                f"{timings[SPEEDUP_WORKERS]:7.2f}s",
                f"  speedup: {speedup:.2f}x",
                "  outputs byte-identical: yes",
            ]
        ),
    )

    if cores >= SPEEDUP_WORKERS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x speedup at "
            f"workers={SPEEDUP_WORKERS} on {cores} cores, got {speedup:.2f}x"
        )
