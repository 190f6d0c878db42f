"""Benchmark: the serving tier under a zipfian request stream.

Drains one deterministic load-generator stream through
:class:`repro.serve.ServeLoop` on the shared benchmark world — cold
caches, four workers — and records what `BENCH_serving.json` tracks:
service-latency percentiles, throughput, and the hit/coalesce/miss
split.  The determinism contract is asserted unconditionally: the
answer digest must be byte-identical to a sequential (``workers=1``)
drain of the same stream, and misses must equal the number of distinct
``(engine, cache_key)`` pairs exactly.

Timing numbers land in the ``last_run`` section of
``BENCH_serving.json``; the ``smoke`` section (the baselines
``tools/serve_smoke.py`` gates against) is preserved untouched.
"""

import json
import os
import pathlib
import time

from repro.serve import LoadProfile, answers_digest, generate_requests

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serving.json"

WORKERS = 4

FAST_PROFILE = LoadProfile(
    requests=600, qps=400.0, burstiness=4.0, zipf_s=1.1, pool_size=64, seed=7
)
PAPER_PROFILE = LoadProfile(
    requests=4000, qps=400.0, burstiness=4.0, zipf_s=1.1, pool_size=256, seed=7
)


def _profile() -> LoadProfile:
    if os.environ.get("REPRO_BENCH_SCALE", "fast") == "paper":
        return PAPER_PROFILE
    return FAST_PROFILE


def _cold(world) -> None:
    for engine in world.engines.values():
        engine.clear_cache()
    world.evidence_cache.clear()
    world.search_engine.clear_gains()  # the shared scorer's BM25 gain tables


def _distinct_keys(requests) -> int:
    return len({(r.engine, r.query.cache_key) for r in requests})


def test_serving_stream(world, benchmark, record_result):
    profile = _profile()
    requests = generate_requests(world.catalog, profile)

    # Sequential reference drain: the determinism pin.
    _cold(world)
    reference = world.serve_loop(workers=1)
    expected_digest = answers_digest(reference.serve(requests))

    loop_box = {}

    def drain():
        _cold(world)
        loop = world.serve_loop(workers=WORKERS)
        started = time.perf_counter()
        results = loop.serve(requests)
        loop_box["wall"] = time.perf_counter() - started
        loop_box["loop"] = loop
        return results

    results = benchmark.pedantic(drain, rounds=1, iterations=1)

    loop = loop_box["loop"]
    snapshot = loop.stats.snapshot()
    digest = answers_digest(results)

    # Determinism is the acceptance bar, same as the batch runner:
    # byte-identical answers at any width, and exactly one computation
    # per distinct cold key (memo + single-flight).
    assert digest == expected_digest
    assert snapshot.outcomes["miss"] == _distinct_keys(requests)
    assert snapshot.requests == profile.requests

    payload = {}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except ValueError:
            payload = {}
    payload["last_run"] = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "workers": WORKERS,
        "answers_digest": digest,
        "profile": {
            "requests": profile.requests,
            "qps": profile.qps,
            "burstiness": profile.burstiness,
            "zipf_s": profile.zipf_s,
            "pool_size": profile.pool_size,
            "seed": profile.seed,
        },
        "serving": snapshot.payload(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    record_result(
        "serving",
        "\n".join(
            [
                f"Serving — {profile.requests} requests, "
                f"{snapshot.outcomes['miss']} distinct computations, "
                f"workers={WORKERS}",
                f"  outcomes: "
                + "  ".join(
                    f"{name} {count}"
                    for name, count in snapshot.outcomes.items()
                ),
                f"  duplicate absorption: "
                f"{100.0 * snapshot.duplicate_absorption:.1f}%",
                f"  throughput: {snapshot.throughput_rps:,.0f} req/s",
                f"  service latency ms: p50 {snapshot.service.p50_ms:.3f}  "
                f"p90 {snapshot.service.p90_ms:.3f}  "
                f"p99 {snapshot.service.p99_ms:.3f}",
                f"  digest: {digest[:16]} (== sequential reference)",
            ]
        ),
    )
