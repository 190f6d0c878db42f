"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py     # every check (2-4 min on 2 CPUs)

* ``failed_frac`` is not vacuous.  An unrecoverable
  ``engine.answer`` fault plan on a short serve-cold-sharded stream must
  fail some requests, and the benchmark's count must equal the serve
  loop's own (shed + degraded + partial) / attempted.  A recoverable
  plan on the full stream must keep the pinned digest with nothing
  failed.
* The trace: two traced runs of each workload at the default seed.  Every
  per-layer metric is present (and matches ``BENCHMARK.json``), self
  times are non-negative and sum to at most the traced wall time per
  tracing thread, every call count repeats exactly, the traced digest
  equals the untraced one and the pinned one, every wrapped attribute is
  restored, and ``engine.answer.calls`` is 7,900 on study-answer.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7
#: Fault plans: every selected answer fails forever / fails once.
UNRECOVERABLE = "engine.answer:0.3:inf"
RECOVERABLE = "engine.answer:0.3:1"
SHORT_STREAM = 120
#: Calls to the study's engines at paper size: 5 engines x
#: (1,000 ranking + 100 + 100 comparison + 300 intent + 40 + 40 freshness).
STUDY_ANSWER_CALLS = 7900


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}", flush=True)


def _resilient_pass(workload, inputs, plan: str):
    from repro.resilience import FaultPlan, ResilienceConfig, ResilienceContext

    world = workload.build(SEED, inputs)
    world.install_resilience(
        ResilienceContext(ResilienceConfig(plan=FaultPlan.parse(plan, seed=SEED)))
    )
    return workload.run_pass(world, inputs)


def check_failed_frac() -> None:
    from workloads import WORKLOADS, FAILED_OUTCOMES, ServeInputs

    workload = WORKLOADS["serve-cold-sharded"]
    inputs = workload.inputs(SEED)
    short = ServeInputs(pool=inputs.pool, stream=inputs.stream[:SHORT_STREAM])

    broken = _resilient_pass(workload, short, UNRECOVERABLE)
    outcomes = broken.snapshot.outcomes
    expected = sum(outcomes[name] for name in FAILED_OUTCOMES) / broken.snapshot.requests
    failed_frac = broken.failed / broken.ops
    check(failed_frac > 0, f"unrecoverable plan fails requests (failed_frac {failed_frac:.3f})")
    check(
        failed_frac == expected and broken.ops == broken.snapshot.requests,
        f"failed_frac equals (shed+degraded+partial)/attempted from the loop ({outcomes})",
    )

    recovered = _resilient_pass(workload, inputs, RECOVERABLE)
    pinned = run.pinned_digest(workload.name, SEED)
    check(recovered.failed == 0, "recoverable plan fails nothing")
    check(
        pinned is not None and recovered.digest == pinned,
        "recoverable plan keeps the pinned serve-cold-sharded digest",
    )


def _patched_attributes() -> dict:
    """Every function, method and class the tracer may wrap, by identity."""
    from repro.core.runner import EvidenceCache
    from repro.core.world import World
    from repro.engines.base import AnswerEngine
    from repro.engines.retrieval import Retriever
    from repro.llm.context import ContextWindow
    from repro.llm.model import SimulatedLLM
    from repro.search.engine import SearchEngine
    from repro.webgraph.corpus import CorpusGenerator

    owners = [
        EvidenceCache, World, AnswerEngine, Retriever, ContextWindow,
        SimulatedLLM, SearchEngine, CorpusGenerator,
        *(m for n, m in sys.modules.items() if n.startswith("repro")),
    ]
    return {
        (id(owner), name): value
        for owner in owners
        for name, value in vars(owner).items()
        if callable(value) or isinstance(value, (classmethod, staticmethod))
    }


def check_trace(names) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    check(
        [(m["name"], m["unit"]) for m in declared] == list(run.PER_LAYER),
        "BENCHMARK.json per_layer matches the traced run's metrics",
    )
    count_names = [name for name, unit in run.PER_LAYER if name.endswith(".calls")]
    for name in names:
        attributes = _patched_attributes()
        reports = [run.measure(name, SEED, 0, trace=True) for __ in range(2)]
        after = _patched_attributes()
        check(
            all(after.get(key) is value for key, value in attributes.items()),
            f"{name}: every wrapped attribute restored",
        )
        for report in reports:
            check(report["correct"], f"{name}: traced digest equals untraced and pinned")
            check(
                list(report["metrics"]) == [n for n, __ in run.PER_LAYER],
                f"{name}: every per-layer metric present",
            )
            selves = [own for __, __, own in report["spans"].values()]
            bound = report["traced_wall_s"] * max(1, report["span_threads"])
            check(min(selves, default=0.0) >= -1e-9, f"{name}: self times are non-negative")
            check(
                sum(selves) <= bound + 1e-6,
                f"{name}: self times sum to {sum(selves):.3f}s <= wall x threads {bound:.3f}s",
            )
        first, second = (r["metrics"] for r in reports)
        check(
            all(first[c] == second[c] for c in count_names),
            f"{name}: call counts repeat exactly "
            + ", ".join(f"{c}={first[c]}" for c in count_names if first[c]),
        )
        if name == "study-answer":
            check(
                first["engine.answer.calls"] == STUDY_ANSWER_CALLS,
                f"study-answer: engine.answer.calls == {STUDY_ANSWER_CALLS}",
            )


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS

    check_failed_frac()
    check_trace(list(WORKLOADS))
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
