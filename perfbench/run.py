"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study-answer --seed 7 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The program is imported from ``src/``
next to this directory.  A run repeats fixed passes of the workload for
``--seconds`` (at least one pass), each on a world built fresh for it;
``setup_s`` is the median build time, over at least ``MIN_SETUPS``
builds.  ``run_s`` and ``ops_per_s`` are medians over passes; ``p50_ms``
and ``tail_ms`` are percentiles over the operations of all passes.
Every time is scaled to a reference host speed (``hostspeed.py``).
Every pass's output digest must agree, and at a pinned seed must equal
the digest in ``reference.json``.

With ``--trace 1`` the run alternates untraced and traced passes and
prints the per-layer metrics instead (see ``README.md``).  The last
line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Fewest world builds per run; ``setup_s`` is their median.
MIN_SETUPS = 5
#: Percentile (in hundredths of a percent) reported as ``tail_ms``.
#: Every pass has at least 1,000 operations, so p99 would still leave
#: ten samples above it, but on the shared 2-CPU reference box p99's
#: run-to-run spread (up to 0.57 in ten-run sets on an all-memo-hit
#: serve stream) exceeded the largest bound a metric may have (0.25);
#: p90 is steadier.
TAIL = 9000

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

STUDY_EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "table1", "table2", "table3")

PER_LAYER = (
    ("setup.corpus_s", "s"),
    ("setup.assemble_s", "s"),
    ("search.calls", "count"),
    ("search.busy_s", "s"),
    ("search.query_cache.hit_ratio", "ratio"),
    ("search.snippet_cache.hit_ratio", "ratio"),
    ("retrieval.candidates.calls", "count"),
    ("retrieval.candidates.busy_s", "s"),
    ("retrieval.select.calls", "count"),
    ("retrieval.select.self_s", "s"),
    ("engine.answer.calls", "count"),
    ("engine.answer.self_s", "s"),
    ("engine.context.busy_s", "s"),
    ("engine.memo.hit_ratio", "ratio"),
    ("llm.rank.calls", "count"),
    ("llm.rank.busy_s", "s"),
    ("llm.pairwise.calls", "count"),
    ("llm.pairwise.busy_s", "s"),
    ("llm.fingerprint.calls", "count"),
    ("llm.fingerprint.busy_s", "s"),
    ("llm.seed.calls", "count"),
    ("evidence.calls", "count"),
    ("evidence.busy_s", "s"),
    ("evidence.hit_ratio", "ratio"),
    *((f"study.{experiment}_s", "s") for experiment in STUDY_EXPERIMENTS),
    ("analysis.self_s", "s"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.tail", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.tail", "ms"),
    ("serve.hit_frac", "frac"),
    ("serve.miss_frac", "frac"),
    ("serve.coalesced_frac", "frac"),
    ("serve.admission_waits", "count"),
    ("tracing.overhead_frac", "frac"),
)


def load_program() -> None:
    """Import the program from this checkout's ``src/`` or exit non-zero."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        # Ambient execution hooks (workers, shards, witnesses, chaos)
        # would change what is measured.
        del os.environ[key]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


# ----------------------------------------------------------------------
# Statistics


def nearest_rank(values: list[float], per_10k: int) -> float:
    """Nearest-rank percentile; ``per_10k`` is the percentile x 100."""
    ordered = sorted(values)
    rank = max(1, -(-per_10k * len(ordered) // 10000))
    return ordered[rank - 1]


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# Measurement


def pinned_digest(workload: str, seed: int) -> str | None:
    if not REFERENCE.exists():
        return None
    pins = json.loads(REFERENCE.read_text())["digests"]
    return pins.get(workload, {}).get(str(seed))


def _cache_counters(world) -> dict[str, tuple[int, int]]:
    """(hits, misses) of every world-level cache."""
    query = world.search_engine.query_cache_stats()
    snippet = world.search_engine.snippet_cache.counters()
    memo = [engine.cache_stats() for engine in world.engines.values()]
    evidence = world.evidence_cache.stats
    return {
        "query": (query.hits, query.misses),
        "snippet": (snippet.hits, snippet.misses),
        "memo": (sum(h for h, __ in memo), sum(m for __, m in memo)),
        "evidence": (evidence.hits, evidence.misses),
    }


def _build(workload, seed: int, inputs, tracer=None):
    """A fresh world for one pass; returns it and its build time."""
    from tracing import instrument_setup

    gc.collect()
    if tracer is not None:
        instrument_setup(tracer)
    started = time.perf_counter()
    try:
        return workload.build(seed, inputs), time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.patches.restore()


@dataclass(frozen=True)
class PassSummary:
    """What a run keeps of each pass (a full result holds every answer)."""

    digest: str
    ops: int
    wall_s: float


def _run_pass(workload, world, inputs, tracer=None):
    """One pass, or ``None`` (with the traceback on stderr) if it raised."""
    try:
        return workload.run_pass(world, inputs, tracer)
    except Exception:  # reported as a failed run, not a traceback exit
        traceback.print_exc()
        return None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result line plus details.

    Every pass runs on a world built for it, so set-ups are spread over
    the run and each pass starts cold.  Untraced, rounds of one build
    and one pass repeat until the next round would end after
    ``seconds``; then, if fewer than ``MIN_SETUPS`` worlds were built,
    the rest are built without a pass (a few seconds past ``seconds`` at
    most).  A ``hostspeed.Sampler`` times the host all the while, and
    every time is scaled to the reference speed by its mean unit time.

    Traced, each round is an untraced pass followed by a traced one,
    with times as measured: per-layer numbers come from the first traced
    pass (so counts are per pass), the overhead from the medians of both
    kinds.
    """
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)

    plain, traced = [], []
    setup_seconds, setup_layers = [], []
    latencies = array("d")
    first_trace = None
    attempted = failed = 0
    crashed = False
    sampler = hostspeed.Sampler()
    with contextlib.nullcontext() if trace else sampler:
        started = time.perf_counter()
        while True:
            for traced_pass in (False, True) if trace else (False,):
                setup_tracer = Tracer() if traced_pass else None
                world, build_s = _build(workload, seed, inputs, setup_tracer)
                setup_seconds.append(build_s)
                if setup_tracer is not None:
                    setup_layers.append(setup_tracer.spans())
                tracer = Tracer() if traced_pass else None
                before = _cache_counters(world) if tracer is not None else None
                result = _run_pass(workload, world, inputs, tracer)
                if result is None:
                    attempted += plain[-1].ops if plain else 1
                    crashed = True
                    break
                attempted += result.ops
                failed += result.failed
                (plain if tracer is None else traced).append(
                    PassSummary(result.digest, result.ops, result.wall_s)
                )
                if tracer is None:
                    latencies.extend(result.latencies_s)
                if tracer is not None and first_trace is None:
                    first_trace = (tracer, before, _cache_counters(world), result)
                world = result = None
            if crashed:
                break
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(plain) > seconds:
                break
        if not trace:
            while len(setup_seconds) < MIN_SETUPS and not crashed:
                world, build_s = _build(workload, seed, inputs)
                world = None
                setup_seconds.append(build_s)

    passes = plain + traced
    digests = {p.digest for p in passes}
    pinned = pinned_digest(name, seed)
    if crashed or len(digests) != 1 or (pinned is not None and digests != {pinned}):
        # A crash or a wrong answer anywhere fails the whole run.
        failed = attempted
    correct = failed == 0
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "digests": sorted(digests),
        "pinned": pinned,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "setup_seconds": setup_seconds,
        "pass_seconds": [p.wall_s for p in plain],
        "host_units": len(sampler.units),
    }
    if trace:
        if first_trace is not None:
            tracer, before, after, first = first_trace
            overhead = (
                statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in plain)
                - 1.0
            )
            report["metrics"] = _layer_metrics(tracer, before, after, first, setup_layers, overhead)
            report["spans"] = tracer.spans()
            report["span_threads"] = tracer.threads()
            report["traced_wall_s"] = first.wall_s
        return report
    if not plain:
        return report
    # Measured time x scale = time at the reference host speed.
    unit_s = sampler.unit_seconds()
    scale = hostspeed.REFERENCE_UNIT_S / unit_s
    report["host_unit_s"] = unit_s
    report["scale"] = scale
    report["samples_per_pass"] = plain[0].ops
    report["samples"] = len(latencies)
    report["metrics"] = {
        "setup_s": scale * statistics.median(setup_seconds),
        "run_s": scale * statistics.median(p.wall_s for p in plain),
        "ops_per_s": statistics.median(p.ops / p.wall_s for p in plain) / scale,
        "p50_ms": scale * 1000 * nearest_rank(latencies, 5000),
        "tail_ms": scale * 1000 * nearest_rank(latencies, TAIL),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report


def _layer_metrics(tracer, before, after, traced, setup_layers, overhead: float) -> dict:
    spans = tracer.spans()
    counts = tracer.counts()

    def span(name: str) -> tuple[int, float, float]:
        return spans.get(name, (0, 0.0, 0.0))

    def delta(cache: str) -> tuple[int, int]:
        return (after[cache][0] - before[cache][0], after[cache][1] - before[cache][1])

    def setup_median(name: str) -> float:
        return statistics.median(layers.get(name, (0, 0.0, 0.0))[1] for layers in setup_layers)

    query_hits, query_misses = delta("query")
    snippet_hits, snippet_misses = delta("snippet")
    memo_hits, memo_misses = delta("memo")
    memo_hits += counts.get("engine.memo_peek_hits", 0)
    evidence_hits, evidence_misses = delta("evidence")
    metrics = {
        "setup.corpus_s": setup_median("setup.corpus"),
        "setup.assemble_s": setup_median("setup.assemble"),
        "search.calls": span("search")[0],
        "search.busy_s": span("search")[1],
        "search.query_cache.hit_ratio": _ratio(query_hits, query_hits + query_misses),
        "search.snippet_cache.hit_ratio": _ratio(snippet_hits, snippet_hits + snippet_misses),
        "retrieval.candidates.calls": span("retrieval.candidates")[0],
        "retrieval.candidates.busy_s": span("retrieval.candidates")[1],
        "retrieval.select.calls": span("retrieval.select")[0],
        "retrieval.select.self_s": span("retrieval.select")[2],
        "engine.answer.calls": span("engine.answer")[0],
        "engine.answer.self_s": span("engine.answer")[2],
        "engine.context.busy_s": span("engine.context")[1],
        "engine.memo.hit_ratio": _ratio(memo_hits, memo_hits + memo_misses),
        "llm.rank.calls": span("llm.rank")[0],
        "llm.rank.busy_s": span("llm.rank")[1],
        "llm.pairwise.calls": span("llm.pairwise")[0],
        "llm.pairwise.busy_s": span("llm.pairwise")[1],
        "llm.fingerprint.calls": span("llm.fingerprint")[0],
        "llm.fingerprint.busy_s": span("llm.fingerprint")[1],
        "llm.seed.calls": counts.get("llm.seed", 0),
        "evidence.calls": span("evidence")[0],
        "evidence.busy_s": span("evidence")[1],
        "evidence.hit_ratio": _ratio(evidence_hits, evidence_hits + evidence_misses),
        **{
            f"study.{experiment}_s": span(f"study.{experiment}")[1]
            for experiment in STUDY_EXPERIMENTS
        },
        "analysis.self_s": span("analysis")[2],
    }
    # Study passes have no serve results: their serve.* metrics read 0.
    results = traced.serve_results
    queue = [1000 * r.queue_delay_seconds for r in results] or [0.0]
    service = [1000 * r.service_seconds for r in results] or [0.0]
    served = len(results) or 1
    metrics.update(
        {
            "serve.queue_ms.p50": nearest_rank(queue, 5000),
            "serve.queue_ms.tail": nearest_rank(queue, TAIL),
            "serve.service_ms.p50": nearest_rank(service, 5000),
            "serve.service_ms.tail": nearest_rank(service, TAIL),
            "serve.hit_frac": sum(r.outcome == "hit" for r in results) / served,
            "serve.miss_frac": sum(r.outcome == "miss" for r in results) / served,
            "serve.coalesced_frac": sum(r.outcome == "coalesced" for r in results) / served,
            "serve.admission_waits": traced.snapshot.admission_waits if results else 0,
            "tracing.overhead_frac": overhead,
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Output


def result_line(report: dict, trace: bool) -> dict:
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }


def describe(report: dict, trace: bool) -> list[str]:
    attempted = report["attempted"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}"
        f"  set-ups {len(report['setup_seconds'])}  nproc {os.cpu_count()}"
        f"  python {platform.python_version()}",
    ]
    for label, key in (
        ("set-ups (s, as measured)", "setup_seconds"),
        ("passes (s, as measured)", "pass_seconds"),
    ):
        if report[key]:
            lines.append(f"  {label:<25} " + " ".join(f"{t:.3f}" for t in report[key]))
    if "scale" in report:
        lines.append(
            f"  {'host unit (ms)':<25} {1000 * report['host_unit_s']:.4f}"
            f" (mean of {report['host_units']} units; scale to reference speed"
            f" {report['scale']:.4f})"
        )
    units = dict(PER_LAYER if trace else END_TO_END)
    for name, value in report.get("metrics", {}).items():
        note = ""
        if name == "tail_ms":
            note = (
                f"  (p{TAIL / 100:g}: {report['samples_per_pass']} samples per pass,"
                f" {report['passes']} passes, {report['samples']} in all)"
            )
        lines.append(f"  {name:<32} {value:>14.6g} {units[name]}{note}")
    lines.append(
        f"  {'failed_frac':<32} {report['failed'] / attempted:>14.6g} frac"
        f"  ({report['failed']}/{attempted} operations)"
    )
    pin = report["pinned"]
    pin_note = "not pinned" if pin is None else ("= pinned" if report["digests"] == [pin] else "!= pinned " + pin)
    lines.append(f"  {'digest':<32} {', '.join(report['digests']) or '-'} ({pin_note})")
    lines.append(f"  {'correct':<32} {report['correct']}")
    return lines


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    summary = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
        status |= 0 if summary[name]["correct"] else 1
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if "metrics" not in report:
        print(f"perfbench: no pass of {args.workload} completed", file=sys.stderr)
        return 1
    print("\n".join(describe(report, bool(args.trace))))
    print(json.dumps(result_line(report, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
