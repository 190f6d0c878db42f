"""Oracles and worlds shared by the answer-path exactness tests.

The generative answer path (BM25 candidates -> persona selection ->
context fingerprint -> entity ranking) is optimized without changing a
single output bit.  Each function below is the implementation that path
had before it was optimized, kept here unchanged so the tests can hold
the optimized code to exact equality with it.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import random

from repro.core import StudyConfig, World
from repro.engines.retrieval import Retriever, SourcingPolicy
from repro.entities.queries import comparison_queries, intent_queries, ranking_queries
from repro.llm.context import ContextWindow
from repro.search.bm25 import BM25Scorer
from repro.search.seo import freshness_decay
from repro.webgraph.pages import Page

#: ``(seed, search_shards)`` of the worlds every exactness check runs on.
WORLD_PARAMS = [(seed, shards) for seed in (7, 11) for shards in (0, 4)]
WORLD_IDS = [f"seed{seed}-shards{shards}" for seed, shards in WORLD_PARAMS]


def build_world(seed: int, shards: int) -> World:
    """A small world (about 1,650 pages) on a single or sharded index."""
    return World.build(
        StudyConfig(seed=seed, corpus_scale=0.35, search_shards=shards)
    )


def workload(world: World) -> list[str]:
    """Query texts of every shape the study asks, plus edge probes."""
    seed = world.config.seed
    catalog = world.catalog
    texts = [q.text for q in ranking_queries(catalog, count=8, seed=seed)]
    texts += [
        q.text
        for q in comparison_queries(catalog, n_popular=3, n_niche=3, seed=seed)
    ]
    texts += [q.text for q in intent_queries(catalog, count=6, seed=seed)]
    texts += ["qwzx flibber", "best smartphones", "where to buy running shoes deals"]
    return texts


def generative_policies(world: World) -> dict[str, SourcingPolicy]:
    """Every generative engine's sourcing policy, by engine name."""
    return {name: engine.policy for name, engine in world.ai_engines().items()}


def derive_seed_streaming(*components: object) -> int:
    """The original ``derive_seed``: four ``update`` calls per component."""
    hasher = hashlib.sha256()
    for component in components:
        text = str(component).encode("utf-8")
        hasher.update(str(len(text)).encode("ascii"))
        hasher.update(b":")
        hasher.update(text)
        hasher.update(b"|")
    return int.from_bytes(hasher.digest()[:8], "big")


def candidates_full_sort(
    retriever: Retriever, query_text: str, policy: SourcingPolicy
) -> list[tuple[float, Page]]:
    """The original candidate pool: key-sort every matched document."""
    reformulated = query_text
    if policy.reformulation_terms:
        reformulated = f"{query_text} {' '.join(policy.reformulation_terms)}"
    index = retriever._index
    scores = BM25Scorer(index).score_all_reference(reformulated)
    if not scores:
        return []
    max_score = max(scores.values())
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (score / max_score, index.page(doc_id))
        for doc_id, score in ranked[: policy.candidate_pool]
    ]


def score_components_reference(
    retriever: Retriever,
    policy: SourcingPolicy,
    page: Page,
    relevance: float,
    query_text: str = "",
) -> dict[str, float]:
    """The original per-page persona breakdown, one fresh dict per page."""
    age = retriever._corpus.clock.age_days(page.published)
    jitter = 0.0
    if policy.selection_jitter:
        jitter = random.Random(
            derive_seed_streaming("select", query_text, page.url)
        ).uniform(-policy.selection_jitter, policy.selection_jitter)
    return {
        "relevance": policy.relevance_weight * relevance,
        "type_affinity": retriever._type_affinity(policy, page),
        "freshness": policy.freshness_weight
        * freshness_decay(age, policy.freshness_half_life_days),
        "authority": policy.authority_weight
        * retriever._search_engine.domain_authority(page.domain),
        "quality": policy.quality_weight * page.quality,
        "familiarity": policy.familiarity_pull * retriever.familiarity(page.domain),
        "jitter": jitter,
    }


def left_fold_sum(values) -> float:
    """``sum(values)`` as CPython up to 3.11 computes it: ``0 + v0 + v1 ...``.

    From 3.12 on, ``sum`` of floats uses compensated summation, so the
    original persona total is this fold, not whatever the running
    interpreter's ``sum`` returns.
    """
    return functools.reduce(operator.add, values, 0)


def fingerprint_reference(window: ContextWindow) -> int:
    """The original fingerprint, recomputed from the window's contents."""
    parts: list[object] = ["ctx"]
    for snippet in window:
        parts.append(snippet.url)
        parts.append(snippet.text)
        for entity_id in sorted(snippet.entity_stance):
            parts.append(entity_id)
            parts.append(round(snippet.entity_stance[entity_id], 6))
    return derive_seed_streaming(*parts)
