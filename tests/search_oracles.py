"""Oracles for the organic search substrate.

The query path (per-term BM25 gain tables, precomputed static blend
terms, bounded-heap selection, the scatter-gather merge) is optimized
without changing a single output bit.  Each function below is the
implementation that path had before it was optimized — the posting-walk
BM25 scorer, the four-signal blend and the score-everything-then-sort
ranking — kept here unchanged so the tests can hold the library to
exact equality with it.  Do not "optimize" them: their value is being
the unchanged original.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine, SearchResult, Snippet
from repro.search.seo import SeoWeights, freshness_decay
from repro.search.snippets import extract_snippet
from repro.search.tokenize import tokenize


def blend(
    weights: SeoWeights,
    relevance: float,
    authority: float,
    on_page_seo: float,
    age_days: int,
) -> float:
    """Weighted sum of the four normalized signals."""
    fresh = freshness_decay(age_days, weights.freshness_half_life_days)
    return (
        weights.relevance * relevance
        + weights.authority * authority
        + weights.on_page_seo * on_page_seo
        + weights.freshness * fresh
    )


def score_terms_reference(
    scorer: BM25Scorer, terms: Sequence[str]
) -> dict[int, float]:
    """The original posting-walk BM25 over ``scorer``'s index and stats."""
    scores: dict[int, float] = {}
    avg_len = scorer._stats.average_doc_length
    if avg_len == 0.0:
        return scores
    for term in terms:
        idf = scorer.idf(term)
        if idf == 0.0:
            continue
        for posting in scorer._index.postings(term):
            tf = posting.term_frequency
            norm = 1.0 - scorer._b + scorer._b * (
                scorer._index.doc_length(posting.doc_id) / avg_len
            )
            gain = idf * tf * (scorer._k1 + 1.0) / (tf + scorer._k1 * norm)
            scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + gain
    return scores


def score_all_reference(scorer: BM25Scorer, query: str) -> dict[int, float]:
    """Reference scores for a raw query (see :func:`score_terms_reference`)."""
    return score_terms_reference(scorer, tokenize(query))


def search_reference(
    engine: SearchEngine, query: str, k: int = 10
) -> list[SearchResult]:
    """The original score-everything-then-sort pipeline over ``engine``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    bm25 = score_all_reference(engine.scorer, query)
    if not bm25:
        return []
    max_bm25 = max(bm25.values())

    candidates = []
    for doc_id, raw in bm25.items():
        page = engine.index.page(doc_id)
        relevance = raw / max_bm25 if max_bm25 else 0.0
        blended = blend(
            engine._weights,
            relevance=relevance,
            authority=engine.domain_authority(page.domain),
            on_page_seo=page.seo_score,
            age_days=engine._corpus.clock.age_days(page.published),
        )
        candidates.append((blended, doc_id, page))
    # Deterministic order: score desc, then doc_id for exact ties.
    candidates.sort(key=lambda item: (-item[0], item[1]))

    results: list[SearchResult] = []
    per_domain: dict[str, int] = {}
    for score, doc_id, page in candidates:
        seen = per_domain.get(page.domain, 0)
        if seen >= engine._max_per_domain:
            continue
        per_domain[page.domain] = seen + 1
        results.append(
            SearchResult(
                rank=len(results) + 1,
                url=page.url,
                domain=page.domain,
                score=score,
                page=page,
            )
        )
        if len(results) == k:
            break
    return results


def search_with_snippets_reference(
    engine: SearchEngine, query: str, k: int = 10
) -> list[Snippet]:
    """Reference evidence pairs via :func:`extract_snippet`."""
    return [
        Snippet(
            text=extract_snippet(result.page, query),
            url=result.url,
            domain=result.domain,
            page=result.page,
        )
        for result in search_reference(engine, query, k)
    ]
