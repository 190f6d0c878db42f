"""The search engine: BM25 + PageRank + SEO signals -> ranked results.

This is the study's Google stand-in.  ``search(query, k)`` returns the
organic top-``k`` with host crowding (at most ``max_per_domain`` results
per registrable domain, as Google clusters same-site results), and
``search_with_snippets`` additionally attaches query-biased snippets —
the evidence format the generative engines consume.

There is one query path: BM25 score pools from ``_scatter_scores`` (one
per shard in the sharded engine), per-page static blend components
precomputed once per index epoch, bounded-heap top-m selection with
host-crowding headroom (falling back to full selection when crowding
exhausts the headroom) in ``_merge_ranked``, and a lock-guarded bounded
query cache keyed on ``(analyzed terms, k, index epoch)``.  Every float
it produces comes from the same operations in the same order as the
original score-everything-then-sort pipeline, kept as a test oracle in
``tests/search_oracles.py``, so rankings, scores and snippets are
byte-identical (see
``tests/search/test_fastpath_equivalence.py`` and the "Query fast path"
section of ``docs/architecture.md``).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.search.bm25 import BM25Scorer
from repro.search.caching import BoundedCache, CacheCounters
from repro.search.index import InvertedIndex
from repro.search.pagerank import pagerank
from repro.search.seo import SeoWeights, freshness_decay
from repro.search.snippets import SnippetCache
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import DomainRegistry
from repro.webgraph.pages import Page

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.resilience.coverage import ShardCoverage

__all__ = ["SearchEngine", "SearchResult", "Snippet"]


@dataclass(frozen=True)
class SearchResult:
    """One organic result."""

    rank: int  # 1-based
    url: str
    domain: str
    score: float
    page: Page


@dataclass(frozen=True)
class Snippet:
    """A (text, url) evidence pair, as retrieved for LLM grounding."""

    text: str
    url: str
    domain: str
    page: Page


#: (authority, on-page SEO, freshness) blend terms for one page, each
#: already multiplied by its weight.  Kept as three separate floats — not
#: pre-summed — because float addition is non-associative and the blend
#: must reproduce the oracle's left-to-right ``a + b + c + d``.
_Statics = Sequence[tuple[float, float, float]] | Mapping[int, tuple[float, float, float]]


class SearchEngine:
    """Organic web search over a :class:`Corpus`."""

    #: Authority assumed for domains absent from the registry: the wider
    #: web's median, unexceptional site.  One documented default shared
    #: by organic blending and :meth:`domain_authority`, so the Google
    #: stand-in and the persona retrievers score unknown domains
    #: consistently (neither buries them at 0 nor trusts them).
    UNKNOWN_DOMAIN_AUTHORITY = 0.3

    #: Bound on distinct ``(terms, k, epoch)`` entries the query cache
    #: holds.  A full study issues a few hundred distinct queries; the
    #: bound only matters to ad-hoc exploratory use.
    QUERY_CACHE_LIMIT = 4096

    def __init__(
        self,
        corpus: Corpus,
        registry: DomainRegistry,
        weights: SeoWeights | None = None,
        max_per_domain: int = 2,
    ) -> None:
        if max_per_domain < 1:
            raise ValueError("max_per_domain must be at least 1")
        self._corpus = corpus
        self._registry = registry
        self._weights = weights or SeoWeights()
        self._max_per_domain = max_per_domain

        # The index seam: subclasses (the sharded engine) override
        # _build_index to substitute a different postings substrate;
        # everything downstream — scorer, caches, statics — is built
        # against whatever comes back.
        self._index: InvertedIndex = self._build_index(corpus)
        self._scorer: BM25Scorer = BM25Scorer(self._index)

        raw_rank = pagerank(corpus.link_graph)
        max_rank = max(raw_rank.values()) if raw_rank else 1.0
        # Authority blends the graph-derived PageRank with the registry's
        # curated baseline.  The synthetic graph is brand-heavy (editorial
        # pages link to the brands they review far more than anyone links
        # back), so the baseline carries most of the weight — it stands in
        # for the wider web's links that the corpus doesn't model.
        self._authority: dict[str, float] = {}
        for domain in registry.names():
            graph_part = raw_rank.get(domain, 0.0) / max_rank if max_rank else 0.0
            baseline = registry.get(domain).authority
            self._authority[domain] = 0.3 * graph_part + 0.7 * baseline

        #: ``(epoch, table)`` of per-page static blend components,
        #: rebuilt lazily when the index epoch moves (published by a
        #: single attribute store; a racing rebuild swaps in an
        #: identical table).
        self._static_table: tuple[int, _Statics] | None = None
        #: World-level query-result cache: ``(terms, k, epoch)`` ->
        #: tuple of :class:`SearchResult`.  Lock-guarded and bounded;
        #: a partial-coverage page never enters it.
        self._query_cache = BoundedCache(
            limit=self.QUERY_CACHE_LIMIT,
            site="SearchEngine._query_cache",
            epochs=lambda: self._index.epoch,
        )
        #: Per-page sentence cache shared by ``search_with_snippets``
        #: and the generative engines' evidence builders.
        self.snippet_cache = SnippetCache()
        self._warm()

    def _build_index(self, corpus: Corpus) -> InvertedIndex:
        """Build the postings substrate (the sharded engine overrides)."""
        index = InvertedIndex()
        index.add_all(corpus.pages)
        return index

    def _warm(self) -> None:
        """Precompute everything the query path reads, so forked pool
        workers inherit built state instead of each rebuilding it (see
        the sharing contract in repro.core.runner)."""
        self._index.freeze()
        self._scorer.warm()
        if self._corpus.pages:
            self._statics()

    @property
    def index(self) -> InvertedIndex:
        """The underlying inverted index (read-only use)."""
        return self._index

    @property
    def scorer(self) -> BM25Scorer:
        """The BM25 scorer over :attr:`index`, shared with the retriever."""
        return self._scorer

    def domain_authority(self, domain: str) -> float:
        """Blended authority in ``[0, 1]``.

        Unknown domains get :data:`UNKNOWN_DOMAIN_AUTHORITY`, the same
        default the organic blend uses.
        """
        return self._authority.get(domain, self.UNKNOWN_DOMAIN_AUTHORITY)

    # ------------------------------------------------------------------
    # Ranking

    def _statics(self) -> _Statics:
        """Per-doc ``(authority, seo, freshness)`` blend terms, weighted.

        Epoch-tagged like the scorer's norm table; each term is exactly
        the product the four-signal blend computes for that page, so
        summing them left-to-right after the relevance term reproduces
        the blend bit-for-bit.
        """
        epoch = self._index.epoch
        cached = self._static_table
        if cached is not None and cached[0] == epoch:
            return cached[1]
        w = self._weights
        w_auth, w_seo, w_fresh = w.authority, w.on_page_seo, w.freshness
        half_life = w.freshness_half_life_days
        age_days = self._corpus.clock.age_days
        authority = self.domain_authority
        dense, lengths = self._index.doc_length_table()
        page = self._index.page
        table: _Statics
        if dense:
            table = [
                (
                    w_auth * authority((p := page(doc_id)).domain),
                    w_seo * p.seo_score,
                    w_fresh * freshness_decay(age_days(p.published), half_life),
                )
                for doc_id in range(len(lengths))
            ]
        else:
            table = {
                doc_id: (
                    w_auth * authority((p := page(doc_id)).domain),
                    w_seo * p.seo_score,
                    w_fresh * freshness_decay(age_days(p.published), half_life),
                )
                for doc_id in lengths
            }
        self._static_table = (epoch, table)
        return table

    def _scatter_scores(
        self, terms: Sequence[str]
    ) -> "tuple[list[dict[int, float] | None], ShardCoverage | None]":
        """BM25 score pools plus the coverage lost: here one full pool.

        The sharded engine returns one pool per shard instead, ``None``
        for a shard lost past the resilience ladder.
        """
        return [self._scorer.score_terms(terms)], None

    def _merge_ranked(
        self, shard_scores: Sequence[dict[int, float] | None], k: int
    ) -> list[SearchResult]:
        """Exact top-``k``: blend, bounded-heap select, crowd.

        ``heapq.nsmallest(m, items)`` equals ``sorted(items)[:m]`` and
        the items are ``(-blended, doc_id)`` pairs, so each pool's heap
        prefix is its ``(-score, doc_id)`` sort prefix; every global
        top-``m`` item is in its own pool's prefix, so the sorted,
        truncated union of prefixes is the global one.  Crowding scans
        it; if the ``m = k × max_per_domain`` headroom runs dry first,
        the fully sorted union of every pool replaces it.  ``None`` and
        empty pools (lost shards) are skipped, so a partial merge is
        the full merge of a corpus without the lost shards' documents.
        """
        if not any(shard_scores):
            return []
        max_bm25 = max(
            max(scores.values()) for scores in shard_scores if scores
        )
        statics = self._statics()
        w_rel = self._weights.relevance
        headroom = k * self._max_per_domain
        pools: list[list[tuple[float, int]]] = []
        gathered: list[tuple[float, int]] = []
        total = 0
        for scores in shard_scores:
            if not scores:
                continue
            total += len(scores)
            if max_bm25:
                items = [
                    (
                        -(
                            (
                                w_rel * (raw / max_bm25)
                                + (s := statics[doc_id])[0]
                                + s[1]
                            )
                            + s[2]
                        ),
                        doc_id,
                    )
                    for doc_id, raw in scores.items()
                ]
            else:
                items = [
                    (
                        -(
                            (w_rel * 0.0 + (s := statics[doc_id])[0] + s[1])
                            + s[2]
                        ),
                        doc_id,
                    )
                    for doc_id, raw in scores.items()
                ]
            pools.append(items)
            if headroom < len(items):
                gathered.extend(heapq.nsmallest(headroom, items))
            else:
                gathered.extend(items)
        gathered.sort()
        top: Sequence[tuple[float, int]] = (
            gathered[:headroom] if headroom < len(gathered) else gathered
        )
        results = self._crowd(top, k)
        if len(results) < k and len(top) < total:
            # Crowding ate the headroom: fall back to the full ordering
            # over every scored document.
            full = [item for items in pools for item in items]
            full.sort()
            results = self._crowd(full, k)
        return results

    def _crowd(
        self, ordered: Sequence[tuple[float, int]], k: int
    ) -> list[SearchResult]:
        """Apply host crowding over ``(-score, doc_id)`` pairs in order."""
        page_of = self._index.page
        results: list[SearchResult] = []
        per_domain: dict[str, int] = {}
        for neg_score, doc_id in ordered:
            page = page_of(doc_id)
            seen = per_domain.get(page.domain, 0)
            if seen >= self._max_per_domain:
                continue
            per_domain[page.domain] = seen + 1
            results.append(
                SearchResult(
                    rank=len(results) + 1,
                    url=page.url,
                    domain=page.domain,
                    score=-neg_score,
                    page=page,
                )
            )
            if len(results) == k:
                break
        return results

    # ------------------------------------------------------------------
    # Public query API

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Organic top-``k`` for ``query``."""
        if k < 1:
            raise ValueError("k must be at least 1")
        terms = tuple(tokenize(query))
        key = (terms, k, self._index.epoch)
        cached = self._query_cache.get(key)
        if cached is not None:
            return list(cached)
        shard_scores, coverage = self._scatter_scores(terms)
        results = self._merge_ranked(shard_scores, k)
        if coverage is not None:
            # A partial-coverage page (shards lost past the resilience
            # ladder) is never memoized: the next identical query must
            # re-scatter and regain full coverage the moment the shard
            # recovers, not replay the degraded merge from cache.
            return list(results)
        return list(self._query_cache.put(key, tuple(results)))

    def search_with_snippets(self, query: str, k: int = 10) -> list[Snippet]:
        """Top-``k`` results as (snippet, url) evidence pairs."""
        results = self.search(query, k)
        if not results:
            return []
        query_terms = frozenset(tokenize(query))
        extract = self.snippet_cache.extract_with_terms
        return [
            Snippet(
                text=extract(result.page, query_terms),
                url=result.url,
                domain=result.domain,
                page=result.page,
            )
            for result in results
        ]

    # ------------------------------------------------------------------
    # Cache administration

    def query_cache_stats(self) -> CacheCounters:
        """Hit/miss/eviction counters of the query-result cache."""
        return self._query_cache.counters()

    def clear_query_cache(self) -> None:
        """Drop cached query results (e.g. between benchmark rounds)."""
        self._query_cache.clear()

    def clear_gains(self) -> None:
        """Drop the scorer's per-term BM25 gain table."""
        self._scorer.clear_gains()
