"""Tests for the SEO model, snippets, and the full search engine."""

import datetime as dt

import pytest

from repro.entities import build_default_catalog
from repro.search.engine import SearchEngine
from repro.search.seo import SeoWeights, freshness_decay
from repro.search.snippets import extract_snippet
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import build_default_registry
from repro.webgraph.pages import DateMarkup, Page, PageKind
from repro.webgraph.urls import registrable_domain
from tests.search_oracles import blend


@pytest.fixture(scope="module")
def engine_world():
    catalog = build_default_catalog()
    registry = build_default_registry()
    corpus = CorpusGenerator(registry, catalog, CorpusConfig(seed=11)).generate()
    return catalog, registry, corpus, SearchEngine(corpus, registry)


class TestFreshnessDecay:
    def test_today_is_one(self):
        assert freshness_decay(0) == 1.0

    def test_half_life(self):
        assert freshness_decay(365, half_life_days=365) == pytest.approx(0.5)

    def test_monotone(self):
        values = [freshness_decay(d) for d in (0, 30, 180, 365, 1000)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            freshness_decay(-1)
        with pytest.raises(ValueError):
            freshness_decay(1, half_life_days=0)


class TestSeoWeights:
    def test_blend_monotone_in_each_signal(self):
        weights = SeoWeights()
        base = blend(weights, 0.5, 0.5, 0.5, 100)
        assert blend(weights, 0.9, 0.5, 0.5, 100) > base
        assert blend(weights, 0.5, 0.9, 0.5, 100) > base
        assert blend(weights, 0.5, 0.5, 0.9, 100) > base
        assert blend(weights, 0.5, 0.5, 0.5, 10) > base

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SeoWeights(relevance=-0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            SeoWeights(relevance=0, authority=0, on_page_seo=0, freshness=0)


class TestSnippets:
    def _page(self, body):
        return Page(
            doc_id=0,
            url="https://example.com/a",
            domain="example.com",
            kind=PageKind.REVIEW,
            vertical="smartphones",
            title="Fallback title",
            body=body,
            published=dt.date(2025, 1, 1),
            date_markup=DateMarkup.NONE,
        )

    def test_picks_relevant_sentences(self):
        body = (
            "This paragraph discusses shipping.\n"
            "The camera on this smartphone is superb.\n"
            "Unrelated closing remark."
        )
        snippet = extract_snippet(self._page(body), "smartphone camera", max_sentences=1)
        assert snippet == "The camera on this smartphone is superb."

    def test_preserves_document_order(self):
        body = "Battery life is great. Camera is weak. Battery charging is fast."
        snippet = extract_snippet(self._page(body), "battery", max_sentences=2)
        assert snippet.index("Battery life") < snippet.index("Battery charging")

    def test_empty_body_falls_back_to_title(self):
        assert extract_snippet(self._page(""), "anything") == "Fallback title"

    def test_invalid_max_sentences(self):
        with pytest.raises(ValueError):
            extract_snippet(self._page("x."), "q", max_sentences=0)


class TestSearchEngine:
    def test_topical_results(self, engine_world):
        *_, engine = engine_world
        results = engine.search("Top 10 most reliable smartphones in 2025", k=10)
        assert results
        verticals = {r.page.vertical for r in results}
        assert "smartphones" in verticals

    def test_ranks_are_sequential(self, engine_world):
        *_, engine = engine_world
        results = engine.search("best laptops for students", k=10)
        assert [r.rank for r in results] == list(range(1, len(results) + 1))

    def test_host_crowding_limit(self, engine_world):
        *_, engine = engine_world
        results = engine.search("best SUVs to buy in 2025", k=10)
        per_domain = {}
        for r in results:
            per_domain[r.domain] = per_domain.get(r.domain, 0) + 1
        assert max(per_domain.values()) <= 2

    def test_result_urls_match_domains(self, engine_world):
        *_, engine = engine_world
        for r in engine.search("best hotels", k=10):
            assert registrable_domain(r.url) == r.domain

    def test_deterministic(self, engine_world):
        *_, engine = engine_world
        a = [r.url for r in engine.search("best credit cards", k=10)]
        b = [r.url for r in engine.search("best credit cards", k=10)]
        assert a == b

    def test_nonsense_query_returns_empty(self, engine_world):
        *_, engine = engine_world
        assert engine.search("qwzx flibber") == []

    def test_snippets_carry_urls(self, engine_world):
        *_, engine = engine_world
        snippets = engine.search_with_snippets("best smartwatches for running", k=5)
        assert snippets
        for snippet in snippets:
            assert snippet.text
            assert snippet.url.startswith("https://")
            assert snippet.domain == registrable_domain(snippet.url)

    def test_invalid_k(self, engine_world):
        *_, engine = engine_world
        with pytest.raises(ValueError):
            engine.search("x", k=0)

    def test_authority_in_bounds(self, engine_world):
        __, registry, __, engine = engine_world
        for name in registry.names():
            assert 0.0 <= engine.domain_authority(name) <= 1.0

    def test_unknown_domain_gets_the_documented_default(self, engine_world):
        # The organic blend and domain_authority() must agree on one
        # default for domains outside the registry.
        *_, engine = engine_world
        assert (
            engine.domain_authority("unknown.example")
            == SearchEngine.UNKNOWN_DOMAIN_AUTHORITY
            == 0.3
        )

    def test_freshness_weight_shifts_results_younger(self, engine_world):
        catalog, registry, corpus, __ = engine_world
        stale = SearchEngine(corpus, registry, SeoWeights(freshness=0.0, relevance=0.5, authority=0.35, on_page_seo=0.15))
        fresh = SearchEngine(corpus, registry, SeoWeights(freshness=0.6, relevance=0.25, authority=0.1, on_page_seo=0.05))
        query = "best smartphones in 2025"
        def mean_age(engine):
            results = engine.search(query, k=10)
            return sum(corpus.clock.age_days(r.page.published) for r in results) / len(results)
        assert mean_age(fresh) < mean_age(stale)
