"""The BM25 per-term gain table: exact, epoch-coherent, clearable.

``BM25Scorer.score_terms`` reads each term's per-posting gains from a
table filled on first use and tagged with the index epoch.  These tests
hold it to the unchanged ``score_terms_reference`` oracle on single and
sharded worlds, after index growth, after ``World.clear_caches()`` and
under concurrent first use.
"""

import dataclasses
import threading

import pytest

from repro.entities import build_default_catalog
from repro.entities.queries import ranking_queries
from repro.search.bm25 import BM25Scorer
from repro.search.index import InvertedIndex
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import build_default_registry
from tests.answer_path_oracles import WORLD_IDS, WORLD_PARAMS, build_world, workload
from tests.search_oracles import score_all_reference, score_terms_reference


@pytest.fixture(scope="module", params=WORLD_PARAMS, ids=WORLD_IDS)
def world(request):
    return build_world(*request.param)


def _world_scorers(world):
    """Every distinct in-process BM25 scorer the world's answer path reads."""
    scorers = [world.retriever._scorer, world.search_engine._scorer]
    scorers += [
        engine._retriever._scorer
        for engine in world.ai_engines().values()
    ]
    shard_table = getattr(world.search_engine, "_shard_scorer_table", None)
    if shard_table is not None:
        scorers += list(shard_table[1])
    return list({id(scorer): scorer for scorer in scorers}.values())


class TestWorldScorers:
    def test_score_terms_equals_reference_cold_and_warm(self, world):
        for scorer in _world_scorers(world):
            for query in workload(world):
                terms = tokenize(query)
                reference = score_terms_reference(scorer, terms)
                assert scorer.score_terms(terms) == reference  # fills
                assert scorer.score_terms(terms) == reference  # reads

    def test_clear_caches_resets_every_gain_table(self, world):
        queries = ranking_queries(world.catalog, count=2, seed=world.config.seed)
        for engine in world.engines.values():
            engine.answer_all(queries)
        for query in workload(world)[:4]:
            world.retriever.candidates(query, world.engines["GPT-4o"].policy)
        assert all(s._gain_table is not None for s in _world_scorers(world))
        world.clear_caches()
        assert [s._gain_table for s in _world_scorers(world)] == [
            None for __ in _world_scorers(world)
        ]


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        build_default_registry(),
        build_default_catalog(),
        CorpusConfig(seed=11, pages_per_volume_unit=0.7),
    ).generate()


def _index(pages):
    index = InvertedIndex()
    index.add_all(pages)
    return index.freeze()


QUERIES = ("hybrid suv review", "best smartphones camera", "qwzx flibber", "suv suv")


class TestEpochCoherence:
    def test_growth_invalidates_the_table(self, corpus):
        index = _index(corpus.pages[:-40])
        scorer = BM25Scorer(index).warm()
        for query in QUERIES:
            scorer.score_all(query)
        filled_at = scorer._gain_table[0]
        for offset, page in enumerate(corpus.pages[-40:]):
            index.add(page)
            for query in QUERIES:
                assert scorer.score_all(query) == score_all_reference(scorer, query)
            assert scorer._gain_table[0] == index.epoch == filled_at + offset + 1

    def test_growth_reaches_new_postings(self, corpus):
        index = _index(corpus.pages)
        scorer = BM25Scorer(index)
        before = scorer.score_all("hybrid suv review")
        best = max(before, key=before.get)
        clone = dataclasses.replace(
            index.page(best), doc_id=len(corpus.pages), url=index.page(best).url + "/copy"
        )
        index.add(clone)
        after = scorer.score_all("hybrid suv review")
        assert clone.doc_id in after and clone.doc_id not in before
        assert after == score_all_reference(scorer, "hybrid suv review")

    def test_zero_idf_terms_are_memoized_as_skipped(self, corpus):
        index = _index(corpus.pages)

        class Saturated:
            """Stats under which every term has exactly zero IDF."""

            doc_count = index.doc_count
            average_doc_length = index.average_doc_length

            def document_frequency(self, term):
                return self.doc_count + 0.5

        scorer = BM25Scorer(index, stats=Saturated())
        assert scorer.idf("suv") == 0.0
        assert scorer.score_all("hybrid suv") == {} == score_all_reference(
            scorer, "hybrid suv"
        )
        assert scorer._gain_table[1] == {"hybrid": None, "suv": None}

    def test_clear_gains(self, corpus):
        scorer = BM25Scorer(_index(corpus.pages))
        expected = scorer.score_all("hybrid suv review")
        scorer.clear_gains()
        assert scorer._gain_table is None
        assert scorer.score_all("hybrid suv review") == expected

    def test_concurrent_first_use_is_exact(self, corpus):
        # Racing fills store identical gains; every thread sees exact scores.
        scorer = BM25Scorer(_index(corpus.pages)).warm()
        reference = {q: score_all_reference(scorer, q) for q in QUERIES}
        mismatches = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            for __ in range(5):
                for query in QUERIES:
                    if scorer.score_all(query) != reference[query]:
                        mismatches.append(query)

        threads = [threading.Thread(target=worker) for __ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []
