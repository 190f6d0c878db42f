"""One BM25 scorer and one retriever per world.

Google and the four generative engines answer over one index, so a world
holds exactly one scorer over it — the search engine's — and one
retriever, shared by the whole generative fleet and the evidence path.
A sharded world adds one scorer per shard and nothing else.
"""

import gc

import pytest

from repro.aeo.interventions import ContentPlan, InterventionLab
from repro.search.bm25 import BM25Scorer
from tests.answer_path_oracles import build_world


def _scorers_reading(index):
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, BM25Scorer) and obj._index is index
    ]


def _intervention_world():
    lab = InterventionLab(build_world(7, 0))
    return lab.apply(
        ContentPlan(name="one scorer", entity_id="smartwatches:coros", page_count=3)
    )


@pytest.fixture(
    scope="module",
    params=["single", "shards4", "intervention"],
)
def world(request):
    if request.param == "intervention":
        return _intervention_world()
    return build_world(7, 4 if request.param == "shards4" else 0)


class TestOneScorerPerWorld:
    def test_fleet_shares_the_world_retriever(self, world):
        for engine in world.ai_engines().values():
            assert engine._retriever is world.retriever

    def test_retriever_reads_the_search_engine_scorer(self, world):
        assert world.retriever._scorer is world.search_engine.scorer

    def test_one_scorer_reads_the_index(self, world):
        index = world.search_engine.index
        scorers = _scorers_reading(index)
        assert len(scorers) == 1
        assert scorers[0] is world.search_engine.scorer
        shards = getattr(index, "shards", ())
        for shard in shards:
            assert len(_scorers_reading(shard)) == 1
