"""Candidate retrieval and persona selection reproduce the originals exactly.

* ``Retriever.candidates`` keeps only the items scoring at least the
  k-th largest score before its keyed sort; the result must equal the
  original full key-sort, ties at the threshold included.
* Persona totals are summed in one pass; they must equal the original
  per-page breakdown summed left to right, and ``explain`` must mark
  exactly the pages ``select_sources`` picks.
"""

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.retrieval import COMPONENTS, detect_intent
from repro.entities.intents import Intent
from tests.answer_path_oracles import (
    WORLD_IDS,
    WORLD_PARAMS,
    build_world,
    candidates_full_sort,
    generative_policies,
    left_fold_sum,
    score_components_reference,
    workload,
)


@pytest.fixture(scope="module", params=WORLD_PARAMS, ids=WORLD_IDS)
def world(request):
    return build_world(*request.param)


def _effective_policies(world, query):
    for policy in generative_policies(world).values():
        yield policy.adapted_to(detect_intent(query))


def _assert_same_pool(ours, reference):
    assert [(relevance, page.doc_id) for relevance, page in ours] == [
        (relevance, page.doc_id) for relevance, page in reference
    ]


class TestCandidates:
    def test_equals_full_sort(self, world):
        retriever = world.retriever
        for query in workload(world):
            for policy in _effective_policies(world, query):
                _assert_same_pool(
                    retriever.candidates(query, policy),
                    candidates_full_sort(retriever, query, policy),
                )

    def test_pool_as_large_as_the_matched_set(self, world):
        retriever = world.retriever
        for query in workload(world)[:6]:
            for policy in _effective_policies(world, query):
                matched = len(retriever._scorer.score_all(query))
                for pool in (matched, matched + 1, 10 * matched + 1):
                    wide = replace(policy, candidate_pool=max(pool, 1))
                    _assert_same_pool(
                        retriever.candidates(query, wide),
                        candidates_full_sort(retriever, query, wide),
                    )


class _FixedScorer:
    """Stands in for the BM25 scorer with a chosen score table."""

    def __init__(self, scores):
        self._scores = scores

    def score_all(self, query):
        return dict(self._scores)


@pytest.fixture(scope="module")
def tie_world():
    return build_world(7, 0)


class TestThresholdTies:
    """Score tables with few distinct values force ties at the threshold."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=200),
            st.sampled_from([0.25, 0.5, 0.5000000000000001, 1.0, 3.0, 7.5]),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=80),
        st.randoms(use_true_random=False),
    )
    def test_ties_at_threshold_match_full_sort(self, tie_world, table, pool, rnd):
        # Insertion order of the score table must not matter either.
        items = list(table.items())
        rnd.shuffle(items)
        retriever = tie_world.retriever
        policy = replace(tie_world.engines["GPT-4o"].policy, candidate_pool=pool)
        original, retriever._scorer = retriever._scorer, _FixedScorer(items)
        try:
            ours = retriever.candidates("q", policy)
        finally:
            retriever._scorer = original
        max_score = max(table.values())
        ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))
        assert [(r, p.doc_id) for r, p in ours] == [
            (score / max_score, doc_id)
            for doc_id, score in ranked[:pool]
        ]


class TestPersonaScores:
    def test_components_and_totals_equal_the_original(self, world):
        retriever = world.retriever
        for query in workload(world):
            for policy in _effective_policies(world, query):
                pool = retriever.candidates(query, policy)
                rows = retriever._persona_scores(policy, query, pool)
                assert len(rows) == len(pool)
                for (relevance, page), (total, terms) in zip(pool, rows):
                    reference = score_components_reference(
                        retriever, policy, page, relevance, query
                    )
                    assert tuple(reference) == COMPONENTS
                    assert terms == tuple(reference.values())
                    assert retriever.score_components(
                        policy, page, relevance, query
                    ) == reference
                    expected = left_fold_sum(reference.values())
                    assert total == expected
                    assert retriever.persona_score(
                        policy, page, relevance, query
                    ) == expected
                    if sys.version_info < (3, 12):
                        assert total == sum(reference.values())

    def test_explain_marks_exactly_the_selected_pages(self, world):
        retriever = world.retriever
        for query in workload(world):
            for policy in generative_policies(world).values():
                effective = policy.adapted_to(detect_intent(query))
                pool = retriever.candidates(query, effective)
                if not pool:
                    continue
                selected = retriever.select_sources(query, policy)
                explained = retriever.explain(query, policy, top=len(pool))
                assert {c.page.url for c in explained if c.selected} == {
                    page.url for page in selected
                }
                for candidate in explained:
                    assert candidate.total == left_fold_sum(
                        candidate.components.values()
                    )
                # Replaying explain's order through the diversity caps
                # reproduces the selection, order included.
                replay, per_domain = [], {}
                for candidate in explained:
                    domain = candidate.page.domain
                    if per_domain.get(domain, 0) >= effective.max_per_domain:
                        continue
                    per_domain[domain] = per_domain.get(domain, 0) + 1
                    replay.append(candidate.page)
                    if len(replay) == effective.citations_per_answer:
                        break
                assert replay == selected

    def test_explicit_intent_and_pool(self, world):
        # Gemini's path: a supplied pool and intent, no own retrieval.
        retriever = world.retriever
        policy = world.engines["Gemini"].policy
        for query in workload(world)[:6]:
            for intent in Intent:
                pool = retriever.candidates(query, policy)[::2]
                effective = policy.adapted_to(intent)
                selected = retriever.select_sources(query, policy, intent=intent, pool=pool)
                scored = sorted(
                    (
                        (
                            left_fold_sum(
                                score_components_reference(
                                    retriever, effective, page, relevance, query
                                ).values()
                            ),
                            page,
                        )
                        for relevance, page in pool
                    ),
                    key=lambda item: (-item[0], item[1].doc_id),
                )
                explained = retriever.explain(
                    query, policy, intent=intent, pool=pool, top=max(len(pool), 1)
                )
                assert [c.page for c in explained] == [page for __, page in scored]
                assert {page.url for page in selected} <= {
                    page.url for __, page in scored
                }
