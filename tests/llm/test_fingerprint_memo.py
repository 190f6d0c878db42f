"""The memoized context fingerprint equals a fresh recomputation.

``ContextWindow.fingerprint()`` is computed once per window.  That is
exact only because windows are immutable: every perturbation (snippet
shuffle, entity-swap injection, slicing) builds a new window, which must
get its own fingerprint rather than inherit the original's.
"""

import random

import pytest

from repro.analysis.perturbations import entity_swap_injection, snippet_shuffle
from repro.engines.generative import context_from_pages
from repro.entities.queries import comparison_queries
from repro.llm.context import ContextWindow
from tests.answer_path_oracles import (
    WORLD_IDS,
    WORLD_PARAMS,
    build_world,
    fingerprint_reference,
    generative_policies,
    workload,
)


@pytest.fixture(scope="module", params=WORLD_PARAMS, ids=WORLD_IDS)
def world(request):
    return build_world(*request.param)


def _windows(world):
    """One evidence window per (policy, query) of the workload."""
    for policy in generative_policies(world).values():
        for query in workload(world):
            pages = world.retriever.select_sources(query, policy)
            yield query, context_from_pages(
                pages, query, snippet_cache=world.retriever.snippet_cache
            )


class TestFingerprintMemo:
    def test_memo_equals_fresh_recomputation(self, world):
        for __, window in _windows(world):
            expected = fingerprint_reference(window)
            assert window.fingerprint() == expected
            assert window.fingerprint() == expected  # served from the memo
            assert ContextWindow(list(window)).fingerprint() == expected

    def test_shuffled_windows_get_new_fingerprints(self, world):
        rng = random.Random(5)
        for __, window in _windows(world):
            original = window.fingerprint()
            shuffled = snippet_shuffle(window, rng)
            assert shuffled.fingerprint() == fingerprint_reference(shuffled)
            if [s.url for s in shuffled] != [s.url for s in window]:
                assert shuffled.fingerprint() != original

    def test_sliced_windows_get_new_fingerprints(self, world):
        for __, window in _windows(world):
            original = window.fingerprint()
            for stop in range(len(window)):
                sliced = window[:stop]
                assert sliced.fingerprint() == fingerprint_reference(sliced)
                assert sliced.fingerprint() != original

    def test_esi_windows_get_new_fingerprints(self, world):
        seed = world.config.seed
        queries = comparison_queries(world.catalog, n_popular=3, n_niche=3, seed=seed)
        rewritten = 0
        for policy in generative_policies(world).values():
            for query in queries:
                pages = world.retriever.select_sources(query.text, policy)
                window = context_from_pages(pages, query.text)
                original = window.fingerprint()
                swapped = entity_swap_injection(
                    window,
                    world.catalog,
                    list(query.entities) + sorted(window.supported_entities()),
                    random.Random(seed),
                    swap_fraction=1.0,
                )
                assert swapped.fingerprint() == fingerprint_reference(swapped)
                if fingerprint_reference(swapped) != fingerprint_reference(window):
                    rewritten += 1
                    assert swapped.fingerprint() != original
        assert rewritten > 0
