"""``derive_seed`` and seed prefixes reproduce the original seeds exactly.

The oracle is the original streaming implementation
(:func:`tests.answer_path_oracles.derive_seed_streaming`); every seed in
the study flows through this function, so any difference would re-roll
calibration-locked draws.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engines.generative import context_from_pages
from repro.entities.intents import Intent
from repro.llm.rng import SeedPrefix, derive_rng, derive_seed
from tests.answer_path_oracles import (
    WORLD_IDS,
    WORLD_PARAMS,
    build_world,
    derive_seed_streaming,
    generative_policies,
    workload,
)

#: Components whose ``str`` is UTF-8-encodable.  Lone surrogates
#: (category ``Cs``) are not; every implementation raises on them alike,
#: which ``test_lone_surrogate_raises_everywhere`` pins separately.
COMPONENT = st.one_of(
    st.text(),
    st.text(
        alphabet=st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
        max_size=8,
    ),
    st.just(""),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**64),
    st.floats(),
    st.booleans(),
    st.none(),
)
COMPONENTS = st.lists(COMPONENT, max_size=8).map(tuple)


class TestDeriveSeedOracle:
    @given(COMPONENTS)
    def test_equals_streaming_implementation(self, components):
        assert derive_seed(*components) == derive_seed_streaming(*components)

    @given(COMPONENTS)
    def test_prefix_equals_full_call_at_every_split(self, components):
        expected = derive_seed_streaming(*components)
        for split in range(len(components) + 1):
            prefix = SeedPrefix(*components[:split])
            assert prefix.seed(*components[split:]) == expected

    @given(COMPONENTS, st.lists(COMPONENTS, min_size=1, max_size=5))
    def test_prefix_is_reusable(self, head, tails):
        # Each call extends a copy: earlier tails never leak into later ones.
        prefix = SeedPrefix(*head)
        for tail in tails:
            assert prefix.seed(*tail) == derive_seed_streaming(*head, *tail)

    @given(COMPONENTS, COMPONENTS)
    def test_prefix_rng_draws_like_derive_rng(self, head, tail):
        ours = SeedPrefix(*head).rng(*tail)
        theirs = derive_rng(*head, *tail)
        assert [ours.random() for __ in range(3)] == [
            theirs.random() for __ in range(3)
        ]

    def test_boundaries_still_matter(self):
        assert SeedPrefix("ab").seed("c") != SeedPrefix("a").seed("bc")

    def test_lone_surrogate_raises_everywhere(self):
        with pytest.raises(UnicodeEncodeError):
            derive_seed_streaming("\ud800")
        with pytest.raises(UnicodeEncodeError):
            derive_seed("\ud800")
        with pytest.raises(UnicodeEncodeError):
            SeedPrefix("\ud800")
        with pytest.raises(UnicodeEncodeError):
            SeedPrefix("head").seed("\ud800")


@pytest.fixture(scope="module", params=WORLD_PARAMS, ids=WORLD_IDS)
def world(request):
    return build_world(*request.param)


class TestStudySeeds:
    """The seeds the answer path actually derives, against the oracle."""

    def test_selection_jitter_seeds(self, world):
        for policy in generative_policies(world).values():
            for query in workload(world):
                effective = policy.adapted_to(Intent.CONSIDERATION)
                jitter = SeedPrefix("select", query)
                for __, page in world.retriever.candidates(query, effective):
                    expected = derive_seed_streaming("select", query, page.url)
                    assert jitter.seed(page.url) == expected
                    assert jitter.rng(page.url).uniform(-0.2, 0.2) == random.Random(
                        expected
                    ).uniform(-0.2, 0.2)

    def test_generation_seeds(self, world):
        llm = world.reference_llm
        for policy in generative_policies(world).values():
            for query in workload(world)[:6]:
                pages = world.retriever.select_sources(query, policy)
                context = context_from_pages(pages, query)
                fingerprint = context.fingerprint()
                for entity_id in sorted(context.supported_entities()):
                    parts = ("gen", llm.config.seed, query, fingerprint, entity_id, "normal")
                    assert derive_seed(*parts) == derive_seed_streaming(*parts)
