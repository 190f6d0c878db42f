"""Construction of the calibrated engine fleet.

Each generative engine is a *different* LLM: it gets its own
:class:`PretrainedKnowledge` (own model seed, hence own frozen priors) on
top of the shared pre-training web.
"""

from __future__ import annotations

from repro.engines.base import AnswerEngine
from repro.engines.claude import ClaudeEngine
from repro.engines.gemini import GeminiEngine
from repro.engines.google import GoogleEngine
from repro.engines.gpt4o import Gpt4oEngine
from repro.engines.perplexity import PerplexityEngine
from repro.engines.retrieval import Retriever
from repro.entities.catalog import EntityCatalog
from repro.llm.model import LLMConfig, SimulatedLLM
from repro.llm.pretraining import PretrainedKnowledge
from repro.llm.rng import derive_seed
from repro.search.engine import SearchEngine
from repro.webgraph.corpus import Corpus

__all__ = ["AI_ENGINE_NAMES", "ENGINE_NAMES", "build_engines"]


# Canonical display order used in figures.
ENGINE_NAMES = ("Google", "GPT-4o", "Claude", "Gemini", "Perplexity")
AI_ENGINE_NAMES = ENGINE_NAMES[1:]


def build_engines(
    corpus: Corpus,
    retriever: Retriever,
    catalog: EntityCatalog,
    search_engine: SearchEngine,
    *,
    study_seed: int = 0,
    prior_corpus: Corpus | None = None,
) -> dict[str, AnswerEngine]:
    """Build the five compared systems, keyed by display name.

    The four generative engines share ``retriever`` — the world's one
    retriever over ``search_engine``'s index and scorer.

    ``study_seed`` derives a distinct model seed per engine, so each LLM
    has its own pre-training noise realization (as distinct commercial
    models do) while sharing the same pre-training web.

    ``prior_corpus`` pins the LLMs' pre-training knowledge to a different
    corpus than the one they retrieve from.  The AEO intervention lab
    uses this to model content that is live on the web (retrievable) but
    published after the models' training cut (absent from priors).
    """
    knowledge_corpus = prior_corpus if prior_corpus is not None else corpus

    def llm_for(engine_name: str) -> SimulatedLLM:
        model_seed = derive_seed("model", study_seed, engine_name)
        knowledge = PretrainedKnowledge(
            knowledge_corpus, catalog, model_seed=model_seed
        )
        return SimulatedLLM(knowledge, LLMConfig(seed=model_seed))

    return {
        "Google": GoogleEngine(search_engine),
        "GPT-4o": Gpt4oEngine(retriever, llm_for("GPT-4o"), catalog),
        "Claude": ClaudeEngine(retriever, llm_for("Claude"), catalog),
        "Gemini": GeminiEngine(
            retriever, llm_for("Gemini"), catalog, search_engine
        ),
        "Perplexity": PerplexityEngine(retriever, llm_for("Perplexity"), catalog),
    }
