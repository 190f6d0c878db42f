"""Shared machinery for the four generative answer engines.

Each engine: (1) selects sources under its persona policy, (2) builds a
context window from their snippets, (3) asks its own simulated LLM to
produce the entity ranking when the query calls for one, and (4) emits a
synthesized answer citing the selected sources.
"""

from __future__ import annotations

from repro.engines.base import Answer, AnswerEngine, Citation
from repro.engines.retrieval import Retriever, SourcingPolicy, detect_intent
from repro.entities.catalog import EntityCatalog
from repro.entities.intents import Intent
from repro.entities.queries import Query, QueryKind
from repro.llm.context import ContextWindow, EvidenceSnippet
from repro.llm.generation import synthesize_answer
from repro.llm.model import GroundingMode, SimulatedLLM
from repro.resilience.faults import ResilienceExhausted
from repro.resilience.quarantine import QuarantineRecord
from repro.search.snippets import SnippetCache, extract_snippet
from repro.search.tokenize import tokenize
from repro.webgraph.pages import Page

__all__ = ["GenerativeEngine", "context_from_pages"]


def context_from_pages(
    pages: list[Page],
    query_text: str,
    max_entities_per_snippet: int = 4,
    snippet_cache: SnippetCache | None = None,
) -> ContextWindow:
    """Build the LLM's context window from retrieved pages.

    Each page contributes one (snippet, url) evidence pair.  A short text
    snippet cannot convey a whole listicle, so its stance map carries only
    the page's ``max_entities_per_snippet`` most prominent entities (the
    page's entity order is prominence order).  Because prominence tracks
    popularity, famous entities end up supported by many snippets while
    obscure ones get one or none — the coverage asymmetry behind the
    paper's citation misses.

    With a ``snippet_cache`` (the world's shared per-page sentence cache)
    the query is analyzed once and page tokenization is memoized; output
    is byte-identical to the uncached :func:`extract_snippet` path.
    """
    if max_entities_per_snippet < 1:
        raise ValueError("max_entities_per_snippet must be at least 1")
    if snippet_cache is not None:
        query_terms = frozenset(tokenize(query_text))
    snippets = []
    for page in pages:
        if snippet_cache is not None:
            text = snippet_cache.extract_with_terms(page, query_terms)
        else:
            text = extract_snippet(page, query_text)
        visible = page.entities[:max_entities_per_snippet]
        snippets.append(
            EvidenceSnippet(
                text=text,
                url=page.url,
                domain=page.domain,
                entity_stance={
                    entity: page.entity_stance[entity]
                    for entity in visible
                    if entity in page.entity_stance
                },
            )
        )
    return ContextWindow(snippets)


class GenerativeEngine(AnswerEngine):
    """Base class for the web-enabled generative engines."""

    def __init__(
        self,
        retriever: Retriever,
        llm: SimulatedLLM,
        catalog: EntityCatalog,
        policy: SourcingPolicy,
    ) -> None:
        super().__init__()
        self._retriever = retriever
        self._llm = llm
        self._catalog = catalog
        self._policy = policy

    @property
    def policy(self) -> SourcingPolicy:
        return self._policy

    def _cache_epoch(self) -> int:
        # Retrieval-grounded answers derive from the index; key the
        # memo on its generation so growth invalidates by key motion.
        return self._retriever.index_epoch

    @property
    def llm(self) -> SimulatedLLM:
        return self._llm

    # ------------------------------------------------------------------
    # Hooks subclasses may override

    def _effective_intent(self, query: Query) -> Intent:
        return query.intent if query.intent is not None else detect_intent(query.text)

    def _should_search(self, query: Query, intent: Intent) -> bool:
        """Whether the engine invokes its web tool for this query."""
        return True

    def _candidate_pool(self, query: Query) -> list[tuple[float, Page]] | None:
        """Override to replace the engine's own retrieval (Gemini)."""
        return None

    # ------------------------------------------------------------------

    def _select_sources(self, query: Query, intent: Intent) -> list[Page]:
        return self._retriever.select_sources(
            query.text,
            self._policy,
            intent=intent,
            pool=self._candidate_pool(query),
        )

    def _answer_uncached(self, query: Query) -> Answer:
        intent = self._effective_intent(query)
        if not self._should_search(query, intent):
            return self._prior_only_answer(query)

        try:
            sources = self._select_sources(query, intent)
        except ResilienceExhausted as exc:
            # Rung of the degradation ladder: retrieval is down for this
            # query, but the engine can still answer from pre-training —
            # exactly what a web-enabled assistant does when its tool
            # call fails.  The degraded answer has no citations, so the
            # sourcing analyses see the cell as missing data.
            ctx = getattr(self, "_resilience", None)
            if ctx is None or ctx.config.fail_fast:
                raise
            ctx.events.bump("degraded_answers")
            ctx.quarantine.record(
                QuarantineRecord(
                    phase=ctx.current_phase,
                    site=exc.site,
                    engine=self.name,
                    key=query.id,
                    attempts=exc.attempts,
                    reason=exc.reason,
                    kind="degraded",
                )
            )
            return self._prior_only_answer(query)
        ranked: tuple[str, ...] = ()
        if query.kind in (QueryKind.RANKING, QueryKind.COMPARISON) and query.entities:
            context = context_from_pages(
                sources,
                query.text,
                snippet_cache=self._retriever.snippet_cache,
            )
            result = self._llm.rank_entities(
                query.text,
                list(query.entities),
                context,
                mode=GroundingMode.NORMAL,
                top_k=min(query.top_k, len(query.entities)),
            )
            ranked = result.ranking
        text = synthesize_answer(query.text, sources, self._catalog, ranked)
        return Answer(
            engine=self.name,
            query_id=query.id,
            text=text,
            citations=tuple(
                Citation(url=page.url, domain=page.domain, page=page)
                for page in sources
            ),
            ranked_entities=ranked,
        )

    def _prior_only_answer(self, query: Query) -> Answer:
        """Answer from pre-training alone: no web tool, no citations."""
        ranked: tuple[str, ...] = ()
        if query.entities:
            empty = ContextWindow([])
            result = self._llm.rank_entities(
                query.text,
                list(query.entities),
                empty,
                mode=GroundingMode.NORMAL,
                top_k=min(query.top_k, len(query.entities)),
            )
            ranked = result.ranking
        text = synthesize_answer(query.text, [], self._catalog, ranked)
        return Answer(
            engine=self.name,
            query_id=query.id,
            text=text,
            citations=(),
            ranked_entities=ranked,
        )
