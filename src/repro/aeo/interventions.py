"""Causal what-if experiments: inject content, re-measure presence.

A :class:`ContentPlan` describes a publishing campaign for one entity —
how many pages, of which source type, how fresh, how favorable.  The
:class:`InterventionLab` injects the campaign into a copy of the web,
rebuilds the retrieval ecosystem around it, and re-runs the presence
audit, yielding the *causal* effect of the campaign on AI-search and
web-search visibility.

One fidelity detail matters: injected pages enter the **retrieval** web
immediately, but NOT the engines' **pre-training priors** — new content
influences what can be retrieved today, while priors only move at the
next training cut.  The lab therefore rebuilds engines with their
knowledge pinned to the base corpus.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.aeo.audit import BrandAuditor, PresenceAudit
from repro.core.world import World
from repro.engines.registry import build_engines
from repro.engines.retrieval import Retriever
from repro.entities.queries import Query
from repro.entities.verticals import get_vertical
from repro.llm.rng import derive_rng
from repro.search.engine import SearchEngine
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import SourceType
from repro.webgraph.pages import DateMarkup, Page, PageKind

__all__ = ["ContentPlan", "InterventionLab", "InterventionOutcome"]


@dataclass(frozen=True)
class ContentPlan:
    """A publishing campaign for one entity.

    Attributes
    ----------
    name:
        Label used in reports ("fresh earned reviews").
    entity_id:
        The campaign's subject.
    source_type:
        Where the content lives: EARNED places coverage on the strongest
        editorial outlets in the vertical, BRAND publishes on the
        entity's own domain, SOCIAL seeds discussion threads.
    page_count:
        Campaign size.
    age_days:
        Freshness of the placed pages at audit time.
    stance:
        How favorable the coverage reads, in ``[-1, 1]``.
    quality / seo_score:
        Editorial quality and on-page optimization of the placed pages.
    domains:
        Optional explicit placement domains; defaults per source type.
    """

    name: str
    entity_id: str
    source_type: SourceType = SourceType.EARNED
    page_count: int = 4
    age_days: int = 7
    stance: float = 0.8
    quality: float = 0.8
    seo_score: float = 0.7
    domains: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.page_count < 1:
            raise ValueError("page_count must be at least 1")
        if self.age_days < 0:
            raise ValueError("age_days must be non-negative")
        if not -1.0 <= self.stance <= 1.0:
            raise ValueError("stance must be in [-1, 1]")
        for bound_name in ("quality", "seo_score"):
            if not 0.0 <= getattr(self, bound_name) <= 1.0:
                raise ValueError(f"{bound_name} must be in [0, 1]")


@dataclass(frozen=True)
class InterventionOutcome:
    """Presence before and after one campaign."""

    plan: ContentPlan
    baseline: PresenceAudit
    after: PresenceAudit

    def ai_citation_lift(self) -> float:
        """Change in mean AI citation coverage (fraction of queries)."""
        return (
            self.after.mean_ai_citation_coverage()
            - self.baseline.mean_ai_citation_coverage()
        )

    def serp_lift(self) -> float:
        """Change in Google SERP coverage."""
        return self.after.serp_coverage - self.baseline.serp_coverage

    def ranking_lift(self) -> dict[str, float]:
        """Per-engine change in synthesized-ranking presence."""
        return {
            name: self.after.ai_ranking_presence[name]
            - self.baseline.ai_ranking_presence[name]
            for name in self.after.ai_ranking_presence
        }


class InterventionLab:
    """Builds counterfactual worlds from content plans."""

    def __init__(self, base_world: World) -> None:
        self._base = base_world

    @property
    def base_world(self) -> World:
        return self._base

    # ------------------------------------------------------------------
    # Page fabrication

    def _placement_domains(self, plan: ContentPlan) -> list[str]:
        if plan.domains:
            for domain in plan.domains:
                if domain not in self._base.registry:
                    raise ValueError(f"unknown placement domain {plan.domains}")
            return list(plan.domains)
        entity = self._base.catalog.get(plan.entity_id)
        if plan.source_type is SourceType.BRAND:
            if entity.brand_domain is None:
                raise ValueError(f"{plan.entity_id} has no brand domain")
            return [entity.brand_domain]
        candidates = [
            record
            for record in self._base.registry.covering(entity.vertical)
            if record.source_type is plan.source_type and not record.is_retailer
        ]
        if not candidates:
            raise ValueError(
                f"no {plan.source_type.value} domains cover {entity.vertical}"
            )
        candidates.sort(key=lambda record: -record.authority)
        return [record.name for record in candidates[:4]]

    def _fabricate_pages(self, plan: ContentPlan, next_doc_id: int) -> list[Page]:
        entity = self._base.catalog.get(plan.entity_id)
        vertical = get_vertical(entity.vertical)
        clock = self._base.corpus.clock
        published = clock.date_for_age(plan.age_days)
        domains = self._placement_domains(plan)
        rng = derive_rng("aeo", plan.name, plan.entity_id)

        pages = []
        for index in range(plan.page_count):
            domain = domains[index % len(domains)]
            keyword = vertical.keywords[index % len(vertical.keywords)]
            if plan.source_type is SourceType.SOCIAL:
                kind = PageKind.FORUM_THREAD
                title = f"{entity.name} experiences? ({vertical.noun} thread)"
                closing = "Several commenters agreed enthusiastically."
            elif plan.source_type is SourceType.BRAND:
                kind = PageKind.PRODUCT
                title = f"{entity.name} official: explore {vertical.noun}"
                closing = f"Discover what makes {entity.name} stand out."
            else:
                kind = PageKind.REVIEW
                qualifier = vertical.qualifiers[index % len(vertical.qualifiers)]
                title = f"{entity.name} review: {qualifier} {vertical.noun} tested"
                closing = f"Our verdict places {entity.name} at the top."
            body = "\n".join(
                (
                    f"We looked closely at {vertical.noun}, focusing on {keyword}.",
                    f"{entity.name} proved excellent in our {keyword} assessment.",
                    closing,
                )
            )
            slug = f"aeo-{plan.name.replace(' ', '-')}-{index}".lower()
            pages.append(
                Page(
                    doc_id=next_doc_id + index,
                    url=f"https://{domain}/{vertical.id.replace('_', '-')}/{slug}",
                    domain=domain,
                    kind=kind,
                    vertical=vertical.id,
                    title=title,
                    body=body,
                    published=published,
                    date_markup=DateMarkup.META,
                    entities=(entity.id,),
                    entity_stance={entity.id: plan.stance},
                    quality=plan.quality,
                    seo_score=plan.seo_score,
                )
            )
        return pages

    # ------------------------------------------------------------------
    # World rebuilding

    def apply(self, plan: ContentPlan) -> World:
        """The counterfactual world with the campaign published.

        Retrieval (index, ranking, engines' source selection) sees the
        new pages; the engines' pre-training priors stay pinned to the
        base corpus.
        """
        base_corpus = self._base.corpus
        next_doc_id = max(page.doc_id for page in base_corpus.pages) + 1
        injected = self._fabricate_pages(plan, next_doc_id)
        corpus = Corpus(
            pages=[*base_corpus.pages, *injected],
            link_graph=base_corpus.link_graph,
            clock=base_corpus.clock,
        )
        config = self._base.config
        registry = self._base.registry
        catalog = self._base.catalog

        search_engine = SearchEngine(corpus, registry)
        retriever = Retriever(corpus, registry, search_engine)
        engines = build_engines(
            corpus, retriever, catalog, search_engine,
            study_seed=config.seed,
            prior_corpus=base_corpus,
        )
        return replace(
            self._base,
            corpus=corpus,
            search_engine=search_engine,
            engines=engines,
            retriever=retriever,
        )

    def evaluate(
        self,
        plans: Sequence[ContentPlan],
        queries: Sequence[Query] | None = None,
        query_count: int = 25,
        query_seed: int = 0,
    ) -> list[InterventionOutcome]:
        """Run baseline + per-plan audits over a shared workload.

        All plans must target the same entity (the audit workload is the
        entity's vertical).
        """
        if not plans:
            raise ValueError("at least one plan is required")
        entity_ids = {plan.entity_id for plan in plans}
        if len(entity_ids) != 1:
            raise ValueError("all plans must target the same entity")
        entity_id = plans[0].entity_id

        base_auditor = BrandAuditor(self._base)
        workload = (
            list(queries)
            if queries is not None
            else base_auditor.default_queries(entity_id, query_count, query_seed)
        )
        baseline = base_auditor.audit(entity_id, workload)

        outcomes = []
        for plan in plans:
            counterfactual = self.apply(plan)
            after = BrandAuditor(counterfactual).audit(entity_id, workload)
            outcomes.append(
                InterventionOutcome(plan=plan, baseline=baseline, after=after)
            )
        return outcomes
