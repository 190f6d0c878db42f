"""SEO signal model: how Google-style organic ranking weighs a page.

The paper's framing: Google's ranking is the product of SEO logic —
text relevance, link authority, on-page optimization, and only a weak
freshness preference (which is why its cited pages are much older than the
AI engines', Figure 4).  :class:`SeoWeights` captures that blend; the
search engine normalizes each component to ``[0, 1]`` and takes the
weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SeoWeights", "freshness_decay"]


def freshness_decay(age_days: int, half_life_days: float = 365.0) -> float:
    """Exponential freshness signal in ``(0, 1]``; 1.0 = published today."""
    if age_days < 0:
        raise ValueError("age_days must be non-negative")
    if half_life_days <= 0:
        raise ValueError("half_life_days must be positive")
    return math.pow(0.5, age_days / half_life_days)


@dataclass(frozen=True)
class SeoWeights:
    """Blend weights for the organic ranking function.

    The defaults encode the paper's Google: relevance and authority
    dominate, on-page SEO matters, freshness barely does.  Weights need
    not sum to one (the blend is a plain weighted sum of normalized
    components), but the defaults do for interpretability.
    """

    relevance: float = 0.42
    authority: float = 0.34
    on_page_seo: float = 0.16
    freshness: float = 0.08
    freshness_half_life_days: float = 365.0

    def __post_init__(self) -> None:
        for name in ("relevance", "authority", "on_page_seo", "freshness"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} weight must be non-negative")
        if self.freshness_half_life_days <= 0:
            raise ValueError("freshness_half_life_days must be positive")
        if self.relevance + self.authority + self.on_page_seo + self.freshness == 0:
            raise ValueError("at least one weight must be positive")
