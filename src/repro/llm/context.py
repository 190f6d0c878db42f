"""The context window: ordered evidence snippets.

Section 3.1 retrieves evidence ``D_q = {(s_j, u_j)}`` — ordered pairs of
text snippets and URLs — and feeds it to the model.  The perturbation
experiments operate on this object: Snippet Shuffle permutes it,
Entity-Swap Injection rewrites entity mentions inside it, and strict
grounding restricts the model to it.

The window exposes an **order-sensitive fingerprint**: hashing the
snippets *in order* means any permutation re-derives the model's noise,
which is precisely how a temperature-0 transformer reacts to reordered
context.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

from repro.llm.rng import derive_seed

__all__ = ["ContextWindow", "EvidenceSnippet"]


@dataclass(frozen=True)
class EvidenceSnippet:
    """One (snippet, url) evidence pair.

    ``entity_stance`` maps entity ids substantively discussed by the
    snippet to the stance a reader would extract, in ``[-1, 1]``.
    """

    text: str
    url: str
    domain: str
    entity_stance: dict[str, float]

    def supports(self, entity_id: str) -> bool:
        """Whether the snippet provides evidence about ``entity_id``."""
        return entity_id in self.entity_stance

    def with_stances(self, stances: dict[str, float]) -> "EvidenceSnippet":
        """Copy with a replaced stance map (used by ESI)."""
        return replace(self, entity_stance=dict(stances))


class ContextWindow(Sequence[EvidenceSnippet]):
    """An immutable, ordered sequence of evidence snippets."""

    def __init__(self, snippets: Iterable[EvidenceSnippet]) -> None:
        self._snippets = tuple(snippets)
        #: Memoized :meth:`fingerprint` (``None`` until first asked).
        #: Published by a single attribute store: a racing first call
        #: computes and stores the same integer.
        self._fingerprint: int | None = None

    def __len__(self) -> int:
        return len(self._snippets)

    def __getitem__(self, index):  # Sequence protocol
        if isinstance(index, slice):
            return ContextWindow(self._snippets[index])
        return self._snippets[index]

    def __iter__(self) -> Iterator[EvidenceSnippet]:
        return iter(self._snippets)

    def fingerprint(self) -> int:
        """Order-sensitive identity of the window.

        Two windows with the same snippets in a different order have
        different fingerprints — the mechanism behind order sensitivity.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        parts: list[object] = ["ctx"]
        for snippet in self._snippets:
            parts.append(snippet.url)
            parts.append(snippet.text)
            # Stance maps matter too: ESI changes stances, not URLs.
            for entity_id in sorted(snippet.entity_stance):
                parts.append(entity_id)
                parts.append(round(snippet.entity_stance[entity_id], 6))
        fingerprint = self._fingerprint = derive_seed(*parts)
        return fingerprint

    def support(self, entity_id: str) -> list[tuple[int, EvidenceSnippet]]:
        """(position, snippet) pairs mentioning ``entity_id``, in order."""
        return [
            (position, snippet)
            for position, snippet in enumerate(self._snippets)
            if snippet.supports(entity_id)
        ]

    def supported_entities(self) -> set[str]:
        """All entity ids with at least one supporting snippet."""
        entities: set[str] = set()
        for snippet in self._snippets:
            entities.update(snippet.entity_stance)
        return entities

    def mention_count(self) -> int:
        """Total entity mentions across snippets (redundancy numerator)."""
        return sum(len(s.entity_stance) for s in self._snippets)

    def reordered(self, order: Sequence[int]) -> "ContextWindow":
        """A window with snippets permuted by ``order``."""
        if sorted(order) != list(range(len(self._snippets))):
            raise ValueError("order must be a permutation of snippet positions")
        return ContextWindow(self._snippets[i] for i in order)
