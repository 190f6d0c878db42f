"""Okapi BM25 scoring over the inverted index.

Standard formulation with the non-negative IDF variant
(``log(1 + (N - df + 0.5) / (df + 0.5))``), so very common terms score
zero rather than negative — important in a small synthetic corpus where a
vertical keyword can appear in most documents.

:meth:`BM25Scorer.score_terms` is the query fast path: term-at-a-time
accumulation over the index's frozen postings arrays, with the per-doc
length norm ``k1 * (1 - b + b * dl/avgdl)`` precomputed once per index
epoch.  A term's per-posting gain ``idf * tf * (k1 + 1) / (tf + norm)``
depends only on the term and the document, so the first query that reads
a term computes its gains once into an ``array('d')`` aligned with the
term's postings; later queries do one dict add per posting.  It is
**bit-identical** to the original posting-walk implementation, which
lives with the tests as an oracle (``tests/search_oracles.py``), because
every float is produced by the same operations in the same order; the
property tests in ``tests/search/test_fastpath_equivalence.py`` hold the
two to exact equality.  A world builds one scorer per index, the search
engine's, which the retriever reads too.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping, Sequence
from typing import Protocol

from repro.search.index import InvertedIndex
from repro.search.tokenize import tokenize

__all__ = ["BM25Scorer", "CorpusStats"]

#: A term's ``(doc_ids, gains)``: the postings' doc ids and each
#: posting's BM25 contribution, or ``None`` for a zero-IDF term.
TermGains = tuple[Sequence[int], array] | None


class CorpusStats(Protocol):
    """The corpus-level statistics BM25 reads: N, avgdl, and df.

    An :class:`InvertedIndex` satisfies this directly (the single-shard
    default).  A sharded deployment substitutes the merged
    :class:`repro.search.sharding.GlobalStats` so every shard's scorer
    sees corpus-wide numbers — the seam that makes per-shard scores
    float-exact equal to single-shard scores.
    """

    @property
    def doc_count(self) -> int: ...

    @property
    def average_doc_length(self) -> float: ...

    def document_frequency(self, term: str) -> int: ...


class BM25Scorer:
    """BM25 with tunable ``k1`` (tf saturation) and ``b`` (length norm).

    ``stats`` defaults to the index itself; passing corpus-wide
    statistics instead changes *which numbers* feed the formula, never
    the operations or their order — so a shard scorer handed global
    stats reproduces the single-shard floats exactly.  External stats
    are a frozen snapshot: if the index grows, build a fresh scorer
    from re-exchanged stats (the sharded engine epoch-tags its scorers
    for exactly this).
    """

    def __init__(
        self,
        index: InvertedIndex,
        k1: float = 1.4,
        b: float = 0.75,
        *,
        stats: CorpusStats | None = None,
    ) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self._index = index
        self._stats: CorpusStats = stats if stats is not None else index
        self._k1 = k1
        self._b = b
        #: ``(epoch, table)`` — per-doc ``k1 * (1 - b + b * dl/avgdl)``,
        #: rebuilt lazily when the index epoch moves.  Published by a
        #: single attribute store (see the sharing contract): a racing
        #: rebuild under the thread executor swaps in an identical table.
        self._norm_table: tuple[int, Sequence[float] | Mapping[int, float]] | None = None
        #: ``(epoch, term -> TermGains)`` — filled one term at a time on
        #: first use and dropped wholesale when the index epoch moves.
        #: A new epoch's table is published by a single attribute store
        #: and each entry by a single dict store; racing fills under the
        #: thread executor store identical gains.
        self._gain_table: tuple[int, dict[str, TermGains]] | None = None

    def idf(self, term: str) -> float:
        """Non-negative inverse document frequency for an analyzed term."""
        n = self._stats.doc_count
        df = self._stats.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def warm(self) -> "BM25Scorer":
        """Precompute the norm table now (idempotent; returns self).

        Called at world assembly so forked pool workers inherit the table
        instead of each rebuilding it on first query.
        """
        if self._stats.average_doc_length != 0.0:
            self._norms()
        return self

    def clear_gains(self) -> None:
        """Drop the per-term gain table (the next query refills it)."""
        self._gain_table = None

    def _norms(self) -> Sequence[float] | Mapping[int, float]:
        epoch = self._index.epoch
        cached = self._norm_table
        if cached is not None and cached[0] == epoch:
            return cached[1]
        avg_len = self._stats.average_doc_length
        k1, b = self._k1, self._b
        dense, lengths = self._index.doc_length_table()
        table: Sequence[float] | Mapping[int, float]
        if dense:
            # Same expression the reference evaluates per posting:
            # k1 * (1.0 - b + b * (dl / avg_len)), hoisted per document.
            table = [k1 * (1.0 - b + b * (dl / avg_len)) for dl in lengths]
        else:
            table = {
                doc_id: k1 * (1.0 - b + b * (dl / avg_len))
                for doc_id, dl in lengths.items()
            }
        self._norm_table = (epoch, table)
        return table

    def score_all(self, query: str) -> dict[int, float]:
        """BM25 scores for every document matching at least one term."""
        return self.score_terms(tokenize(query))

    def _term_gains(self, term: str) -> TermGains:
        """The term's per-posting gains at the current epoch (memoized)."""
        epoch = self._index.epoch
        tagged = self._gain_table
        if tagged is None or tagged[0] != epoch:
            tagged = (epoch, {})
            self._gain_table = tagged
        table = tagged[1]
        if term in table:
            return table[term]
        entry: TermGains = None
        idf = self.idf(term)
        if idf != 0.0:
            norms = self._norms()
            k1_plus_1 = self._k1 + 1.0
            doc_ids, tfs = self._index.postings_arrays(term)
            entry = (
                doc_ids,
                array(
                    "d",
                    [
                        idf * tf * k1_plus_1 / (tf + norms[doc_id])
                        for doc_id, tf in zip(doc_ids, tfs)
                    ],
                ),
            )
        table[term] = entry
        return entry

    def score_terms(self, terms: Sequence[str]) -> dict[int, float]:
        """BM25 scores from pre-analyzed query terms (the fast path)."""
        scores: dict[int, float] = {}
        if self._stats.average_doc_length == 0.0:
            return scores
        get = scores.get
        for term in terms:
            entry = self._term_gains(term)
            if entry is None:
                continue
            for doc_id, gain in zip(*entry):
                scores[doc_id] = get(doc_id, 0.0) + gain
        return scores
