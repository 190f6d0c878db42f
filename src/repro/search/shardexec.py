"""Fault-tolerant resident shard executor: supervised worker processes.

:class:`~repro.search.sharding.ShardedSearchEngine` scores every shard
in the calling process.  At production scale each shard is a *server* —
a long-lived process holding its slice of the index hot — and the
scatter crosses a process boundary that can crash, stall and restart.
This module reproduces that topology deterministically:

* **Residency.**  :class:`ShardSupervisor` forks one worker per shard.
  Each worker inherits its frozen :class:`~repro.search.index.InvertedIndex`
  and the broadcast :class:`~repro.search.sharding.GlobalStats`
  copy-on-write through the same publish-then-retract module-global
  handshake as ``repro.core.runner._WORKER_WORLD`` and
  ``repro.search.sharding._BUILDER_GROUPS``, builds its
  :class:`~repro.search.bm25.BM25Scorer` once, and then answers
  ``score`` RPCs over a pipe for its lifetime.  Only picklable
  primitives cross the pipe: term tuples in, ``{doc_id: float}`` out.
  The child runs the byte-identical scoring code on byte-identical
  inputs, so residency changes *where* scoring happens and nothing
  about the floats.

* **Supervision.**  The parent-side :class:`ShardWorker` handle
  serializes pipe use under a witnessed lock (the RPC protocol is
  strict request/response); :class:`ShardSupervisor` health-checks
  workers (:meth:`~ShardSupervisor.heartbeat`), respawns dead ones with
  a **generation bump** — the supervisor-level epoch that tells any
  observer the process serving a shard changed, while the parent's
  index epoch stays put because a respawned worker rebuilds the *same*
  frozen shard and returns the same floats — and turns real pipe death
  (``EOFError``/``BrokenPipeError``: a worker that dies mid-RPC closes
  its pipe ends, so ``recv`` raises instead of hanging) into one
  transparent respawn-and-retry before letting :class:`ShardWorkerError`
  propagate.

* **Degradation.**  :class:`ResidentShardedSearchEngine` plugs the
  supervisor into the sharded engine's ``_score_shard`` seam, so the
  whole PR 5 ladder applies per scatter: deterministic ``search.shard``
  faults from the plan, retry backoff on :class:`SimClock`, a per-shard
  circuit breaker, and — via the ``_shard_fault`` hook — an immediate
  respawn on crash-kind faults so the retry lands on a fresh process.
  A shard lost past the ladder degrades to the partial merge with
  :class:`~repro.resilience.coverage.ShardCoverage` provenance,
  exactly like the in-process engine.

Where ``fork`` is unavailable the supervisor degrades to resident
*thread-side* scorers with a warning (same interface, same floats,
no process boundary), mirroring the study runner and shard builder.

Forked **study** workers (the runner's fork pool) inherit the resident
engine but must not speak over pipes they share with the parent: the
engine records its owner pid and falls back to in-process scoring in
any other process — same scorers, same floats.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections.abc import Sequence

from repro.lockorder import witness_lock
from repro.search.bm25 import BM25Scorer
from repro.search.index import InvertedIndex
from repro.search.seo import SeoWeights
from repro.search.sharding import (
    GlobalStats,
    ShardedIndex,
    ShardedSearchEngine,
)
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import DomainRegistry

__all__ = [
    "ResidentShardedSearchEngine",
    "ShardSupervisor",
    "ShardWorker",
    "ShardWorkerError",
]

#: The resident handshake: ``(shard indexes, broadcast stats)`` published
#: immediately before each worker forks and retracted in the outermost
#: ``finally`` — the ``_WORKER_WORLD`` / ``_BUILDER_GROUPS`` pattern.
#: ``fork`` snapshots the frozen shard copy-on-write into the child, so
#: the index never crosses a pipe; only term tuples and score dicts do.
_RESIDENT_SPEC: "tuple[tuple[InvertedIndex, ...], GlobalStats] | None" = None


class ShardWorkerError(RuntimeError):
    """A resident shard worker died and could not be revived in time.

    A *real* failure (not an injected one): it propagates through the
    resilience ladder like any genuine exception, because retrying a
    worker that will not come back cannot succeed.
    """

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} worker unavailable: {reason}")
        self.shard_id = shard_id
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.shard_id, self.reason))


def _worker_main(shard_id: int, conn) -> None:
    """The resident worker loop: build the scorer once, serve forever.

    Runs in the forked child.  The shard index and global stats arrive
    through the inherited :data:`_RESIDENT_SPEC`; the scorer is built
    (and its norm table warmed) exactly once, which is the point of
    residency — queries pay only the term-at-a-time scoring cost.
    """
    spec = _RESIDENT_SPEC
    if spec is None:  # pragma: no cover - defensive; fork guarantees it
        conn.send(("error", "worker inherited no resident spec"))
        conn.close()
        return
    shards, stats = spec
    scorer = BM25Scorer(shards[shard_id], stats=stats).warm()
    while True:
        try:
            request = conn.recv()
        except EOFError:  # parent closed its end: retire quietly
            return
        op = request[0]
        if op == "score":
            conn.send(("ok", scorer.score_terms(request[1])))
        elif op == "ping":
            conn.send(("ok", shard_id))
        elif op == "stop":
            conn.send(("ok", None))
            return
        else:  # pragma: no cover - protocol misuse
            conn.send(("error", f"unknown op {request[0]!r}"))


class ShardWorker:
    """Parent-side handle of one resident worker process.

    The pipe protocol is strict request/response, so :attr:`_lock`
    serializes RPCs — two serve threads interleaving sends would cross
    each other's replies.  ``Connection.send``/``recv`` only block for
    as long as the child's deterministic scoring runs (or raise on a
    dead pipe), so holding the lock across the round-trip is safe.
    """

    def __init__(self, shard_id: int, process, conn, generation: int) -> None:
        self.shard_id = shard_id
        self.process = process
        self.generation = generation
        self._conn = conn
        self._lock = witness_lock("ShardWorker._lock")

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def _request(self, message: tuple) -> object:
        with self._lock:
            self._conn.send(message)
            status, payload = self._conn.recv()
        if status != "ok":  # pragma: no cover - protocol misuse
            raise ShardWorkerError(self.shard_id, str(payload))
        return payload

    def score(self, terms: Sequence[str]) -> dict[int, float]:
        return self._request(("score", tuple(terms)))

    def ping(self) -> bool:
        """One health-check round-trip; ``False`` on any pipe failure."""
        if not self.alive():
            return False
        try:
            return self._request(("ping",)) == self.shard_id
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
            return False

    def stop(self) -> None:
        """Retire the worker: polite stop RPC, then terminate and reap."""
        process, conn = self.process, self._conn
        if process is None:
            return
        self.process = None
        try:
            with self._lock:
                conn.send(("stop",))
                conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
            pass  # already dead: terminate below reaps it regardless
        try:
            conn.close()
        except OSError:  # pragma: no cover - double close
            pass
        process.terminate()
        process.join()


class _ResidentThreadWorker:
    """The fallback "worker" where ``fork`` is unavailable: the same
    interface over an in-process scorer.  No process boundary, so
    ``alive``/``ping`` always hold and ``stop`` only drops the scorer —
    but generations still advance, so respawn bookkeeping (and the
    chaos tests that assert it) behave identically on every platform.
    """

    def __init__(self, shard_id: int, scorer: BM25Scorer, generation: int) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self._scorer = scorer

    def alive(self) -> bool:
        return self._scorer is not None

    def score(self, terms: Sequence[str]) -> dict[int, float]:
        if self._scorer is None:  # pragma: no cover - use after stop
            raise ShardWorkerError(self.shard_id, "worker stopped")
        return self._scorer.score_terms(terms)

    def ping(self) -> bool:
        return self.alive()

    def stop(self) -> None:
        self._scorer = None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ShardSupervisor:
    """Keeps one resident worker per shard and supervises the fleet.

    :attr:`_lock` guards the worker table and the generation counters;
    it is *not* held across score RPCs (each worker's own lock
    serializes its pipe), so shards answer concurrently.  Respawns are
    generation-checked: concurrent threads that both witness a dead
    worker race to :meth:`respawn`, the loser sees the generation
    already advanced and reuses the winner's fresh worker.
    """

    def __init__(
        self,
        shards: Sequence[InvertedIndex],
        stats: GlobalStats,
        *,
        use_processes: bool | None = None,
    ) -> None:
        if use_processes is None:
            use_processes = _fork_available()
        if use_processes and not _fork_available():
            raise ValueError("process-resident workers require fork")
        if not use_processes and _fork_available() is False:
            warnings.warn(
                "fork start method unavailable; resident shard workers "
                "degrading to in-process scorers (results are identical, "
                "there is no process boundary to crash)",
                RuntimeWarning,
                stacklevel=2,
            )
        self._shards = tuple(shards)
        self._stats = stats
        self._use_processes = use_processes
        self._lock = witness_lock("ShardSupervisor._lock")
        self._workers: dict[int, object] = {}
        self._closed = False
        for shard_id in range(len(self._shards)):
            self._workers[shard_id] = self._spawn(shard_id, generation=0)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def resident_processes(self) -> bool:
        """Whether workers are real processes (``fork``) or the thread
        fallback."""
        return self._use_processes

    # ------------------------------------------------------------------
    # Spawning and supervision

    def _spawn(self, shard_id: int, generation: int):
        """Fork one worker (or build its thread-fallback twin)."""
        if not self._use_processes:
            scorer = BM25Scorer(self._shards[shard_id], stats=self._stats).warm()
            return _ResidentThreadWorker(shard_id, scorer, generation)
        global _RESIDENT_SPEC
        parent_conn, child_conn = multiprocessing.Pipe()
        # The allowlisted shared-global write (conclint CONC001):
        # publish the spec for fork inheritance, retract in the
        # outermost finally no matter what fails — including Process()
        # construction or start() itself (pid/fd exhaustion).
        _RESIDENT_SPEC = (self._shards, self._stats)
        try:
            process = multiprocessing.get_context("fork").Process(
                target=_worker_main,
                args=(shard_id, child_conn),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            process.start()
        finally:
            _RESIDENT_SPEC = None
        child_conn.close()
        return ShardWorker(shard_id, process, parent_conn, generation)

    def worker(self, shard_id: int):
        """The current worker handle for ``shard_id``."""
        with self._lock:
            return self._workers[shard_id]

    def generation(self, shard_id: int) -> int:
        """How many times this shard's worker has been (re)spawned."""
        with self._lock:
            return self._workers[shard_id].generation

    def alive(self, shard_id: int) -> bool:
        return self.worker(shard_id).alive()

    def heartbeat(self) -> dict[int, bool]:
        """One liveness round-trip per shard: ``{shard_id: healthy}``.

        Pure observation — dead shards are reported, not respawned, so
        a monitoring sweep never races the scatter path's own
        generation-checked revival.
        """
        return {
            shard_id: self.worker(shard_id).ping()
            for shard_id in range(len(self._shards))
        }

    def respawn(self, shard_id: int, seen_generation: int | None = None):
        """Replace ``shard_id``'s worker with a freshly spawned one.

        With ``seen_generation`` the respawn is conditional: if another
        thread already revived the shard past that generation, nothing
        is spawned and the incumbent is returned — the loser of the
        race must reuse the winner's worker, not kill it.  The table
        swap happens under the supervisor lock; the retired worker is
        stopped only after release, so the supervisor never acquires a
        worker's pipe lock while holding its own — the two sites stay
        independent in the canonical hierarchy.
        """
        with self._lock:
            if self._closed:
                raise ShardWorkerError(shard_id, "supervisor closed")
            incumbent = self._workers[shard_id]
            if (
                seen_generation is not None
                and incumbent.generation > seen_generation
            ):
                return incumbent
            replacement = self._spawn(
                shard_id, generation=incumbent.generation + 1
            )
            self._workers[shard_id] = replacement
        incumbent.stop()
        return replacement

    # ------------------------------------------------------------------
    # The scatter RPC

    def score(self, shard_id: int, terms: Sequence[str]) -> dict[int, float]:
        """Score ``terms`` on the shard's resident worker.

        Real pipe death (the worker crashed or was killed) earns one
        transparent respawn-and-retry: the revived worker holds the
        same frozen shard, so the retried RPC returns the floats the
        dead worker would have.  A second death in a row propagates as
        :class:`ShardWorkerError` — a genuine failure for the
        resilience ladder to exhaust, never an injected one.
        """
        worker = self.worker(shard_id)
        try:
            return worker.score(terms)
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
            revived = self.respawn(shard_id, seen_generation=worker.generation)
            try:
                return revived.score(terms)
            except (
                EOFError,
                BrokenPipeError,
                ConnectionResetError,
                OSError,
            ) as exc:
                raise ShardWorkerError(
                    shard_id, f"died twice in one scatter ({exc!r})"
                ) from exc

    # ------------------------------------------------------------------
    # Teardown

    def close(self) -> None:
        """Stop every worker and refuse further respawns (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            # Rebind rather than .clear(): the table swap stays guarded
            # either way, and the rebind keeps conclint's name-based
            # dispatch from conflating a dict clear with the cache
            # classes' clear() methods.
            self._workers = {}
        for worker in workers:
            worker.stop()


class ResidentShardedSearchEngine(ShardedSearchEngine):
    """The sharded engine with its shards resident in worker processes.

    A drop-in :class:`ShardedSearchEngine`: ranking, caches, the exact
    merge and the partial-coverage degradation are all inherited — only
    the ``_score_shard`` seam changes, routing each scatter to the
    supervisor's resident worker for that shard.  The workers hold the
    same frozen shard indexes behind the same broadcast stats, so every
    float is identical to the in-process engine's, which is identical
    to the single index's.

    The supervisor table is epoch-tagged like the scorer table: a shard
    mutation moves the composite epoch, the stale fleet is stopped, and
    a fresh one forks against the re-frozen shards — the cache-coherence
    story (cachelint/cachewitness) is unchanged because the query cache
    keys already carry the epoch.

    Process model: the engine records its owner pid at construction.
    Forked study workers inherit the object (and the parent's pipe fds)
    but score in-process instead — two processes speaking over one
    inherited pipe would interleave frames — which reuses the inherited
    warmed scorers and produces the same floats.
    """

    def __init__(
        self,
        corpus: Corpus,
        registry: DomainRegistry,
        weights: SeoWeights | None = None,
        max_per_domain: int = 2,
        *,
        shards: int = 4,
        builders: int = 1,
        build_executor: str = "process",
    ) -> None:
        self._owner_pid = os.getpid()
        #: ``(epoch, supervisor)`` — the resident fleet for that epoch;
        #: single-writer like the scorer/static tables (index mutation
        #: concurrent with queries is outside the engine's contract).
        self._supervisor_table: tuple[int, ShardSupervisor] | None = None
        super().__init__(
            corpus,
            registry,
            weights,
            max_per_domain,
            shards=shards,
            builders=builders,
            build_executor=build_executor,
        )

    def _warm(self) -> None:
        super()._warm()
        if self._corpus.pages:
            self._supervisor()

    def supervisor(self) -> ShardSupervisor:
        """The resident fleet (spawning it on first use)."""
        return self._supervisor()

    def _supervisor(self) -> ShardSupervisor:
        index = self._index
        assert isinstance(index, ShardedIndex)
        epoch = index.epoch
        tagged = self._supervisor_table
        if tagged is not None and tagged[0] == epoch:
            return tagged[1]
        if tagged is not None:
            # The epoch moved: the old fleet serves stale shards.  Stop
            # it before forking successors so worker processes never
            # accumulate across mutations.
            tagged[1].close()
        for shard in index.shards:
            shard.freeze()
        supervisor = ShardSupervisor(index.shards, index.global_stats())
        self._supervisor_table = (epoch, supervisor)
        return supervisor

    def close(self) -> None:
        """Stop the resident fleet (tests and orderly shutdown; the
        daemon flag reaps workers at interpreter exit regardless)."""
        tagged = self._supervisor_table
        if tagged is not None:
            tagged[1].close()
            self._supervisor_table = None

    # ------------------------------------------------------------------
    # The resident seams

    def _score_shard(
        self, shard_id: int, terms: Sequence[str], scorer: BM25Scorer
    ) -> dict[int, float]:
        if os.getpid() != self._owner_pid:
            # A forked study worker: the inherited pipes belong to the
            # parent's RPCs.  Score on the inherited warmed scorer —
            # the same code over the same frozen shard, same floats.
            return scorer.score_terms(terms)
        return self._supervisor().score(shard_id, terms)

    def _shard_fault(self, shard_id: int, fault) -> None:
        """Crash-kind injected faults kill the worker in effigy: the
        supervisor respawns the shard immediately, so the ladder's
        retry exercises the spawn path and lands on a fresh process."""
        if fault.kind != "crash" or os.getpid() != self._owner_pid:
            return
        supervisor = self._supervisor()
        supervisor.respawn(
            shard_id, seen_generation=supervisor.generation(shard_id)
        )
        ctx = self._resilience
        if ctx is not None:
            # Outside every supervisor/worker lock: events take the
            # ResilienceEvents lock, which sits before the shard locks
            # in the canonical hierarchy.
            ctx.events.bump("shard_worker_respawns")
