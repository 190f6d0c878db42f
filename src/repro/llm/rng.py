"""Deterministic RNG derivation.

The paper runs gpt-4o "with deterministic settings": the same prompt and
context always yield the same answer, yet *reordering the context changes
the answer* (that is the whole point of the snippet-shuffle experiment).
We reproduce this by deriving every stochastic draw from a SHA-256 hash of
the call's full identity — model seed, query, ordered context fingerprint,
entity, channel.  Identical calls are bit-identical; any change to the
context (including pure reordering) re-rolls the noise, exactly like a
temperature-0 transformer whose logits shift with token positions.

Hot callers that derive many seeds sharing leading components (one
query's per-page selection jitter) hash the shared part once with
:class:`SeedPrefix`; SHA-256 is a streaming hash, so extending a copy of
the prefix state with the remaining components yields exactly the digest
of the full byte string, hence exactly :func:`derive_seed`'s seed.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["SeedPrefix", "derive_rng", "derive_seed"]

_sha256 = hashlib.sha256


def _encode(components: tuple[object, ...]) -> bytes:
    """The unambiguous byte encoding of ``components``.

    Each component is its ``str`` as UTF-8, preceded by its byte length
    and ``:`` and followed by ``|``, so ``("ab", "c")`` and
    ``("a", "bc")`` encode (and therefore hash) differently.
    """
    parts = []
    for component in components:
        text = str(component)
        parts.append(f"{len(text.encode('utf-8'))}:{text}|")
    return "".join(parts).encode("utf-8")


def _seed_of(hasher) -> int:
    return int.from_bytes(hasher.digest()[:8], "big")


def derive_seed(*components: object) -> int:
    """A 64-bit seed from the hash of the stringified components.

    Components are joined with an unambiguous length-prefixed encoding so
    ``("ab", "c")`` and ``("a", "bc")`` derive different seeds.
    """
    return _seed_of(_sha256(_encode(components)))


def derive_rng(*components: object) -> random.Random:
    """A ``random.Random`` seeded from :func:`derive_seed`."""
    return random.Random(derive_seed(*components))


class SeedPrefix:
    """Leading seed components, hashed once.

    ``SeedPrefix(*head).seed(*tail) == derive_seed(*head, *tail)`` for
    every split of the components: the prefix holds the SHA-256 state
    after the head's bytes, and each call extends a copy of it.
    """

    __slots__ = ("_hasher",)

    def __init__(self, *components: object) -> None:
        self._hasher = _sha256(_encode(components))

    def seed(self, *components: object) -> int:
        """:func:`derive_seed` of the prefix followed by ``components``."""
        hasher = self._hasher.copy()
        hasher.update(_encode(components))
        return _seed_of(hasher)

    def rng(self, *components: object) -> random.Random:
        """:func:`derive_rng` of the prefix followed by ``components``."""
        return random.Random(self.seed(*components))
