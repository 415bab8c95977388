"""The n-body pattern (Section 3.2, Fig 5).

"The processors assigned to a job form a virtual ring.  For a job using p
processors, each processor sends a message to its successor in the ring in
each of floor(p/2) ring subphases and then sends a message to the processor
halfway across the ring during a single chordal subphase."

The pattern models a ring-based interparticle force computation: particle
copies migrate around the ring (ring subphases), then accumulated forces are
returned to each particle's owner via a single chord of length floor(p/2)
(chordal subphase).  One cycle is therefore ``floor(p/2) + 1`` subphases of
``p`` messages each (``p >= 2``).
"""

from __future__ import annotations

import numpy as np

from repro.patterns.base import Pattern, register_pattern

__all__ = ["NBody"]


@register_pattern
class NBody(Pattern):
    """Ring subphases plus one chordal subphase per cycle."""

    name = "n-body"
    deterministic_cycle = True

    def cycle(self, p: int, rng: np.random.Generator | None = None) -> np.ndarray:
        self._check_size(p)
        if p == 1:
            return self.empty()
        # floor(p/2) ring subphases tiled in one shot, then the chord.
        ring, chord = self._ring_and_chord(p)
        return np.concatenate([np.tile(ring, (p // 2, 1)), chord], axis=0)

    def weighted_cycle(
        self, p: int, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ring once with multiplicity ``floor(p/2)``, then the chord.

        ``2p`` rows instead of ``p * (floor(p/2) + 1)`` messages.  At
        ``p = 2, 3`` the chord repeats ring pairs; multiplicities of
        repeated rows simply add up.
        """
        self._check_size(p)
        return self._memoised("_weighted_cache", p, self._weighted_rows)

    def _weighted_rows(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        if p == 1:
            return self.empty(), np.empty(0, dtype=np.int64)
        ring, chord = self._ring_and_chord(p)
        mult = np.repeat(np.array([p // 2, 1], dtype=np.int64), p)
        return np.concatenate([ring, chord], axis=0), mult

    @staticmethod
    def _ring_and_chord(p: int) -> tuple[np.ndarray, np.ndarray]:
        """One ring subphase and the chordal subphase, ``(p, 2)`` each."""
        src = np.arange(p, dtype=np.int64)
        ring = np.stack([src, (src + 1) % p], axis=1)
        chord = np.stack([src, (src + p // 2) % p], axis=1)
        return ring, chord

    def rounds(
        self, p: int, rng: np.random.Generator | None = None
    ) -> list[np.ndarray]:
        self._check_size(p)
        if p == 1:
            return []
        return list(self.cycle(p).reshape(p // 2 + 1, p, 2))

    def messages_per_cycle(self, p: int) -> int:
        return (p // 2 + 1) * p if p > 1 else 0

    @staticmethod
    def n_ring_subphases(p: int) -> int:
        """Number of ring subphases in a cycle (floor(p/2))."""
        return p // 2
