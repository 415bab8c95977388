"""Pattern interface and registry.

Rank-level pairs are integers in ``[0, p)``; the simulator maps rank ``r``
to the ``r``-th processor of the job's allocation (allocation order defines
the job's virtual topology, e.g. the n-body ring), which mirrors how MPI
ranks land on an allocated node list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Pattern", "register_pattern", "get_pattern", "pattern_names"]

_EMPTY = np.empty((0, 2), dtype=np.int64)


class Pattern(ABC):
    """A communication pattern parameterised only by job size.

    Deterministic patterns ignore the ``rng`` argument; stochastic ones
    (``random``) use it so experiments stay reproducible.
    """

    #: Registry key and display name, set by subclasses.
    name: str = "abstract"

    #: True when ``cycle(p)`` depends on ``p`` alone (no rng).  The
    #: simulator skips per-job rng construction for such patterns and may
    #: reuse one cached cycle per size via :meth:`cached_cycle`.
    deterministic_cycle: bool = False

    #: True when one cycle is exactly the set of all ordered rank pairs
    #: (all-to-all and its broadcast grouping).  The fluid engine then
    #: builds the per-link load profile in closed form without
    #: materialising the ``p * (p - 1)`` pair array at all.
    uniform_all_pairs: bool = False

    @abstractmethod
    def cycle(self, p: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """One full cycle of rank-level (src, dst) pairs, shape ``(m, 2)``.

        Single-processor jobs (``p == 1``) yield an empty cycle: they
        communicate with nobody, and the simulator runs them at the nominal
        issue rate.
        """

    def rounds(
        self, p: int, rng: np.random.Generator | None = None
    ) -> list[np.ndarray]:
        """Cycle messages grouped into bulk-synchronous rounds.

        The default implementation puts the whole cycle in one round;
        subclasses with phase structure (n-body, ping-pong, ...) override.
        """
        pairs = self.cycle(p, rng)
        return [pairs] if len(pairs) else []

    def messages_per_cycle(self, p: int) -> int:
        """Cycle length for deterministic patterns (used for quota math)."""
        return len(self.cycle(p))

    def cached_cycle(self, p: int) -> np.ndarray:
        """Memoised, read-only ``cycle(p)`` for deterministic patterns.

        One job-size cycle is shared across every job of that size, so the
        returned array is marked non-writeable; stochastic patterns must
        keep going through :meth:`cycle`.
        """
        if not self.deterministic_cycle:
            raise ValueError(
                f"pattern {self.name!r} is stochastic; cycles cannot be cached"
            )
        return self._memoised("_cycle_cache", p, self.cycle)

    def _memoised(self, slot: str, p: int, build):
        """Per-size memo of ``build(p)``: an array or a tuple of arrays,
        stored read-only because every job of that size shares it."""
        cache = self.__dict__.setdefault(slot, {})
        value = cache.get(p)
        if value is None:
            value = build(p)
            for arr in value if isinstance(value, tuple) else (value,):
                arr.setflags(write=False)
            cache[p] = value
        return value

    def weighted_cycle(
        self, p: int, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One cycle as ``(pairs, mult)``: rank pairs with multiplicities.

        Repeating row ``i`` of ``pairs`` ``mult[i]`` times yields the same
        multiset of messages as :meth:`cycle` (order aside), so load
        accumulation can route each row once with weight ``mult[i]``.  The
        default is the plain cycle with unit multiplicity (memoised per
        size for deterministic patterns); patterns whose cycles repeat
        messages override it.
        """
        if not self.deterministic_cycle:
            return _unit_rows(self.cycle(p, rng))
        return self._memoised(
            "_weighted_cache", p, lambda p: _unit_rows(self.cached_cycle(p))
        )

    @staticmethod
    def _check_size(p: int) -> None:
        if p < 1:
            raise ValueError(f"job size must be >= 1, got {p}")

    @staticmethod
    def empty() -> np.ndarray:
        """The canonical empty pair array."""
        return _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _unit_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(pairs, mult)`` with every row sent once."""
    return pairs, np.ones(len(pairs), dtype=np.int64)


_REGISTRY: dict[str, type[Pattern]] = {}


def register_pattern(cls: type[Pattern]) -> type[Pattern]:
    """Class decorator adding a pattern to the by-name registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("pattern classes must define a unique name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate pattern name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_pattern(name: str, **kwargs) -> Pattern:
    """Instantiate a registered pattern by name (e.g. ``"all-to-all"``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def pattern_names() -> list[str]:
    """Names of all registered patterns."""
    return sorted(_REGISTRY)
