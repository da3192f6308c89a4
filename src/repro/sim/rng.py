"""Deterministic randomness for reproducible experiments.

Every stochastic component (workload generators, fault-arrival processes,
malicious-client payloads) draws from a :class:`SeedSequence`-style hierarchy
so that (a) a whole experiment is reproducible from one root seed and (b)
changing how many draws one component makes does not perturb any other
component — the classic "stream splitting" discipline for simulation studies.
"""

from __future__ import annotations

import random
from typing import Iterator


class RngFactory:
    """Derives independent, named random streams from a single root seed.

    Streams are identified by string labels; the same ``(root_seed, label)``
    pair always yields an identically-seeded :class:`random.Random`. Labels
    should name the consumer, e.g. ``"faults"``, ``"keys/client-3"``.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, label: str) -> random.Random:
        """Return a fresh deterministic generator for ``label``."""
        return random.Random(self._derive(label))

    def child(self, label: str) -> "RngFactory":
        """Return a sub-factory whose streams are independent of this one's."""
        return RngFactory(self._derive(f"factory/{label}"))

    def _derive(self, label: str) -> int:
        # Stable across processes and Python versions: hash() is salted, so
        # use a simple FNV-1a over the label mixed with the root seed instead.
        h = 0xCBF29CE484222325
        for byte in label.encode("utf-8"):
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return (h ^ (self._root_seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF


def zipf_weights(n: int, skew: float) -> list[float]:
    """Normalised Zipf(``skew``) popularity weights for ranks ``1..n``.

    ``skew == 0`` degenerates to the uniform distribution; typical key-value
    cache studies (including the Memcached literature the paper's use case
    comes from) use skew around 0.99.
    """
    if n <= 0:
        raise ValueError(f"need at least one rank, got n={n}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    raw = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfSampler:
    """Samples integer ranks ``0..n-1`` with Zipfian popularity.

    Uses the alias method for O(1) draws, which matters because workload
    benchmarks draw hundreds of thousands of keys.
    """

    def __init__(self, n: int, skew: float, rng: random.Random) -> None:
        self._n = n
        self._rng = rng
        weights = zipf_weights(n, skew)
        self._prob, self._alias = _build_alias_table(weights)

    @property
    def n(self) -> int:
        return self._n

    def sample(self) -> int:
        column = self._rng.randrange(self._n)
        if self._rng.random() < self._prob[column]:
            return column
        return self._alias[column]

    def samples(self, count: int) -> Iterator[int]:
        for _ in range(count):
            yield self.sample()


def _build_alias_table(weights: list[float]) -> tuple[list[float], list[int]]:
    """Vose's alias method initialisation."""
    n = len(weights)
    prob = [0.0] * n
    alias = [0] * n
    scaled = [w * n for w in weights]
    small = [i for i, w in enumerate(scaled) if w < 1.0]
    large = [i for i, w in enumerate(scaled) if w >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for leftover in large + small:
        prob[leftover] = 1.0
    return prob, alias
