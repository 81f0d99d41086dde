"""Seeding, union-find and worker-pool helpers shared by all stages."""

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError

WORKERS_ENV_VAR = "CLUSTERSFM_WORKERS"


def stable_seed(*parts) -> int:
    """Derive a 63-bit seed from arbitrary parts via sha256.

    Unlike Python's salted hash(), the result is stable across processes,
    so per-unit RNG streams never depend on worker scheduling.
    """
    digest = hashlib.sha256(repr(tuple(parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def seeded_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(stable_seed(*parts))


def default_worker_count() -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def parallel_map(fn, items, workers: int | None = None) -> list:
    """Apply fn to items on a bounded thread pool, results in input order.

    Work items must not share mutable state; with that contract the result
    is independent of the worker count.
    """
    items = list(items)
    if workers is None:
        workers = default_worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class UnionFind:
    """Array-backed union-find with path compression and union by rank."""

    def __init__(self, size: int):
        self.parent = np.arange(size, dtype=np.int64)
        self.rank = np.zeros(size, dtype=np.int8)

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1

    def groups(self) -> list[list[int]]:
        """Members of every set in ascending order; the sets are ordered by
        their smallest member."""
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())
