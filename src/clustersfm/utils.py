"""Seeding, connected-component and stage-mapping helpers shared by all stages."""

import hashlib
import os

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ConfigurationError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigurationError(f"{WORKERS_ENV_VAR} must be >= 1, got {env!r}")
    return workers


def parallel_map(fn, items) -> list:
    """Apply fn to each item in order on the calling thread; results in input
    order, and the first exception raised ends the map.

    The stages map their clusters and BA partitions through this one name:
    perfbench wraps `pipeline.parallel_map` and `global_ba.parallel_map` to
    time the calls and count the items, and a process pool over the
    clusters can later go behind it. A thread pool does not pay: the
    interpreter lock serialises the small NumPy calls of RANSAC and LM.
    """
    return [fn(item) for item in items]


def component_labels(n: int, a, b) -> np.ndarray:
    """Connected-component label of each of n nodes joined by the edges
    (a[k], b[k]). Labels count up from 0 in order of each component's
    smallest node."""
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels]
