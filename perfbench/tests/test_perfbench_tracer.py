"""Unit tests of the benchmark's tracer and probes.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from probes import CountingRng, install  # noqa: E402
from tracer import Tracer, covered  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_spans_carry_name_interval_and_parent():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer") as outer:
        clock.now = 1.0
        with tr.span("inner") as inner:
            clock.now = 3.0
        clock.now = 4.0
    assert (outer.name, outer.start, outer.end, outer.parent) == ("outer", 0.0, 4.0, None)
    assert (inner.name, inner.start, inner.end, inner.parent) == ("inner", 1.0, 3.0, outer.id)
    assert tr.current() is None


def test_nested_self_time():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("lm"):  # 0..10
        for start, stop in ((1, 3), (4, 5)):
            clock.now = start
            with tr.span("jacobian"):
                clock.now = stop
                with tr.span("grandchild"):  # covered by its parent, not by lm
                    pass
        clock.now = 10.0
    assert tr.busy("lm") == 10.0
    assert tr.self_time("lm") == 10.0 - 2.0 - 1.0
    assert tr.self_time("jacobian") == 3.0
    assert tr.busy("lm", "jacobian") == 10.0  # nested names are counted once


def test_covered_merges_overlapping_children():
    # two pool threads whose child spans overlap, one running past the parent
    assert covered(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)]) == 5.0 + 2.0
    assert covered(0.0, 10.0, []) == 0.0


def test_parent_propagates_into_pool_threads():
    tr = Tracer()
    seen = []

    def work(item):
        with tr.span("item") as s:
            seen.append(threading.get_ident())
            return s.parent

    with tr.span("map") as pool_span:
        with ThreadPoolExecutor(max_workers=2) as pool:
            parents = list(pool.map(tr.bind(work), range(6)))
    assert parents == [pool_span.id] * 6
    assert threading.get_ident() not in seen
    # without bind, the worker thread has no current span
    with tr.span("map"):
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(work, 0).result() is None


def test_counter_only_probe_and_restore():
    module = types.SimpleNamespace(hot=lambda x: x + 1, slow=lambda x: 2 * x)
    originals = (module.hot, module.slow)
    with Tracer() as tr:
        tr.wrap(module, "hot", "hot_calls", span=False)
        tr.wrap(module, "slow", "mod.slow")
        assert [module.hot(i) for i in range(5)] == [1, 2, 3, 4, 5]
        assert module.slow(3) == 6
    assert tr.counters["hot_calls"] == 5
    assert [s.name for s in tr.spans] == ["mod.slow"]
    assert (module.hot, module.slow) == originals


def test_originals_restored_when_traced_code_raises():
    def boom():
        raise RuntimeError("stage failed")

    module = types.SimpleNamespace(f=boom)
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            tr.wrap(module, "f", "mod.f")
            module.f()
    assert module.f is boom
    assert tr.spans[0].end >= tr.spans[0].start


def test_counting_rng_keeps_the_random_stream():
    counts = []
    plain = np.random.default_rng(5)
    counted = CountingRng(np.random.default_rng(5), lambda: counts.append(1))
    for _ in range(4):
        assert np.array_equal(plain.choice(50, size=8, replace=False),
                              counted.choice(50, size=8, replace=False))
    assert plain.random() == counted.random()
    assert len(counts) == 4


def test_install_wraps_and_restores_clustersfm():
    from clustersfm import ba_core, io, local_sfm, pipeline

    before = {(m.__name__, a): getattr(m, a) for m in (pipeline, local_sfm, ba_core, io)
              for a in dir(m) if callable(getattr(m, a))}
    with Tracer() as tr:
        install(tr)
        assert local_sfm.ransac.__wrapped__ is before[("clustersfm.local_sfm", "ransac")]
        assert ba_core.lm_minimize is not before[("clustersfm.ba_core", "lm_minimize")]
        assert io.load_tracks is not before[("clustersfm.io", "load_tracks")]
    after = {(m.__name__, a): getattr(m, a) for m in (pipeline, local_sfm, ba_core, io)
             for a in dir(m) if callable(getattr(m, a))}
    assert after == before
