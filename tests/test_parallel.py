"""The forked path of pmap: order, counts, errors, dead workers and reaping."""
import os
import signal
from collections import Counter

import pytest

from ftop._parallel import COUNTERS, DECISIONS, pmap
from ftop.errors import MapError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="pmap forks only with os.fork")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    # a pmap that hangs fails its test after 60 s instead of stalling the run
    def expire(signum, frame):
        raise TimeoutError("pmap did not return")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 2, 5, 17])
def test_pmap_equals_the_serial_list(jobs, size, deadline):
    offset = 7  # a closure: workers inherit the callable, it is never pickled

    def work(x):
        return (x * x + offset, str(x))

    items = list(range(size))
    assert pmap(work, items, jobs) == [work(x) for x in items]
    _no_child_left()


@pytest.mark.parametrize("jobs, size, workers", [(2, 17, 2), (3, 17, 3), (3, 2, 2)])
def test_items_run_in_one_forked_worker_per_share(jobs, size, workers, deadline):
    pids = pmap(lambda x: os.getpid(), range(size), jobs)
    assert len(set(pids)) == workers and os.getpid() not in pids
    assert all(pids[k] == pids[k % workers] for k in range(size))  # shares items[w::procs]
    _no_child_left()


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 5, 17])
def test_worker_counts_read_as_inline(jobs, size, deadline):
    # a worker pipes back what it added to each counter, also through its
    # own pmap calls, so the counters read as if every item ran inline
    def work(x):
        DECISIONS["lr"[x % 2]] += x + 1
        return pmap(str, range(x), 1)

    def counted(run):
        before = [counter.copy() for counter in COUNTERS]
        return run(), [counter - was for counter, was in zip(COUNTERS, before)]

    items = list(range(size))
    want, (pool, decisions) = counted(lambda: [work(x) for x in items])
    got, (pool_got, decisions_got) = counted(lambda: pmap(work, items, jobs))
    assert got == want and decisions_got == decisions
    assert sum(decisions.values()) == sum(range(1, size + 1))
    forked = int(jobs > 1 and size > 1)
    assert pool_got == pool + Counter(calls=1, items=size, forked=forked)
    _no_child_left()


def test_an_item_error_reraises_in_the_parent(deadline):
    def work(x):
        if x == 3:
            raise MapError(f"item {x}")
        return x

    with pytest.raises(MapError, match="item 3") as raised:
        pmap(work, range(6), 2)
    assert "in work" in str(raised.value.__cause__)  # the worker's own traceback
    _no_child_left()


def test_a_killed_worker_raises_instead_of_hanging(deadline):
    def work(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="without a result"):
        pmap(work, range(4), 2)
    _no_child_left()
