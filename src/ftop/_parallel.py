"""Order-preserving parallel map over fork-shared state.

``pmap`` forks one worker per interleaved share ``items[w::procs]``; each runs
the inherited callable, never pickled, and pipes back its pickled results, or
its exception and traceback for the parent to re-raise.  With jobs <= 1,
fewer than two items or no ``os.fork`` it runs inline, with the same results.
``POOL`` counts, in this process, the calls, their items and the calls that
forked.
"""
from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

POOL: Counter = Counter()  # pmap "calls", their "items", and the calls that "forked"


def default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def _work(fn: Callable, share: list, fd: int) -> None:  # a worker: never returns
    import pickle  # loaded by pmap before it forks
    try:
        try:
            payload = pickle.dumps([fn(x) for x in share])
        except BaseException as exc:  # sent to the parent, which re-raises it
            import traceback
            payload = pickle.dumps((exc, traceback.format_exc()))
        with open(fd, "wb") as out:
            out.write(payload)
    finally:
        os._exit(0)


def pmap(fn: Callable[[T], R], items: Iterable[T], jobs: int | None) -> list[R]:
    seq = list(items)
    procs = min(default_jobs() if jobs is None else jobs, len(seq))
    POOL.update(calls=1, items=len(seq))
    if procs < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in seq]
    POOL["forked"] += 1
    import pickle, signal  # here, so that a serial run never imports them

    out, pids, pipes = [None] * len(seq), [], []  # pipes: each worker's read end
    try:
        for w in range(procs):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            pid = os.fork()
            if pid == 0:
                _work(fn, seq[w::procs], wr)
            os.close(wr)
            pids.append(pid)
        for w, pipe in enumerate(pipes):
            data = pipe.read()
            if not data:  # killed, or died before it could answer
                raise RuntimeError(f"pmap worker {pids[w]} exited without a result")
            got = pickle.loads(data)
            if isinstance(got, tuple):  # the worker's exception and its traceback
                raise got[0] from RuntimeError(f"in pmap worker {pids[w]}:\n{got[1]}")
            out[w::procs] = got
        return out
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
