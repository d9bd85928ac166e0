"""Independent items of work split over forked worker processes, one pinned to each CPU."""

from __future__ import annotations

import os

from .errors import WorkerDiedError

_POOL_MIN_WORK = 2e7  # below this work a pool, ~17 ms to start, costs more than it saves


def _pinned(cpu: int, fn, chunk):
    os.sched_setaffinity(0, {cpu})  # unpinned, forked workers may all stay on the parent's CPU
    return fn(chunk)


def map_chunks(fn, items, n: int):
    """fn(items), for an fn that maps items to one result each; pooled, a list in item order.

    The work is taken as len(items) max(n, 24)^3 for n x n matrices.  From
    _POOL_MIN_WORK on, k = min(CPUs, len(items)) workers, forked while the
    process is single-threaded (see linalg), run fn on items[w::k].  A
    worker's exception is raised here, a dead worker's as WorkerDiedError.
    """
    cpus = sorted(os.sched_getaffinity(0))
    k = min(len(cpus), len(items))
    if k < 2 or len(items) * max(n, 24) ** 3 < _POOL_MIN_WORK:
        return fn(items)
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    from multiprocessing import get_context

    out = [None] * len(items)
    try:
        with ProcessPoolExecutor(k, mp_context=get_context("fork")) as pool:
            chunks = [pool.submit(_pinned, cpus[w], fn, items[w::k]) for w in range(k)]
            for w, chunk in enumerate(chunks):
                out[w::k] = chunk.result()
    except BrokenExecutor as exc:  # BrokenProcessPool
        raise WorkerDiedError(f"a worker process died: {exc}") from None
    return out
