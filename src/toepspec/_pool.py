"""Independent items of work split over the calling process and forked workers, one pinned to each other CPU."""

from __future__ import annotations

import os
import pickle
import signal

from .errors import WorkerDiedError

_POOL_MIN_WORK = 4e6  # below this work a fork, ~3 ms a worker, costs more than it saves


def map_chunks(fn, items, n: int):
    """fn(items), for an fn that maps items to one result each; pooled, a list in item order.

    The work is taken as len(items) max(n, 24)^3 for n x n matrices.  From
    _POOL_MIN_WORK on, with k = min(CPUs, len(items)), this process runs fn on
    items[0::k] while k - 1 workers, forked single-threaded (see linalg) and
    pinned to CPUs 1 .. k-1, run it on items[w::k].  A worker's exception is
    raised here, a dead worker's as WorkerDiedError; no worker outlives the call.
    """
    cpus = sorted(os.sched_getaffinity(0))
    k = min(len(cpus), len(items))
    if k < 2 or len(items) * max(n, 24) ** 3 < _POOL_MIN_WORK:
        return fn(items)
    out = [None] * len(items)
    pids, fds = [], []  # workers not yet reaped, read ends not yet closed
    try:
        for w in range(1, k):
            fds += os.pipe()
            if not (pid := os.fork()):  # a worker: it pickles (ok, result or exception) and leaves by os._exit
                try:
                    os.sched_setaffinity(0, {cpus[w]})  # unpinned, forked workers may all stay on the parent's CPU
                    try:
                        data = pickle.dumps((True, fn(items[w::k])))
                    except BaseException as exc:  # SystemExit too: the parent raises it, as a serial run would
                        data = pickle.dumps((False, exc))
                    with open(fds[-1], "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())  # the write end, the worker's alone now
        out[0::k] = fn(items[0::k])
        for w, fd in enumerate(fds, 1):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status or not data:
                raise WorkerDiedError(f"a worker process died: exit code {os.waitstatus_to_exitcode(status)}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out[w::k] = value
    finally:
        for pid in pids:  # a worker must not outlive a failed call
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return out
