"""Forked worker pools: the parent's share, pinned workers, and the bytes, exit codes and messages of a serial run.

Every test here sets _POOL_MIN_WORK to 0 where it wants the pool, so that
the pool runs at test size, and checks that each fork happens while the
process has one thread.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from toepspec import _pool, linalg, pseudospec
from toepspec.cli import main
from toepspec.errors import ConfigError, ConvergenceError, NonFiniteError, SizeLimitError, WorkerDiedError

pytestmark = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: map_chunks never forks")

GRID = {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2}


def _cfg(scenario, n=40, trials=3, pert=None, symbol="-1:1", **params):
    return {
        "scenario": scenario,
        "symbol": symbol,
        "n": n,
        "pert": pert or {"kind": "poly", "gamma": 2},
        "noise": "complex_gaussian",
        "trials": trials,
        "seed": 7,
        "params": params,
    }


CONFIGS = {
    "lsd_subexp": _cfg("lsd_subexp", n=60),
    "lsd_exp": _cfg("lsd_exp", pert={"kind": "exp", "r": 0.5}, check_radius=True, probe_count=4),
    "no_outlier": _cfg("no_outlier"),
    "pairing": _cfg("pairing", n=64, pert={"kind": "poly", "gamma": 1}),
    "radius_law": _cfg("radius_law", n=60),
    # per-trial eigenvectors, over 100 qualifying rows each; under r^n noise they
    # map back from the scaled solve (at r = 0.5 no eigenvalue lies in the band)
    "eigvec_bulk": _cfg("eigvec_bulk"),
    "eigvec_bulk_exp": _cfg("eigvec_bulk", pert={"kind": "exp", "r": 0.8}),
    # n <= 24: stacked SVDs; n > 24: one smallest_singular per node
    "pseudospec_stacked": _cfg("pseudospec_map", n=16, trials=1, grid={**GRID, "nx": 41, "ny": 41}),
    "pseudospec_per_node": _cfg("pseudospec_map", n=30, trials=1, grid={**GRID, "nx": 9, "ny": 7}),
}


@pytest.fixture
def forks(monkeypatch):
    """The thread count of this process at each fork; every one must be 1."""
    seen = []
    fork = os.fork

    def counted_fork():
        seen.append(len(os.listdir("/proc/self/task")))
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield seen
    assert seen.count(1) == len(seen), f"thread counts at fork: {seen}"


def _where_run(items):
    return [(x, os.getpid(), tuple(sorted(os.sched_getaffinity(0)))) for x in items]


def test_workers_take_strided_chunks_pinned_to_one_cpu_each(forks, monkeypatch):
    items = list(range(7))
    assert _pool.map_chunks(_where_run, items, 1)[0][1] == os.getpid()  # under the threshold
    assert forks == []
    monkeypatch.setattr(_pool, "_POOL_MIN_WORK", 0)
    out = _pool.map_chunks(_where_run, items, 1)
    cpus = sorted(os.sched_getaffinity(0))
    k = min(len(cpus), len(items))
    assert len(forks) == k - 1  # stride 0 is the parent's own
    assert [x for x, _, _ in out] == items
    assert {(pid, affinity) for _, pid, affinity in out[0::k]} == {(os.getpid(), tuple(cpus))}
    for w in range(1, k):
        where = {(pid, affinity) for _, pid, affinity in out[w::k]}
        assert len(where) == 1
        pid, affinity = where.pop()
        assert pid != os.getpid() and affinity == (cpus[w],)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pooled_run_writes_the_serial_bytes(name, forks, tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS[name]))
    outs = {}
    for mode, min_work in (("serial", math.inf), ("pooled", 0)):
        monkeypatch.setattr(_pool, "_POOL_MIN_WORK", min_work)
        (tmp_path / mode).mkdir()
        monkeypatch.chdir(tmp_path / mode)
        assert main(["run", str(cfg_path), "--out-dir", "out"]) == 0
        outs[mode] = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    assert forks
    assert "report.json" in outs["pooled"]
    assert outs["pooled"] == outs["serial"]


_POOLED_BULK = """
import json, sys
from toepspec import _pool
from toepspec.experiments import ExperimentConfig, run

cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
assert cfg.trials * cfg.n**3 >= _pool._POOL_MIN_WORK  # the trials are split over workers
assert run(cfg).metrics["qualifying"] > 0  # the workers solved for eigenvectors
print("scipy.linalg._flapack" in sys.modules)
"""


def test_pooled_eigvec_bulk_leaves_lapack_unloaded():
    # each eigenvector is one shifted solve through numpy, not LAPACK's own LU; the parent
    # computes a chunk of trials itself, so its modules show what each worker's chunk imports
    src = str(Path(_pool.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _POOLED_BULK, json.dumps(_cfg("eigvec_bulk", n=100, trials=20))]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def _argv(where: str, tmp_path) -> list[str]:
    """A pooled command that reaches the patched kernel in its workers."""
    if where == "smallest_singular":
        return ["pseudospectrum", "--symbol", "-1:1", "--n", "30", "--nx", "5", "--ny", "5"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS["pairing"]))
    return ["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]


def _module(where: str):
    return linalg if where == "eigenvalues" else pseudospec


def _patch(monkeypatch, where: str, fn) -> None:
    monkeypatch.setattr(_module(where), where, fn)


_FAILURES = pytest.mark.parametrize(
    "exc, code",
    [
        (ConfigError("bad input"), 1),
        (SizeLimitError("too large"), 1),
        (MemoryError("no room"), 1),
        (NonFiniteError("overflow"), 2),
        (ConvergenceError("stagnated"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v),
)


def _serial_and_pooled_ends(argv, monkeypatch, capfd):
    ends = []
    for min_work in (math.inf, 0):
        monkeypatch.setattr(_pool, "_POOL_MIN_WORK", min_work)
        rc = main(argv)
        ends.append((rc, capfd.readouterr().err))
    return ends


@pytest.mark.parametrize("where", ["eigenvalues", "smallest_singular"])
@_FAILURES
def test_worker_exception_ends_like_the_serial_run(exc, code, where, forks, tmp_path, monkeypatch, capfd):
    def fail(*args, **kwargs):
        raise exc

    _patch(monkeypatch, where, fail)
    ends = _serial_and_pooled_ends(_argv(where, tmp_path), monkeypatch, capfd)
    assert forks
    assert ends[0][0] == code
    assert ends[1] == ends[0]
    assert ends[1][1].startswith(("error: ", "numerical failure: ")) and "Traceback" not in ends[1][1]


@pytest.mark.parametrize("where", ["eigenvalues", "smallest_singular"])
@_FAILURES
def test_exception_only_in_a_worker_ends_like_the_serial_run(exc, code, where, forks, tmp_path, monkeypatch, capfd):
    # serially the kernel raises in this process; pooled, only in a worker,
    # while the parent's own stride completes
    parent = os.getpid()
    kernel = getattr(_module(where), where)

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent or _pool._POOL_MIN_WORK:
            raise exc
        return kernel(*args, **kwargs)

    _patch(monkeypatch, where, fail_in_worker)
    ends = _serial_and_pooled_ends(_argv(where, tmp_path), monkeypatch, capfd)
    assert forks
    assert ends[0][0] == code
    assert ends[1] == ends[0]


@pytest.mark.parametrize("where", ["eigenvalues", "smallest_singular"])
def test_dead_worker_exits_two_with_one_error_line(where, forks, tmp_path, monkeypatch, capfd):
    parent = os.getpid()
    kernel = getattr(_module(where), where)

    def die(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return kernel(*args, **kwargs)

    _patch(monkeypatch, where, die)
    monkeypatch.setattr(_pool, "_POOL_MIN_WORK", 0)
    rc = main(_argv(where, tmp_path))
    err = capfd.readouterr().err
    assert forks
    assert rc == 2
    assert err.startswith("error: a worker process died") and err.count("\n") == 1


def _ends(how: str, parent: int, items):
    """A chunk kernel that ends as `how` says in the workers or in the parent."""
    worker = os.getpid() != parent
    if how == "parent_raises" and not worker:
        raise ValueError("in the parent")
    if how == "parent_raises":
        time.sleep(60)  # only a kill ends this worker before the test times out
    if how == "worker_raises" and worker:
        raise ValueError("in a worker")
    if how == "worker_dies" and worker:
        os._exit(3)
    return list(items)


@pytest.mark.parametrize("how", ["clean", "parent_raises", "worker_raises", "worker_dies"])
def test_no_worker_or_pipe_outlives_the_call(how, forks, monkeypatch):
    monkeypatch.setattr(_pool, "_POOL_MIN_WORK", 0)
    fds = len(os.listdir("/proc/self/fd"))
    start = time.perf_counter()
    call = partial(_pool.map_chunks, partial(_ends, how, os.getpid()), range(5), 1)
    if how == "clean":
        assert call() == list(range(5))
    else:
        with pytest.raises(WorkerDiedError if how == "worker_dies" else ValueError):
            call()
    assert forks
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


_SYSTEM_EXIT = """
import os, sys
from toepspec import _pool

_pool._POOL_MIN_WORK = 0
parent = os.getpid()

def exit_in_worker(items):
    if os.getpid() != parent:
        sys.exit(5)
    return list(items)

try:
    _pool.map_chunks(exit_in_worker, range(4), 1)
except SystemExit as exc:
    print("raised", exc.code)
print("after the call in", "the parent" if os.getpid() == parent else "a worker")
"""


def test_system_exit_in_a_worker_leaves_through_os_exit():
    # were the worker to leave through the SystemExit, it would run this
    # script's last line too, as a second copy of the parent
    src = str(Path(_pool.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _SYSTEM_EXIT]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised 5", "after the call in the parent"]
