"""Forked worker pools: pinned workers, and the bytes, exit codes and messages of a serial run.

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
from pathlib import Path

import pytest

from toepspec import _pool, linalg, pseudospec
from toepspec.cli import main
from toepspec.errors import ConfigError, ConvergenceError, NonFiniteError, SizeLimitError

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
    assert len(forks) == k
    assert [x for x, _, _ in out] == items
    for w in range(k):
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
    assert len(forks) >= 2
    assert "report.json" in outs["pooled"]
    assert outs["pooled"] == outs["serial"]


_POOLED_BULK = """
import json, sys
from toepspec import _pool
from toepspec.experiments import ExperimentConfig, run

cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
assert cfg.trials * cfg.n**3 >= _pool._POOL_MIN_WORK  # the trials are split over workers
assert "scipy.linalg" not in sys.modules
assert run(cfg).metrics["qualifying"] > 0  # the workers ran inverse iterations
print("scipy.linalg" in sys.modules)
"""


def test_pooled_eigvec_bulk_loads_lapack_before_the_fork():
    # loaded in the parent, LAPACK is inherited by every worker; otherwise
    # each worker's first inverse iteration imports scipy.linalg again
    src = str(Path(_pool.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _POOLED_BULK, json.dumps(_cfg("eigvec_bulk", n=100, trials=20))]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"]


def _argv(where: str, tmp_path) -> list[str]:
    """A pooled command that reaches the patched kernel in its workers."""
    if where == "smallest_singular":
        return ["pseudospectrum", "--symbol", "-1:1", "--n", "30", "--nx", "5", "--ny", "5"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS["pairing"]))
    return ["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]


def _patch(monkeypatch, where: str, fn) -> None:
    module = linalg if where == "eigenvalues" else pseudospec
    monkeypatch.setattr(module, where, fn)


@pytest.mark.parametrize("where", ["eigenvalues", "smallest_singular"])
@pytest.mark.parametrize(
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
def test_worker_exception_ends_like_the_serial_run(exc, code, where, forks, tmp_path, monkeypatch, capfd):
    def fail(*args, **kwargs):
        raise exc

    _patch(monkeypatch, where, fail)
    argv = _argv(where, tmp_path)
    ends = []
    for min_work in (math.inf, 0):
        monkeypatch.setattr(_pool, "_POOL_MIN_WORK", min_work)
        rc = main(argv)
        ends.append((rc, capfd.readouterr().err))
    assert len(forks) >= 2
    assert ends[0][0] == code
    assert ends[1] == ends[0]
    assert ends[1][1].startswith(("error: ", "numerical failure: ")) and "Traceback" not in ends[1][1]


@pytest.mark.parametrize("where", ["eigenvalues", "smallest_singular"])
def test_dead_worker_exits_two_with_one_error_line(where, forks, tmp_path, monkeypatch, capfd):
    parent = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("the kernel ran in the parent process")
        os._exit(1)

    _patch(monkeypatch, where, die)
    monkeypatch.setattr(_pool, "_POOL_MIN_WORK", 0)
    rc = main(_argv(where, tmp_path))
    err = capfd.readouterr().err
    assert len(forks) >= 2
    assert rc == 2
    assert err.startswith("error: a worker process died") and err.count("\n") == 1
