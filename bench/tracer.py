"""Per-layer tracing by wrapping toepspec's functions from outside.

Modules bind functions by name (`from .linalg import svd`), so a wrapper has
to replace every binding of the original function object across the loaded
`toepspec.*` modules, not only the attribute of its home module.  Each
wrapper records calls, busy time and raised exceptions; busy time counts
outermost calls only, so a function that reaches itself is not counted twice.
Calls made on pool worker threads are summed over threads, which is why a
layer's busy time can exceed wall time.

A function missing from the program (renamed or deleted by a later change)
is skipped and reads as zero, so the benchmark keeps running across commits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# layer -> functions with a calls/busy_s pair each
TIMED = {
    "matrixgen": ("sample_noise", "toeplitz", "perturbed"),
    "linalg": ("eigenvalues", "svd", "lu_logdet", "eigenvector", "smallest_singular"),
    "symbol": ("root_profile", "winding_number", "classify_region"),
    "measures": (
        "dist_to_curve",
        "energy_distance",
        "match_cost",
        "empirical_logpot",
        "limit_logpot_exp",
        "limit_logpot_unperturbed",
    ),
    "grushin": ("equivalence_gap", "truncated_logdet"),
    "pseudospec": ("smin_field", "contour_lines", "write_field_csv"),
    "eigloc": ("tail_norm_profile", "supp_size", "pure_state", "phase_aligned_distance"),
    "svgplot": ("render_svg",),
}
# wrapped for self time and context only
SPANS = {
    "cli": ("main",),
    "experiments": ("run", "_probe_points_regions"),
    "_parallel": ("map_into_slots",),
}
# metrics that are a pure function of the configs and must repeat exactly
COUNT_RATIOS = (
    "linalg.smin_fallback_frac",
    "experiments.probe_accept_frac",
    "experiments.criteria_failed",
    "io.artifact_bytes",
)


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".fails", ".nodes", ".points")) or name in COUNT_RATIOS


@dataclass
class _Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    fails: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _patched: list = field(default_factory=list)

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def _thread(self):
        """This thread's open spans, as [start, child time] pairs, and open calls per name."""
        local = self._local
        try:
            return local.stack, local.open
        except AttributeError:
            local.stack, local.open = [], {}
            return local.stack, local.open

    def _count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _inside(self, name: str) -> bool:
        return self._thread()[1].get(name, 0) > 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, open_calls = tracer._thread()
            depth = open_calls.get(name, 0)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            open_calls[name] = depth + 1
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                open_calls[name] = depth
                if stack:
                    stack[-1][1] += dur
                if depth == 0:
                    with tracer._lock:
                        st = tracer.stats.setdefault(name, _Stat())
                        st.calls += 1
                        st.busy += dur
                        st.self_time += dur - frame[1]
                        st.fails += failed
            if after is not None:
                after(tracer, args, kwargs, result, dur)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in the toepspec modules."""
        targets = [(m, f) for m, fs in {**TIMED, **SPANS}.items() for f in fs]
        for mod_name, _ in targets:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"toepspec.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k == "toepspec" or k.startswith("toepspec.")]
        for mod_name, fn_name in targets:
            home = sys.modules.get(f"toepspec.{mod_name}")
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics for everything recorded since the last reset."""
        out: dict = {}
        for layer, fns in TIMED.items():
            for fn in fns:
                st = self.stats.get(f"{layer}.{fn}", _Stat())
                out[f"{layer}.{fn}.calls"] = st.calls
                out[f"{layer}.{fn}.busy_s"] = st.busy
        c = self.counters
        out["linalg.eigenvector.fails"] = self.stats.get("linalg.eigenvector", _Stat()).fails
        out["measures.dist_to_curve.points"] = c.get("dist_points", 0)
        out["pseudospec.smin_field.nodes"] = c.get("smin_nodes", 0)
        out["linalg.smin_fallback_frac"] = _ratio(c.get("smin_fallbacks", 0), out["linalg.smallest_singular.calls"])
        out["experiments.run.self_s"] = self.stats.get("experiments.run", _Stat()).self_time
        out["experiments.probe_accept_frac"] = _ratio(c.get("probes_placed", 0), c.get("probe_classify_calls", 0))
        out["cli.main.self_s"] = self.stats.get("cli.main", _Stat()).self_time
        pool = self.stats.get("_parallel.map_into_slots", _Stat())
        out["parallel.map_into_slots.calls"] = pool.calls
        out["parallel.map_into_slots.wall_s"] = pool.busy
        out["parallel.map_into_slots.task_busy_s"] = c.get("pool_task_busy", 0.0)
        out["parallel.map_into_slots.overlap"] = _ratio(c.get("pool_task_busy", 0.0), c.get("pool_capacity", 0.0))
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- per-function hooks -------------------------------------------------------


def _pool_before(tracer: Tracer, args, kwargs):
    """Time each task so pool busy time can be set against wall time x workers."""
    fn, tasks = args[0], list(args[1])

    def timed(task):
        t0 = time.perf_counter()
        try:
            return fn(task)
        finally:
            tracer._count("pool_task_busy", time.perf_counter() - t0)

    return (timed, tasks, *args[2:]), kwargs


def _pool_after(tracer: Tracer, args, kwargs, result, dur):
    tasks = args[1]
    workers = 1
    if len(tasks) > 1:
        parallel = sys.modules.get("toepspec._parallel")
        cap = parallel.worker_count() if hasattr(parallel, "worker_count") else (os.cpu_count() or 1)
        workers = max(1, min(cap, len(tasks)))
    tracer._count("pool_capacity", dur * workers)


def _svd_before(tracer: Tracer, args, kwargs):
    if tracer._inside("linalg.smallest_singular"):
        tracer._count("smin_fallbacks")
    return args, kwargs


def _classify_before(tracer: Tracer, args, kwargs):
    if tracer._inside("experiments._probe_points_regions"):
        tracer._count("probe_classify_calls")
    return args, kwargs


def _dist_before(tracer: Tracer, args, kwargs):
    tracer._count("dist_points", int(np.size(args[0])))
    return args, kwargs


def _field_before(tracer: Tracer, args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    tracer._count("smin_nodes", int(grid.nx * grid.ny))
    return args, kwargs


def _probes_after(tracer: Tracer, args, kwargs, result, dur):
    tracer._count("probes_placed", sum(len(v) for v in result.values()))


_BEFORE = {
    "_parallel.map_into_slots": _pool_before,
    "linalg.svd": _svd_before,
    "symbol.classify_region": _classify_before,
    "measures.dist_to_curve": _dist_before,
    "pseudospec.smin_field": _field_before,
}
_AFTER = {
    "_parallel.map_into_slots": _pool_after,
    "experiments._probe_points_regions": _probes_after,
}
