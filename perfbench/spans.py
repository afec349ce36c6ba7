"""Span tracing of egonav's layers from outside the package.

``Tracer.install`` replaces the public module-level functions of each
layer module with wrappers that record one span per call: name, start,
end, parent span and run id. egonav calls across and within modules
through module attributes (``ingest.parse_recording``, ``solve`` and
``cost`` inside ``retarget``), so the wrappers see those calls; names a
module bound with ``from x import y`` at import time are not seen.
``uninstall`` puts the original functions back.

Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "ingest", "segmentation", "retarget", "simulator", "chunks",
          "report")

# blend_yaw runs ~100 times per chunk (about 200k calls per chunk_dataset
# pass); a span per call would swamp both the trace and the timing. Its
# time is part of the self time of chunks.upsample / chunks.modulate.
UNWRAPPED = {"chunks.blend_yaw"}


def _bytes_of(stream) -> int:
    try:
        return os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError):
        return 0


def _on_solve(tr, args, kwargs, sol):
    cfg = args[0].config
    tr.count("retarget.iterations", sol.iterations)
    tr.count("retarget.converged_windows", int(sol.converged))
    tr.count("retarget.commands", len(sol.cmds))
    tr.count("retarget.saturated", sum(
        c.v in (cfg.v_min, cfg.v_max) or c.omega in (cfg.omega_min, cfg.omega_max)
        for c in sol.cmds))


def _on_parse(tr, args, kwargs, ep):
    tr.count("ingest.frames", len(ep.frames))
    tr.count("ingest.bytes_read", _bytes_of(args[0]))


def _on_text(tr, args, kwargs, text):
    tr.count("report.bytes_written", len(text.encode()))


# Counts taken at the layer boundary from a call's arguments and result.
HOOKS = {
    "retarget.solve": _on_solve,
    "ingest.parse_recording": _on_parse,
    "ingest.extract_waypoints":
        lambda tr, a, k, track: tr.count("ingest.waypoints", len(track.waypoints)),
    "segmentation.gmm_fit":
        lambda tr, a, k, m: tr.count("segmentation.em_iters", len(m.log_likelihoods)),
    "segmentation.candidate_mask":
        lambda tr, a, k, mask: tr.count("segmentation.candidate_frames",
                                        int(mask.sum())),
    "simulator.simulate":
        lambda tr, a, k, r: tr.peak("simulator.cost_discrepancy", r.cost_discrepancy),
    "report.trajectory_svg": _on_text,
    "report.phase_timeline_svg": _on_text,
    "report.cost_bars_svg": _on_text,
    "report.format_summary": _on_text,
}


class Tracer:
    """Collects spans and counters; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run)
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def count(self, key: str, n) -> None:
        with self._lock:
            self.counters[self.run_id][key] += n

    def peak(self, key: str, value) -> None:
        with self._lock:
            c = self.counters[self.run_id]
            c[key] = max(c.get(key, value), value)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.run_id))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def _in_parent(self, parent, fn):
        """Run ``fn`` in a worker thread as a child of span ``parent``."""
        @functools.wraps(fn)
        def child(*args, **kwargs):
            stack = self._stack()
            saved = stack[:]
            stack[:] = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved
        return child

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.peak("cli.pool_threads", self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._in_parent(tracer.current(), fn),
                                      *args, **kwargs)
        return TracedPool

    def install(self) -> None:
        """Wrap every public function defined in each layer module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"egonav.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
        cli = importlib.import_module("egonav.cli")
        self._saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        """Write all spans as JSON lines (times in seconds, perf_counter clock)."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children from worker threads may overlap each other; their union is
    what counts, clipped to the parent's interval.
    """
    by_id = {sp[0]: sp for sp in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent in by_id:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out
