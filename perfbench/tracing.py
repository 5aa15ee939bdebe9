"""Per-layer timers and call counters, installed from outside the
program by rebinding its public functions and methods.

A function is rebound in every ``panotrack`` module that holds it (a
``from .geometry import world_to_image`` makes a binding of its own in
the importing module), so every call is seen whichever module makes
it. A hook whose target no longer exists installs nothing and its
metric reads 0.

Timers append each call's duration to a list (``list.append`` is
atomic, and the detector port is called from the tiles thread pool);
counters take a lock. Timers and counters are installed in separate
passes, so the per-call cost of counting hot geometry helpers does
not inflate the layer times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, metric): plain functions, timed per call
TIMED_FUNCTIONS = (
    ("panotrack.io", "detections_from_record", "io.parse"),
    ("panotrack.io", "detections_record", "io.serialize"),
    ("panotrack.io", "tracks_record", "io.serialize"),
    ("panotrack.detect", "fuse_duplicates", "detect.fuse"),
    ("panotrack.tracker", "associate", "tracker.associate"),
    ("panotrack.tracker", "update", "tracker.scalar_update"),
)
# generator functions, timed per item drawn from them
TIMED_GENERATORS = (
    ("panotrack.sim", "run_scenario", "sim.frame"),
    ("panotrack.io", "read_jsonl", "io.parse"),
)
# (module, class, method, metric)
TIMED_METHODS = (
    ("panotrack.sim", "SyntheticDetector", "detect", "sim.detector"),
    ("panotrack.pipeline", "StrategyRunner", "detect", "detect.strategy"),
    ("panotrack.tracker", "PanoTracker", "step", "tracker.step"),
)
COUNTED_FUNCTIONS = (
    ("panotrack.geometry", "world_to_image", "geometry.world_to_image_calls"),
    ("panotrack.geometry", "wrap_distance", "geometry.wrap_distance_calls"),
    ("panotrack.tracker", "update", "tracker.scalar_updates"),
)
# methods whose calls are counted and whose result lengths are summed
COUNTED_METHODS = (
    ("panotrack.sim", "SyntheticDetector", "detect", "detect.viewports", "detect.raw"),
    ("panotrack.pipeline", "StrategyRunner", "detect", None, "detect.fused"),
)


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


class Trace:
    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def _timed(self, func, metric: str):
        sink = self.times[metric]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - start)

        return wrapper

    def _timed_generator(self, func, metric: str):
        sink = self.times[metric]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    sink.append(time.perf_counter() - start)
                yield item

        return wrapper

    def _counted(self, func, calls: str | None, items: str | None = None):
        lock, counts = self._lock, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            with lock:
                if calls:
                    counts[calls] += 1
                if items:
                    counts[items] += len(result)
            return result

        return wrapper

    # --- installation ---------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "panotrack" and not name.startswith("panotrack."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _rebind_method(self, cls, method: str, replacement) -> None:
        self._undo.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def install_timers(self) -> None:
        for module, attr, metric in TIMED_FUNCTIONS:
            func = _lookup(module, attr)
            if func is not None:
                self._rebind_everywhere(func, self._timed(func, metric))
        for module, attr, metric in TIMED_GENERATORS:
            func = _lookup(module, attr)
            if func is not None:
                self._rebind_everywhere(func, self._timed_generator(func, metric))
        for module, cls_name, method, metric in TIMED_METHODS:
            cls = _lookup(module, cls_name)
            if cls is not None and method in cls.__dict__:
                self._rebind_method(cls, method, self._timed(cls.__dict__[method], metric))

    def install_counters(self) -> None:
        for module, attr, metric in COUNTED_FUNCTIONS:
            func = _lookup(module, attr)
            if func is not None:
                self._rebind_everywhere(func, self._counted(func, metric))
        for module, cls_name, method, calls, items in COUNTED_METHODS:
            cls = _lookup(module, cls_name)
            if cls is not None and method in cls.__dict__:
                self._rebind_method(
                    cls, method, self._counted(cls.__dict__[method], calls, items)
                )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results --------------------------------------------------------

    def total_ms(self, metric: str) -> float:
        return 1000.0 * sum(self.times.get(metric, ()))
