"""In-memory span tracer that times layer boundaries from outside.

The benchmark never edits the program: it wraps public attributes of
the ``repro`` modules at run time (``Tracer.wrap``) and restores them
afterwards (``uninstall``).  Each call through a wrapped boundary
records one span -- layer, start, end and parent span -- in flat
arrays, so a campaign's hundreds of thousands of spans cost a few
megabytes.  ``summary`` turns the spans into per-layer busy and self
times once the traced call has finished.

A boundary that no longer exists (a later change removed or renamed
it) is reported as a warning and records zero calls; it never stops
the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = "root"


class Tracer:
    """Flat span store plus named counters."""

    def __init__(self) -> None:
        self.layers: List[str] = [ROOT]
        self._layer_ids: Dict[str, int] = {ROOT: 0}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # spans and counters

    def layer_id(self, name: str) -> int:
        """Stable small integer for a layer name."""
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def open(self, lid: int) -> int:
        """Open a span of layer *lid* under the innermost open span."""
        index = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close the innermost span, which must be *index*."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name*."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Drop recorded spans and counters; keep installed wrappers."""
        for store in (self.layer, self.parent, self.start, self.end):
            del store[:]
        self._stack = [-1]
        self.counters = {}

    # ------------------------------------------------------------------
    # boundary wrapping

    def wrap(self, target: str, layer: str,
             counter: Optional[Callable[["Tracer", tuple], None]] = None,
             generator: bool = False) -> None:
        """Time every call of *target* (``module:Attr[.attr]``).

        *counter(tracer, args)* runs before each call to add work
        counts.  With *generator* the wrapped callable returns a
        generator and each ``next`` on it is timed as one span, so the
        time the consumer spends between items is not charged to the
        layer.
        """
        resolved = _resolve(target)
        if resolved is None:
            if target not in self.missing:
                self.missing.append(target)
                print(f"warning: boundary {target} not found; layer "
                      f"{layer!r} records zero calls", file=sys.stderr)
            return
        owner, attr, static = resolved
        func = static.__func__ if isinstance(static, classmethod) \
            else static
        lid = self.layer_id(layer)
        make = _generator_wrapper if generator else _call_wrapper
        wrapped = make(self, lid, func, counter)
        if isinstance(static, classmethod):
            wrapped = classmethod(wrapped)
        self._patches.append((owner, attr, static))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)

    # ------------------------------------------------------------------
    # results

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``busy`` and ``self`` seconds.

        A layer's self time is its span time minus the time covered by
        its direct child spans.  The ``root`` layer's self time is the
        wall time no layer span covers.
        """
        layers, parents, starts, ends = self._arrays()
        count = layers.size
        if (ends < starts).any():
            raise RuntimeError("trace holds spans that never closed")
        busy = ends - starts
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=busy[nested],
                              minlength=count)
        own = busy - covered
        width = len(self.layers)
        calls = np.bincount(layers, minlength=width)
        totals = np.bincount(layers, weights=busy, minlength=width)
        selfs = np.bincount(layers, weights=own, minlength=width)
        return {name: {"calls": int(calls[lid]),
                       "busy": float(totals[lid]),
                       "self": float(selfs[lid])}
                for lid, name in enumerate(self.layers)}

    def save(self, path) -> None:
        """Write the raw spans (``.npz``) for offline inspection."""
        layer, parent, start, end = self._arrays()
        np.savez(path, layers=np.array(self.layers), layer=layer,
                 parent=parent, start=start, end=end)

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        """Copies of the span columns as NumPy arrays."""
        if not self.layer:
            empty = np.zeros(0, dtype=np.int32)
            return empty, empty, np.zeros(0), np.zeros(0)
        return (np.frombuffer(self.layer, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start).copy(),
                np.frombuffer(self.end).copy())


def _resolve(target: str) -> Optional[Tuple[object, str, object]]:
    """``module:Owner.attr`` -> ``(owner, attr, static value)``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        static = inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        return None
    return owner, parts[-1], static


def _call_wrapper(tracer: Tracer, lid: int, func: Callable,
                  counter) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(tracer, args)
        index = tracer.open(lid)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _generator_wrapper(tracer: Tracer, lid: int, func: Callable,
                       counter) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(tracer, args)
        inner = func(*args, **kwargs)
        while True:
            index = tracer.open(lid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            yield item
    return wrapper


class TimedSteps:
    """An attack's ``steps()`` generator with every resume timed.

    Campaign drivers only ever ``send`` into the generator, so that is
    the one method forwarded.
    """

    def __init__(self, tracer: Tracer, lid: int, inner) -> None:
        self._tracer = tracer
        self._lid = lid
        self._inner = inner

    def send(self, value):
        """Resume the attack with *value*; one span per resume."""
        self._tracer.count("attack.resumes")
        index = self._tracer.open(self._lid)
        try:
            return self._inner.send(value)
        finally:
            self._tracer.close(index)


class TracedAttack:
    """Attack driver wrapper: timed ``steps()``, untouched ``run()``."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def steps(self) -> TimedSteps:
        """The driver's stepwise protocol, resumes timed as ``attack``."""
        return TimedSteps(self._tracer, self._tracer.layer_id("attack"),
                          self._inner.steps())

    def run(self):
        """The driver's scalar reference run (not traced)."""
        return self._inner.run()
