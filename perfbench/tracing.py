"""In-memory span recorder and the run-time wrappers that feed it.

A span is ``(name, start, end, parent, step)``: wall-clock nanoseconds
from ``time.perf_counter_ns``, the index of the enclosing span (-1 for
the root) and the workload step (training step, micro-batch or KV step)
that was current when the span opened.  Spans are kept in five int64
columns so a training round's ~10^5-10^6 spans cost ~40 bytes each, and
are written out once, when the run ends.

Self time (span duration minus the time its direct children cover) is
accumulated per span name as spans close, so the per-layer breakdown
needs no second pass.  Every span nests inside the round's root span
(``bench.round``).  Spans named ``bench.*`` are the benchmark's own work;
``run.py`` sums the self times of the program's layer spans only and
compares that sum with the timed phase, which it measures with its own
clock reads, not from the spans.

The wrappers are installed on live objects from the benchmark's own
files (instance attributes, and a few module or class attributes that
the library looks up at call time) and removed when the round ends.
No file of the program is edited.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

_now_ns = time.perf_counter_ns


class Tracer:
    """Stack-based span recorder with on-the-fly self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.step_of = array("q")
        self.name_of = array("q")
        # Open frames: [span index, name, start ns, child ns].
        self._stack: list[list] = []
        self.step = -1
        self._step_open = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        #: Units per (span name, direct parent name), e.g. the keys a
        #: ``mlkv.put`` wrote while ``emb.get`` was open.
        self.units_under: dict[tuple[str, str], int] = defaultdict(int)

    # ------------------------------------------------------------------
    def open(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.step_of.append(self.step)
        start = _now_ns()
        self.start[index] = start
        self._stack.append([index, name, start, 0])

    def close(self, units: int = 0) -> None:
        end = _now_ns()
        index, name, start, child_ns = self._stack.pop()
        self.end[index] = end
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        if units:
            self.units[name] += units
            if self._stack:
                self.units_under[(name, self._stack[-1][1])] += units
        if self._stack:
            self._stack[-1][3] += duration

    # ------------------------------------------------------------------
    def begin_step(self, step: int, name: str) -> None:
        """Close the previous step span (if open) and open step ``step``.

        Step spans sit directly under the workload's entry span, so a
        boundary hook that fires at the top of the workload's loop always
        finds the previous step span on top of the stack.
        """
        self.end_step()
        self.step = step
        self.open(name)
        self._step_open = True

    def end_step(self) -> None:
        if self._step_open:
            self.close()
            self._step_open = False

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``units(args)`` counts its work."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(units(args) if units is not None else 0)

        return traced

    def span_count(self) -> int:
        return len(self.start)

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as JSON: names table plus one row per span."""
        rows = [
            [self.name_of[i], self.start[i], self.end[i], self.parent[i], self.step_of[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w") as f:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["name", "start_ns", "end_ns", "parent", "step"],
                    "names": self.names,
                    "spans": rows,
                },
                f,
                separators=(",", ":"),
            )


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        previous = vars(owner).get(attr, self._ABSENT)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str,
             units: Optional[Callable] = None) -> None:
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr), units))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def first_len(args) -> int:
    """Units = length of the first positional argument (keys, rows)."""
    return len(args[0])


def one(args) -> int:
    return 1
