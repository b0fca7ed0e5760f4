"""In-memory layer tracer for the stoimenow package.

`Tracer` wraps the public functions of each package module (plus the
`PowerSeries` kernels) from outside the program and rebinds every name
that refers to an original function -- module globals such as
``enumeration.contains`` or ``cli.count_table``, the package namespace,
and class attributes such as ``PowerSeries.__rmul__`` -- for the
duration of a ``with`` block.  Every binding is restored on exit.

Each wrapper records, per span name, the call count, the total time and
the self time (span minus its child spans).  Spans nest on a per-thread
stack, because ``--workers 2`` calls into the package from pool threads.
A wrapper called again while its own span is open on the same thread
(``completions`` and ``run_suite`` recurse through their module globals)
calls the original directly, so recursion is one span.

Generators returned by wrapped functions are wrapped too: each ``next()``
is a span ``<name>.next`` and each item it yields is counted, which gives
the generator's leaves and the time spent inside the generator only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types
from dataclasses import dataclass

LAYERS = (
    "cli",
    "enumeration",
    "patterns",
    "matching",
    "series",
    "identities",
    "posets",
    "bijections",
    "verify",
)

PACKAGE = "stoimenow"

# Methods wrapped besides module-level functions: (module, class, method, span name).
METHODS = (
    ("series", "PowerSeries", "__mul__", "series.mul"),
    ("series", "PowerSeries", "__truediv__", "series.truediv"),
    ("series", "PowerSeries", "sqrt", "series.sqrt"),
)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    items: int = 0  # generator items yielded, or True results for predicates


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[_Frame] = []
        self.open: set[str] = set()
        self.stats: dict[str, Stat] | None = None


def generator_stats(stats: dict[str, Stat]) -> list[Stat]:
    """Stats of the traced generators of `enumeration`; their items are leaves."""
    return [s for name, s in stats.items() if name.startswith("enumeration.") and name.endswith(".next")]


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Context manager that traces calls into the package's layers.

    ``stats()`` merges the per-thread counters; ``reset()`` clears them
    between rounds.  Hooks in ``on_result`` receive (args, result,
    leaves_during_call) after a wrapped call returns.
    """

    def __init__(self, on_result: dict | None = None):
        self.on_result = on_result or {}
        self._local = _ThreadState()
        self._all_stats: list[dict[str, Stat]] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------

    def _stats(self) -> dict[str, Stat]:
        local = self._local
        if local.stats is None:
            local.stats = {}
            with self._lock:
                self._all_stats.append(local.stats)
        return local.stats

    def stats(self) -> dict[str, Stat]:
        merged: dict[str, Stat] = {}
        with self._lock:
            tables = list(self._all_stats)
        for table in tables:
            for name, s in list(table.items()):
                m = merged.setdefault(name, Stat())
                m.calls += s.calls
                m.total += s.total
                m.self_time += s.self_time
                m.items += s.items
        return merged

    def reset(self) -> None:
        with self._lock:
            for table in self._all_stats:
                table.clear()

    def leaves(self) -> int:
        """Items yielded so far by every traced generator of `enumeration`."""
        return sum(s.items for s in generator_stats(self.stats()))

    def _close(self, name: str, start: float, frame: _Frame) -> Stat:
        """End the span `frame` opened at `start` and charge it to `name`."""
        elapsed = time.perf_counter() - start
        local = self._local
        local.stack.pop()
        local.open.discard(name)
        if local.stack:
            local.stack[-1].child += elapsed
        stats = self._stats()
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = Stat()
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - frame.child
        return stat

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        local = self._local
        hook = self.on_result.get(name)
        tracer = self
        next_name = name + ".next"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in local.open or next_name in local.open:
                return fn(*args, **kwargs)
            local.open.add(name)
            frame = _Frame()
            local.stack.append(frame)
            leaves_before = tracer.leaves() if hook else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer._close(name, start, frame)
            if result is True:
                stat.items += 1
            if isinstance(result, types.GeneratorType):
                result = _TimedIter(tracer, next_name, result)
            if hook:
                hook(args, result, tracer.leaves() - leaves_before)
            return result

        return wrapper

    def __enter__(self):
        prefix = PACKAGE + "."
        modules = {
            layer: sys.modules[prefix + layer] for layer in LAYERS if prefix + layer in sys.modules
        }
        if len(modules) != len(LAYERS):
            raise RuntimeError("import every layer of the package before tracing")
        replace: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module):
                replace[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for layer, cls_name, meth, name in METHODS:
            fn = vars(getattr(modules[layer], cls_name))[meth]
            replace[id(fn)] = (fn, self._wrap(name, fn))
        targets = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(prefix)]
        targets += [
            obj
            for module in modules.values()
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        try:
            for target in targets:
                for attr, value in list(vars(target).items()):
                    fn, wrapper = replace.get(id(value), (None, None))
                    if fn is value:
                        self._restore.append((target, attr, value))
                        setattr(target, attr, wrapper)
        except BaseException:
            self._undo()
            raise
        return self

    def _undo(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    def __exit__(self, *exc) -> None:
        self._undo()


class _TimedIter:
    """Iterator proxy that times each `next()` as a span and counts items."""

    __slots__ = ("tracer", "name", "gen")

    def __init__(self, tracer: Tracer, name: str, gen):
        self.tracer = tracer
        self.name = name
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        local = self.tracer._local
        if self.name in local.open:
            return next(self.gen)
        local.open.add(self.name)
        frame = _Frame()
        local.stack.append(frame)
        start = time.perf_counter()
        try:
            item = next(self.gen)
        finally:
            stat = self.tracer._close(self.name, start, frame)
        stat.items += 1
        return item
