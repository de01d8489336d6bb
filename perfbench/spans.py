"""In-memory span recorder that wraps the program's functions from outside.

Each public function of an ``apsumset`` module is replaced, in every module
that binds it, by a wrapper recording a span: its name (the binding module
and the function name, e.g. ``classify.find_progressions``), the layer that
defines it, start, end and the index of the enclosing span.  Nothing in the
program changes; ``uninstall`` restores every binding.

A few scalar helpers in ``numutil`` are called millions of times from inner
loops; wrapping them would multiply the run time, so their time stays in
the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("numutil", "sumset", "apsearch", "classify", "families", "sunit", "catalog", "cli")
UNTRACED = frozenset({
    "numutil.power_exponent", "numutil.ord_p", "numutil.iroot", "numutil.ilog",
    "numutil.is_prime", "numutil.factor_over",
})


class Recorder:
    """Span list plus the stack of open spans."""

    def __init__(self) -> None:
        # each span: [name, layer, start, end, parent index or -1, label]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def open(self, name: str, layer: str, label: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, label])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, binder: str, func):
        layer = func.__module__.rsplit(".", 1)[-1]
        name = f"{binder}.{func.__name__}"
        rec = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = args[0] if args and isinstance(args[0], str) else None
            idx = rec.open(name, layer, label)
            try:
                return func(*args, **kwargs)
            finally:
                rec.close(idx)

        return traced

    def install(self) -> None:
        """Wrap every public apsumset function under each name that binds it."""
        for binder in LAYERS:
            mod = importlib.import_module(f"apsumset.{binder}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                origin = obj.__module__
                if not origin.startswith("apsumset."):
                    continue
                if f"{origin.rsplit('.', 1)[-1]}.{obj.__name__}" in UNTRACED:
                    continue
                if binder == "cli" and attr == "main":
                    continue  # the benchmark opens the cli.main span itself
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(binder, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def function_of(span: list) -> str:
    """'layer.function' for a span, whichever module the caller bound it in."""
    return f"{span[1]}.{span[0].rsplit('.', 1)[-1]}"
