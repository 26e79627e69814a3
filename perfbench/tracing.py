"""Timing wrappers around public asymlab functions, installed from outside.

Several modules bind functions by name (`from .circuits import
heisenberg_conjugate` in `clustering`, `apply_site_matrix` in `circuits`,
`su2` and `suite`, `apply_circuit` in `config`), so each wrapper is
installed in every `asymlab` module namespace that holds the original
function, and removed again on exit.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls it made on the same thread.  Spans
on worker threads (the sweep thread pool) are roots of their own thread, so
the caller's self time includes the time it waited for them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    out_bytes: int = 0  # largest result, computed from array sizes


def _nbytes(value) -> int:
    nbytes = getattr(value, "nbytes", None)
    return nbytes if isinstance(nbytes, int) else 0


def result_nbytes(value) -> int:
    """Bytes held by a returned array, or by the arrays among an object's fields."""
    return _nbytes(value) or sum(_nbytes(v) for v in getattr(value, "__dict__", {}).values())


class Tracer:
    """Context manager that wraps ``asymlab.<module>.<function>`` targets."""

    def __init__(self, targets):
        self.stats = {t: LayerStats() for t in targets}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: str, original):
        stats = self.stats[target]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            failed = False
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                size = 0 if failed else result_nbytes(result)
                with self._lock:
                    stats.calls += 1
                    stats.self_s += elapsed - frame[0]
                    stats.errors += failed
                    stats.out_bytes = max(stats.out_bytes, size)

        return wrapper

    def __enter__(self):
        originals = {}
        for target in self.stats:
            module_name, func_name = target.rsplit(".", 1)
            module = importlib.import_module(f"asymlab.{module_name}")
            originals[target] = getattr(module, func_name)
        # Listed after the imports above, which may load further modules.
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "asymlab" or name.startswith("asymlab."))
        ]
        for target, original in originals.items():
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False
