"""Per-layer call counts and self times, measured from outside the library.

:class:`LayerTracer` wraps public methods of the library's layer classes
at class level for the duration of a ``with`` block and restores the
originals on exit, so untraced runs execute the unmodified code.  Each
wrapped call pushes a frame on one stack; when it returns, its inclusive
time is charged to its layer minus the time of wrapped calls nested
inside it (self time), and added to the nested time of the frame below.
The layers' self times therefore never overlap, and the traced wall time
minus their sum is the time spent in the engine's own loops.

A call into a layer from inside the same layer (a cached goal delegating
to the goal it wraps) joins the outer frame: it is neither counted as a
new call nor given a frame of its own.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["LayerTracer", "Target"]

#: ``(layer, owner class, method name, kind)``; ``kind`` is ``"call"``,
#: ``"generator"`` (each resume is timed, and every yielded item counted)
#: or ``"verdict"`` (a pruning check: a truthy result or a result with a
#: true ``fired`` attribute counts as a firing).
Target = Tuple[str, type, str, str]


class LayerTracer:
    """Installs timing wrappers on ``targets`` while the block is active."""

    def __init__(self, targets: Sequence[Target]):
        self._targets = tuple(targets)
        self._saved: List[Tuple[type, str, Any]] = []
        self._stack: List[List[Any]] = []
        #: Wrapped-call counts keyed ``"Owner.method"``.
        self.calls: Counter = Counter()
        #: Items yielded by wrapped generators, keyed like :attr:`calls`.
        self.items: Counter = Counter()
        #: Verdict checks that fired, keyed like :attr:`calls`.
        self.fired: Counter = Counter()
        #: Self time per layer, in seconds.
        self.self_seconds: Dict[str, float] = defaultdict(float)

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, owner, name, kind in self._targets:
                original = owner.__dict__[name]
                key = f"{owner.__name__}.{name}"
                if kind == "generator":
                    wrapper = self._wrap_generator(original, layer, key)
                else:
                    wrapper = self._wrap_call(original, layer, key, kind == "verdict")
                self._saved.append((owner, name, original))
                setattr(owner, name, functools.wraps(original)(wrapper))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- reporting ------------------------------------------------------------

    def count(self, *keys: str) -> int:
        """Total calls over ``keys`` (``"Owner.method"`` names)."""
        return sum(self.calls[key] for key in keys)

    def scale(self, factor: float) -> None:
        """Multiply every layer's self time by ``factor``."""
        for layer in self.self_seconds:
            self.self_seconds[layer] *= factor

    def layer_seconds(self) -> float:
        """Self time summed over every layer."""
        return sum(self.self_seconds.values())

    # -- wrappers -------------------------------------------------------------

    def _enter(self, layer: str) -> List[Any]:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: List[Any], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        self.self_seconds[frame[0]] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed

    def _wrap_call(
        self, function: Callable, layer: str, key: str, verdict: bool
    ) -> Callable:
        stack = self._stack
        calls = self.calls
        fired = self.fired
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            calls[key] += 1
            frame = self._enter(layer)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                self._leave(frame, clock() - start)
            if verdict and (result is True or getattr(result, "fired", False)):
                fired[key] += 1
            return result

        return timed

    def _wrap_generator(self, function: Callable, layer: str, key: str) -> Callable:
        calls = self.calls
        items = self.items
        clock = time.perf_counter

        def resumes(inner):
            try:
                while True:
                    frame = self._enter(layer)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(frame, clock() - start)
                    items[key] += 1
                    yield item
            finally:
                inner.close()

        def timed(*args, **kwargs):
            calls[key] += 1
            return resumes(function(*args, **kwargs))

        return timed
