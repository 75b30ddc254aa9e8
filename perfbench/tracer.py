"""Span tracing of the package from outside, by rebinding module attributes.

Every traced entry point is looked up by its callers at call time (a module
attribute, a from-import bound in the calling module, or a class
attribute), so replacing the attribute for the duration of a traced round
routes every call through a timing wrapper.  Spans (name, start, end,
parent) are kept in memory; FFTs are too many to keep one span each, so
their count, points and time are added to the enclosing span instead.
"""

from __future__ import annotations

import json
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, fft seconds inside it]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.fft = [0, 0, 0.0]          # transforms, points, seconds
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), 0.0, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self.stack.pop()

    def enclosing_layer(self, layers) -> str | None:
        for idx in reversed(self.stack):
            layer = self.spans[idx][0].split(".", 1)[0]
            if layer in layers:
                return layer
        return None

    # -- attribute rebinding -------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Time every call of owner.attr as span `name`; on_return(result,
        args, kwargs) updates counters."""
        orig = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(out, args, kwargs)
            return out

        self._rebind(owner, attr, traced)

    def wrap_fft(self, owner, attr: str) -> None:
        orig = getattr(owner, attr)
        tracer = self

        def fft(a, *args, **kwargs):
            t0 = perf()
            out = orig(a, *args, **kwargs)
            dt = perf() - t0
            tracer.fft[0] += 1
            tracer.fft[1] += a.size
            tracer.fft[2] += dt
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][4] += dt
            return out

        self._rebind(owner, attr, fft)

    def wrap_minres(self, owner, layers=("kernel", "reduction")) -> None:
        """Count MINRES calls, iterations (via `callback`) and info > 0
        failures, attributed to the enclosing kernel or reduction span."""
        orig = owner.minres
        tracer = self

        def minres(A, b, *args, callback=None, **kwargs):
            layer = tracer.enclosing_layer(layers) or "other"
            iters = [0]

            def count(xk):
                iters[0] += 1
                if callback is not None:
                    callback(xk)

            idx = tracer.open(f"{layer}.minres")
            try:
                x, info = orig(A, b, *args, callback=count, **kwargs)
            finally:
                tracer.close(idx)
            tracer.add(f"{layer}.minres_calls")
            tracer.add(f"{layer}.minres_iters", iters[0])
            if info > 0:
                tracer.add(f"{layer}.minres_failures")
            return x, info

        self._rebind(owner, "minres", minres)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries -----------------------------------------------------------

    def _has_ancestor_named(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def outer(self, name: str) -> tuple[int, float]:
        """Count and summed duration of `name` spans not nested in another
        `name` span (a recursive call is part of its caller's span)."""
        n, total = 0, 0.0
        for idx, (nm, t0, t1, _, _) in enumerate(self.spans):
            if nm == name and not self._has_ancestor_named(idx, name):
                n += 1
                total += t1 - t0
        return n, total

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus its child spans and the
        FFTs inside it.  FFT time is the spectral layer's self time."""
        child = [0.0] * len(self.spans)
        for nm, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for idx, (nm, t0, t1, _, fft_s) in enumerate(self.spans):
            layer = nm.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[idx] - fft_s
        out["spectral"] = self.fft[2]
        return out

    def dump(self, fh, label: dict) -> None:
        for nm, t0, t1, parent, fft_s in self.spans:
            fh.write(json.dumps({**label, "name": nm, "start": t0, "end": t1,
                                 "parent": parent, "fft_s": fft_s}) + "\n")
