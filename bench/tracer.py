"""Outside-in tracing of the gibbsgap layers, from the benchmark's side.

The package modules import each other's functions by name
(``from .gibbs import gibbs_tilt``), so wrapping a function means rebinding
that name in every ``gibbsgap`` module namespace that holds it, the package
namespace included.  :class:`Tracer` does this for the public functions
(``__all__``) of the traced modules and undoes it on :meth:`Tracer.remove`.

Each wrapped call records one span ``(function, start, end, parent)`` in
memory; nothing is written while a pass runs.  :meth:`Tracer.aggregate`
turns the spans of a pass into per-function call counts, total time and
self time (a span's duration minus that of its direct child spans), and,
for the functions in :data:`KEYED`, the share of calls whose arguments were
new.
"""

from __future__ import annotations

import inspect
import json
import numbers
import sys
import time
from pathlib import Path

#: Modules whose public functions are wrapped, as ``gibbsgap.<name>``.
MODULES = ("scenario", "measures", "gibbs", "divergences", "gaps")

#: One-line accessors left unwrapped: each call is cheaper than a span.
SKIP = frozenset({"measures.atom_masses", "measures.total_mass"})

#: Functions whose distinct argument keys are counted.  A key holds the
#: identity of each object argument and the value of each number.
KEYED = frozenset({"measures.marginal_y", "gibbs.gibbs_tilt"})


def traced_functions() -> dict[str, object]:
    """``{"module.function": function}`` for every function to wrap."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"gibbsgap.{short}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            qual = f"{short}.{name}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and qual not in SKIP:
                out[qual] = fn
    return out


def _arg_key(sig: inspect.Signature, args, kwargs) -> tuple:
    bound = sig.bind(*args, **kwargs)
    return tuple(
        v if isinstance(v, numbers.Number) else id(v) for v in bound.arguments.values()
    )


class Tracer:
    """Records a span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._keys: dict[str, set] = {}
        self._held: list = []  # keeps keyed arguments alive so ids stay unique
        self._rebound: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for qual, fn in traced_functions().items():
            self.names.append(qual)
            self._wrappers[id(fn)] = self._wrap(len(self.names) - 1, qual, fn)

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "gibbsgap" and not modname.startswith("gibbsgap."):
                continue
            for attr, value in list(vars(mod).items()):
                w = self._wrappers.get(id(value))
                if w is not None:
                    setattr(mod, attr, w)
                    self._rebound.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def reset(self) -> None:
        """Drop the spans and keys of the previous pass."""
        self.spans = []
        self._stack.clear()
        self._keys = {}
        self._held = []

    def _wrap(self, name_id: int, qual: str, fn):
        stack = self._stack
        clock = time.perf_counter
        keyed = qual in KEYED
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if keyed:
                self._keys.setdefault(qual, set()).add(_arg_key(sig, args, kwargs))
                self._held.append((args, kwargs))
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per function: ``calls``, ``total_s``, ``self_s`` and, if keyed, ``distinct_frac``."""
        child_time = [0.0] * len(self.spans)
        for name_id, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {q: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for q in self.names}
        for i, (name_id, t0, t1, parent) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        for qual in KEYED:
            calls = out[qual]["calls"]
            out[qual]["distinct_frac"] = len(self._keys.get(qual, ())) / calls if calls else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Write the last pass's spans as JSON: names plus ``[name, start, end, parent]`` rows."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(t0 - base, 9), round(t1 - base, 9), p] for n, t0, t1, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": rows}, separators=(",", ":")))
