"""Span tracing of circulant4 from outside the package.

`Tracer.install()` replaces the public functions and methods of the traced
modules with wrappers that record one span per call: the name, the start
and end (perf_counter_ns) and the index of the enclosing span. Every module
of the package is patched, so names re-bound by ``from .x import y`` are
wrapped too. `Tracer.uninstall()` puts the originals back.

Spans are appended to flat integer arrays while tracing is on and are only
reduced or written out afterwards. A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum over
the spans of the functions defined in that module.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "circulant4"
LAYERS = ("fields", "circulant", "manifolds", "connection", "curvature", "scan", "cli")


def _public_callables(module):
    """(owner, attribute, original, label) for every function to wrap.

    Public means: a module-level function or a method of a module-level
    class whose name does not start with an underscore, plus `__call__`.
    Only objects defined in `module` itself count, so a function imported
    from a sibling module is attributed to the module that defines it.
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    found.append((obj, attr, raw, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Records spans of the traced layers between install() and uninstall()."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.labels: list[str] = []
        self.label_layer: list[int] = []
        self._label_ids: dict[str, int] = {}
        self.absent_layers: list[str] = []
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # recording

    def _wrap(self, fn, label_id):
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(label_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public callable of the layers present in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}  # id(original function) -> wrapper
        self.absent_layers = []
        for layer_id, layer in enumerate(self.layers):
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                self.absent_layers.append(layer)
                continue
            for owner, attr, raw, label in _public_callables(module):
                label_id = self._label_id(label, layer_id)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, label_id))
                else:
                    wrapped = self._wrap(raw, label_id)
                    replaced[id(raw)] = wrapped
                self._patch(owner, attr, raw, wrapped)
        # re-bound names: `from .scan import run_scan` in cli, the package
        # namespace, and so on
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._patch(module, attr, value, wrapper)

    def _label_id(self, label, layer_id) -> int:
        """The same id for a label on every install, so spans of all calls add up."""
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.label_layer.append(layer_id)
        return self._label_ids[label]

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        """Restore every patched attribute, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # reduction

    def span_count(self) -> int:
        """Spans recorded so far; pass it to `summary` to reduce only later ones."""
        return len(self.starts)

    def summary(self, begin: int = 0) -> dict:
        """Calls and inclusive time per label, self time per layer.

        Reduces the spans recorded from index `begin` on, which must start
        a whole call tree, as between two top-level calls.
        """
        end = len(self.starts)
        ids = np.frombuffer(self.name_ids, dtype=np.int64)[begin:end]
        parents = np.frombuffer(self.parents, dtype=np.int64)[begin:end]
        duration = (
            np.frombuffer(self.ends, dtype=np.int64)[begin:end]
            - np.frombuffer(self.starts, dtype=np.int64)[begin:end]
        ).astype(np.float64)
        nested = parents >= begin
        child_time = np.bincount(
            parents[nested] - begin, weights=duration[nested], minlength=len(ids)
        )
        own = duration - child_time
        nlabels = len(self.labels)
        counts = np.bincount(ids, minlength=nlabels)
        self_ns = np.bincount(ids, weights=own, minlength=nlabels)
        total_ns = np.bincount(ids, weights=duration, minlength=nlabels)
        layer_of = np.asarray(self.label_layer, dtype=np.int64)
        layer_self = np.bincount(layer_of, weights=self_ns, minlength=len(self.layers))
        return {
            "count": {lab: int(counts[i]) for i, lab in enumerate(self.labels)},
            "total_ns": {lab: float(total_ns[i]) for i, lab in enumerate(self.labels)},
            "layer_self_ns": {
                layer: float(layer_self[k]) for k, layer in enumerate(self.layers)
            },
        }

    def write(self, path):
        """Write the spans as an .npz: labels, name ids, starts, ends, parents."""
        np.savez_compressed(
            path,
            labels=np.asarray(self.labels, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            starts_ns=np.frombuffer(self.starts, dtype=np.int64),
            ends_ns=np.frombuffer(self.ends, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
        )
