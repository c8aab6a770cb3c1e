"""Per-layer timing of knotcert, applied from outside the package.

The tracer wraps every public function of the traced modules, as listed
in each module's ``__all__``, and the ``to_json``/``from_json`` methods
of their public classes, with ``perf_counter`` spans.  A span's self time
is its duration minus the durations of the wrapped calls it encloses.
Nothing in the package is edited: each wrapper replaces the function in
every ``knotcert.*`` namespace that holds it, so ``from .x import f``
aliases and the package-level re-exports are traced too.  A function a
later version adds to ``__all__`` is traced without a change here.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

MODULES = ("braid", "diagram", "_matrix", "invariants", "homfly", "certify", "cli")
METHODS = ("to_json", "from_json")

# Size read from a layer's return value; recorded as <size>_sum and <size>_max.
SIZES = {
    "diagram.goeritz": ("dim", lambda result: len(result.matrix)),
    "diagram.braid_closure": ("crossings", lambda result: len(result.crossings)),
    "braid.normal_form": ("canonical_length", lambda result: result.canonical_length),
    "homfly.homfly": ("terms", lambda result: len(result.coeffs)),
    "certify.CertificateReport.to_json": ("bytes", lambda result: len(result.encode())),
}

# Key of a call's input; distinct_ratio is distinct keys over calls.
KEYS = {
    "diagram.braid_closure": lambda args: (args[0].strands, args[0].letters),
}


def layer_name(module: str, *attrs: str) -> str:
    """Metric prefix of a traced function: module without its leading
    underscore (metric names start with a letter), then the attribute path."""
    return ".".join((module.lstrip("_"),) + attrs)


class Tracer:
    """Wrappers for the traced functions, and per-pass layer counters.

    Built once; ``install`` puts the wrappers in place of the originals
    and ``uninstall`` puts the originals back.
    """

    def __init__(self):
        self._stack = [0.0]
        self._records: dict[str, dict] = {}
        self._keys: dict[str, set] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"knotcert.{short}")
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    replaced[obj] = self._wrap(layer_name(short, attr), obj)
                elif isinstance(obj, type):
                    for meth in METHODS:
                        self._plan_method(layer_name(short, attr, meth), obj, meth)
        for name, module in list(sys.modules.items()):
            if name != "knotcert" and not name.startswith("knotcert."):
                continue
            for attr, value in vars(module).items():
                if isinstance(value, types.FunctionType) and value in replaced:
                    self._patches.append((module, attr, value, replaced[value]))

    @property
    def wrapped(self) -> set[str]:
        return set(self._records)

    def install(self):
        for target, attr, _original, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, _wrapper in self._patches:
            setattr(target, attr, original)

    def _plan_method(self, name: str, cls: type, meth: str):
        raw = cls.__dict__.get(meth)
        if isinstance(raw, (staticmethod, classmethod)):
            self._patches.append((cls, meth, raw, type(raw)(self._wrap(name, raw.__func__))))
        elif isinstance(raw, types.FunctionType):
            self._patches.append((cls, meth, raw, self._wrap(name, raw)))

    def _wrap(self, name: str, fn):
        size_name, size_of = SIZES.get(name, (None, None))
        key_of = KEYS.get(name)
        rec = self._records[name] = {"calls": 0, "self_s": 0.0}
        if size_name:
            rec[f"{size_name}_sum"] = rec[f"{size_name}_max"] = 0
        keys = self._keys[name] = set() if key_of else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                rec["calls"] += 1
                rec["self_s"] += elapsed - inner
            if size_name:
                size = size_of(result)
                rec[f"{size_name}_sum"] += size
                rec[f"{size_name}_max"] = max(rec[f"{size_name}_max"], size)
            if keys is not None:
                keys.add(key_of(args))
            return result

        return wrapper

    def take_pass(self) -> dict[str, float]:
        """Flat ``layer.counter`` values since the last call, then reset."""
        flat: dict[str, float] = {}
        for name, rec in self._records.items():
            for counter, value in rec.items():
                flat[f"{name}.{counter}"] = value
                rec[counter] = 0.0 if counter == "self_s" else 0
            keys = self._keys[name]
            if keys is not None:
                flat[f"{name}.distinct_ratio"] = (
                    len(keys) / flat[f"{name}.calls"] if keys else 0.0)
                keys.clear()
        self._stack[:] = [0.0]
        return flat
