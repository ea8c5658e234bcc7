"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every ``treescale`` layer
module, and the public methods of ``PermGroup`` (plus ``__contains__``) and
``Permutation.__mul__``/``inverse``, at every place they are bound: module
attributes (``sylow_subgroup`` is bound in ``sylow``, ``bmtree`` and
``groupspec``), dict values such as ``acceptance.CHECKS``, and the class
dicts.  ``uninstall`` puts the originals back.

Each timed call keeps a frame on a stack, so self time (busy time minus the
time of wrapped callees) is exact without storing spans.  Spans (name,
start, end, parent span, op id) are also kept in memory, up to SPAN_LIMIT,
and written out when the run ends.  Very hot leaf calls are only counted.

Two counters read private attributes by name: ``PermGroup._chain`` (chain
builds) and ``PermGroup._elements`` (elements enumerated).  A
change that renames them must update this file in a benchmark change of its
own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("perm", "bmtree", "sylow", "supernat", "balloracle", "groupspec", "cli",
          "acceptance")
COUNT_ONLY = {"perm.Permutation.mul", "perm.Permutation.inverse",
              "supernat.prime_factors", "supernat.valuation", "supernat.is_prime"}
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, busy_s, self_s]
        self.counts: dict[str, int] = {}      # "<name>.<quantity>" -> count
        self.keys: dict[str, set] = {}        # name -> distinct argument keys seen
        self.keep: list = []                  # keeps keyed objects alive, so ids stay unique
        self.stack: list[list] = []           # [start, child time, span index]
        self.active: dict[str, int] = {}
        self.spans: list = []
        self.dropped = 0
        self.op = -1
        self.origin = perf_counter()
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _seen(self, name: str, obj, *rest) -> bool:
        """Record (obj, *rest) for name; True when it was seen before."""
        seen = self.keys.setdefault(name, set())
        key = (id(obj), *rest)
        if key in seen:
            return True
        seen.add(key)
        self.keep.append(obj)
        return False

    def counted(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, name: str, fn, before=None, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans = self.stack, self.active, self.spans
        active[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            token = before(*args, **kwargs) if before else None
            if len(spans) < SPAN_LIMIT:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter(), 0.0, index]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - frame[0]
                stat[2] += duration - frame[1]
                if not active[name]:
                    stat[1] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, frame[0] - self.origin, end - self.origin,
                                    parent, self.op)
            if after:
                after(result, token, *args, **kwargs)
            return result
        return wrapper

    def _hooks(self, name: str):
        """Extra counters for the functions whose per-layer metrics need
        more than calls and times."""
        if name == "perm.PermGroup.chain":
            def before(g):
                if getattr(g, "_chain", True) is None:
                    self._count(name + ".builds")
            return before, None
        if name == "perm.PermGroup.elements":
            def before(g, *a, **k):
                return getattr(g, "_elements", True) is None

            def after(result, building, *a, **k):
                if building:
                    self._count(name + ".enumerated", len(result))
            return before, after
        if name == "perm.PermGroup.normaliser":
            # Permutation products made while an outermost normaliser call
            # runs: its search and the subgroup it builds, as executed.
            mul = self.stats.setdefault("perm.Permutation.mul", [0, 0.0, 0.0])

            def before(*a, **k):
                return None if self.active[name] else mul[0]

            def after(result, at_entry, *a, **k):
                if at_entry is not None:
                    self._count(name + ".mul_calls", mul[0] - at_entry)
            return before, after
        if name == "perm.PermGroup.point_stabiliser":
            return (lambda g, point: self._seen(name, g, point)), None
        if name == "bmtree.designated_sylow":
            def before(f, p):
                if self._seen(name, f, p):
                    self._count(name + ".repeats")
            return before, None
        if name == "bmtree.scale_spectrum":
            def after(result, *a, **k):
                self._count(name + ".entries", len(result.entries))
                self._count(name + ".truncated", int(result.truncated))
            return None, after
        return None, None

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self.counted(name, fn)
        return self.timed(name, fn, *self._hooks(name))

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"treescale.{layer}") for layer in LAYERS}
        wrapped = {}   # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        perm = modules["perm"]
        methods = [(perm.PermGroup, attr, attr) for attr, obj in vars(perm.PermGroup).items()
                   if inspect.isfunction(obj) and not attr.startswith("_")]
        methods += [(perm.PermGroup, "__contains__", "contains"),
                    (perm.Permutation, "__mul__", "mul"),
                    (perm.Permutation, "inverse", "inverse")]
        for cls, attr, label in methods:
            original = cls.__dict__[attr]
            self._set(cls, attr, self._wrap(f"perm.{cls.__name__}.{label}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "treescale" and not mod_name.startswith("treescale."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._set(mod, attr, wrapped[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped and wrapped[id(value)][0] is value:
                            self._undo.append((obj.__setitem__, key, value))
                            obj[key] = wrapped[id(value)][1]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def metric(self, name: str):
        """A per-layer metric by name: <function>.<calls|busy_s|self_s|
        miss_ratio|repeat_ratio> or a hook counter such as <function>.builds."""
        base, _, quantity = name.rpartition(".")
        calls, busy, self_s = self.stats.get(base, (0, 0.0, 0.0))
        if quantity == "calls":
            return calls
        if quantity == "busy_s":
            return busy
        if quantity == "self_s":
            return self_s
        if quantity == "miss_ratio":
            return len(self.keys.get(base, ())) / calls if calls else 0.0
        if quantity == "repeat_ratio":
            return self.counts.get(base + ".repeats", 0) / calls if calls else 0.0
        return self.counts.get(name, 0)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans),
                                 "spans_dropped": self.dropped,
                                 "stats": {k: v for k, v in sorted(self.stats.items()) if v[0]},
                                 "counts": dict(sorted(self.counts.items()))}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
