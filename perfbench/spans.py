"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of coxkit's modules wherever any coxkit
module binds them (``coxkit.conjugacy.multiply`` as well as
``coxkit.core.multiply``), so calls between modules are seen too, and puts
the originals back on :meth:`Tracer.remove`.  Spans are aggregated per
function as they close instead of being kept one by one: a sweep makes
hundreds of thousands of ``multiply`` calls.

Self time is a span's duration minus the time covered by its child spans.
"""

import sys
import time
import types
from collections import Counter

#: Traced functions, by the coxkit module that defines them.
TRACED = {
    "core": ("canonical_word", "braid_class", "is_reduced", "multiply", "inverse"),
    "conjugacy": ("are_conjugate", "cyclic_reduce", "is_finite_order",
                  "is_cyclically_reduced", "has_cent_prime"),
    "parabolic": ("torsion_witness", "normalises", "centralises", "is_spherical"),
    "straight": ("is_straight", "power_length_profile"),
    "oracle": ("enumerate_elements",),
}

# result-size counters: span name -> counter suffix
_SIZES = {"core.braid_class": "words", "oracle.enumerate_elements": "elements"}


class Tracer:
    """Aggregated spans: calls, self time and total time per traced function.

    ``counts`` holds the counters measured at span boundaries:
    ``core.multiply.memo_hits`` (multiply spans with no canonical_word child),
    ``conjugacy.has_cent_prime.multiplies`` (multiply spans opened under a
    has_cent_prime span) and the result sizes named in ``_SIZES``.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self._stack = []  # open spans: [child seconds, canonical_word child seen]
        self._cent_depth = 0
        self._patches = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        size_key = _SIZES.get(name)
        is_multiply = name == "core.multiply"
        is_canonical = name == "core.canonical_word"
        is_cent = name == "conjugacy.has_cent_prime"

        def traced(*args, **kwargs):
            if is_canonical and stack:
                stack[-1][1] = True
            if is_multiply and self._cent_depth:
                self.counts["conjugacy.has_cent_prime.multiplies"] += 1
            if is_cent:
                self._cent_depth += 1
            frame = [0.0, False]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_cent:
                    self._cent_depth -= 1
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if is_multiply and not frame[1]:
                self.counts["core.multiply.memo_hits"] += 1
            if size_key is not None:
                self.counts[f"{name}.{size_key}"] += len(result)
            return result

        return traced

    def install(self, extra=()):
        """Wrap every function in TRACED, plus ``extra`` (span name, function)
        pairs, in every loaded coxkit module that binds it."""
        import coxkit

        names = {}
        for module_name, functions in TRACED.items():
            module = getattr(coxkit, module_name)
            for fn_name in functions:
                names[getattr(module, fn_name)] = f"{module_name}.{fn_name}"
        for name, fn in extra:
            names[fn] = name
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "coxkit" or key.startswith("coxkit.")]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, wrappers[value])

    def remove(self):
        while self._patches:
            module, attribute, original = self._patches.pop()
            setattr(module, attribute, original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict, prefix: str = ""):
        """Add a snapshot taken in another process (only names under ``prefix``)."""
        for field in ("calls", "self_s", "total_s", "counts"):
            mine = getattr(self, field)
            for name, value in snap[field].items():
                if name.startswith(prefix):
                    mine[name] += value
