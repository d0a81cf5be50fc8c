"""In-memory call tracing for the benchmark's traced runs.

A layer is a module of `quartic_moments`.  `install` replaces every binding
of the traced functions -- the defining module's and each copy that a
`from .x import y` made in another module -- so that no call escapes the
wrappers.  Functions in SPANNED get one span per call (name, start, end,
parent, run id), kept in memory until `dump`.  The hot functions in COUNTED
get only a call count and their total time; their time is still charged to
the enclosing span, so span self times stay exact.  A counted function must
not call a spanned one (true of both entries below).
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

SPANNED = {
    "gauss_sums": ("gauss_sum", "tau_closed_form"),
    "characters": ("character_exponents", "characters_upto"),
    "gaussint": ("factor",),
    "sieves": ("primes_upto",),
    "lfunctions": ("lvalue_afe", "v_values", "epsilon_factor"),
    "moments": (
        "first_moment",
        "second_moment",
        "central_values",
        "sieve_ratio_quartic",
        "sieve_ratio_quadratic",
    ),
    "cache": ("read_lvalue_cache", "write_lvalue_cache"),
    "cli": ("dispatch",),
}

COUNTED = {
    "symbols": ("quartic_exponent_fast",),
    "characters": ("QuarticCharacter.prime_exponent",),
}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.child_s: list[float] = []  # time covered by each span's children
        self.stack: list[int] = []  # open span indices
        self.counted_stack: list[float] = []  # nested counted time per open counted call
        self.counted: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.work: dict[str, float] = {}
        self.v_keys: set = set()

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, child_s, stack = self.spans, self.child_s, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child_s.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if parent >= 0:
                    child_s[parent] += t1 - t0
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        agg = self.counted.setdefault(name, [0, 0.0, 0.0])
        nested, child_s, stack = self.counted_stack, self.child_s, self.stack

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = nested.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - inner
                if nested:
                    nested[-1] += dt
                elif stack:
                    child_s[stack[-1]] += dt

        return wrapper

    # -- work counters at the layer boundaries --------------------------

    def _add(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    def _on_gauss_sum(self, args, result):
        n = args[0]
        self._add("gauss_sums.gauss_sum.residues", n.a * n.a + n.b * n.b)

    def _on_character_exponents(self, args, result):
        self._add("characters.character_exponents.entries", len(result))

    def _on_v_values(self, args, result):
        alpha, j, xs = complex(args[0]), args[1], args[2]
        self._add("lfunctions.v_values.points", len(result[0]))
        # xs = m / A for m = 1..M, so (xs[0], len) identifies (A, M)
        first = float(xs[0]) if len(xs) else 0.0
        self.v_keys.add(f"{alpha.real!r},{alpha.imag!r},{j},{first!r},{len(xs)}")

    def _on_read_cache(self, args, result):
        self._add("cache.read_lvalue_cache.rows", len(result))

    def _on_write_cache(self, args, result):
        self._add("cache.write_lvalue_cache.bytes", os.path.getsize(args[0]))

    def install(self) -> None:
        """Wrap the traced functions in every loaded quartic_moments module."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "quartic_moments" or name.startswith("quartic_moments."))
        ]
        hooks = {
            "gauss_sums.gauss_sum": self._on_gauss_sum,
            "characters.character_exponents": self._on_character_exponents,
            "lfunctions.v_values": self._on_v_values,
            "cache.read_lvalue_cache": self._on_read_cache,
            "cache.write_lvalue_cache": self._on_write_cache,
        }
        replace = {}
        for layer, names in SPANNED.items():
            mod = sys.modules.get(f"quartic_moments.{layer}")
            if mod is None:
                continue
            for fname in names:
                orig = getattr(mod, fname)
                name = f"{layer}.{fname}"
                replace[id(orig)] = (orig, self.span(name, orig, hooks.get(name)))
        for layer, names in COUNTED.items():
            mod = sys.modules.get(f"quartic_moments.{layer}")
            if mod is None:
                continue
            for dotted in names:
                owner, _, fname = dotted.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    setattr(cls, fname, self.count(f"{layer}.{fname}", getattr(cls, fname)))
                else:
                    orig = getattr(mod, fname)
                    replace[id(orig)] = (orig, self.count(f"{layer}.{fname}", orig))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name [calls, inclusive s, self s] plus the work counters."""
        spans: dict[str, list] = {}
        for (name, t0, t1, _), covered in zip(self.spans, self.child_s):
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - covered
        return {
            "spans": spans,
            "counted": self.counted,
            "work": self.work,
            "v_keys": sorted(self.v_keys),
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": t0, "end": t1,
                    "parent": parent, "run": self.run_id,
                }) + "\n")
