"""Layer spans recorded from outside the program.

`Tracer` wraps every public function of the `afk` layer modules at each
module binding where callers look it up (`afk.cli.fm_profile`,
`afk.colimit.rank`, `afk.kstability.materialize`, ...).  A wrapper belongs to
the layer of the module that defines the function, so an alias such as
`afk.cli.validate_diagram` is a `diagram` span.  Names are discovered, not
listed, so a function a later change deletes or renames is simply not
traced.  Spans are folded into per-function totals as they close:

* `own`  - wall time of its spans minus time in child spans of other layers;
* `self` - wall time of its spans minus time in every child span.

A layer's self time is the sum of `self` over its functions, which splits
the traced wall time between layers without counting anything twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "io", "diagram", "truncation", "colimit", "linalg", "kstability")


def _entry_bits(matrix):
    return max((abs(x).bit_length() for x in matrix.entries), default=0)


def _useful_levels(system):
    """(cycle_start + period, levels); a system without a cycle uses all its levels."""
    if system.cycle_start is None:
        return system.levels, system.levels
    return system.cycle_start + (system.period or 1), system.levels


class Tracer:
    """Install with `with Tracer() as t:`; read `t.stats` and `t.counters` after."""

    def __init__(self):
        self.stats = defaultdict(lambda: {"calls": 0, "own": 0.0, "self": 0.0})
        self.counters = defaultdict(int)
        self._stack: list = []
        self._saved: list = []

    # counters read at a layer boundary, keyed by (layer, function)
    def _observe(self, key, args, kwargs, result):
        c = self.counters
        if key == ("diagram", "materialize"):
            c["levels_materialized"] += kwargs.get("levels", args[1] if len(args) > 1 else 0)
        elif key == ("truncation", "build_system"):
            useful, levels = _useful_levels(result)
            c["useful_levels"] += useful
            c["system_levels"] += levels
        elif key == ("linalg", "rank"):
            c["max_entry_bits"] = max(c["max_entry_bits"], _entry_bits(args[0]))
        elif key == ("io", "export_dot"):
            c["export_dot_bytes"] += len(result.encode())

    def _wrap(self, layer, func):
        key = (layer, func.__name__)
        stack = self._stack
        stat = self.stats[key]
        observe = self._observe
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [layer, 0.0, 0.0]  # layer, child time, child time in other layers
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                stat["calls"] += 1
                stat["own"] += spent - frame[2]
                stat["self"] += spent - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += spent
                    if parent[0] != layer:
                        parent[2] += spent
            try:
                observe(key, args, kwargs, result)
            except (AttributeError, IndexError, TypeError):
                pass  # a refactored signature loses the counter, not the run
            return result

        return traced

    def __enter__(self):
        for name in LAYERS:
            module = importlib.import_module(f"afk.{name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("afk."):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(home.rsplit(".", 1)[1], obj))
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        return False

    def layer_self_ms(self, layer):
        return 1000 * sum(s["self"] for (lay, _), s in self.stats.items() if lay == layer)

    def get(self, layer, function, field):
        stat = self.stats.get((layer, function))
        if stat is None:
            return 0
        return stat[field] * 1000 if field != "calls" else stat["calls"]
