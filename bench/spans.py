"""Traced mode: wrap knvex layer boundaries from outside and aggregate spans.

`install` patches module and class attributes at runtime; `src/` is not
edited.  A function is rebound in every knvex module that holds it, because
modules import names directly (cli does `from .search import vex_exact`).

Spans are aggregated per (name, parent) into calls, total and self time,
instead of one record per call: push, pop and neighbor_mask run millions of
times.  Self time is a span's duration minus the durations of its direct
children.  Per-element helpers (kneser_adjacent, complement, validate_*) and
the patterns module stay unwrapped; their time lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
import time

# (module, attribute or Class.method, span name).  The layer is the span
# name's first component.
BOUNDARIES = (
    ("knvex.cli", "main", "cli.main"),
    ("knvex.search", "max_family_avoiding", "search.max_family"),
    ("knvex.search", "vex_exact", "search.vex_exact"),
    ("knvex.search", "vex_bounds", "search.vex_bounds"),
    ("knvex.freeness", "IncrementalChecker.push", "freeness.push"),
    ("knvex.freeness", "IncrementalChecker.pop", "freeness.pop"),
    ("knvex.freeness", "IncrementalChecker.currently_free", "freeness.currently_free"),
    ("knvex.freeness", "is_free", "freeness.is_free"),
    ("knvex.freeness", "InducedKneser.neighbor_mask", "freeness.neighbor_mask"),
    ("knvex.posets", "IncrementalPosetChecker.push", "posets.push"),
    ("knvex.posets", "IncrementalPosetChecker.pop", "posets.pop"),
    ("knvex.posets", "IncrementalPosetChecker.currently_free", "posets.currently_free"),
    ("knvex.posets", "contains_poset_copy", "posets.contains_copy"),
    ("knvex.posets", "la", "posets.la"),
    ("knvex.posets", "e_of_poset", "posets.e_of_poset"),
    ("knvex.constructions", "star_family", "constructions.generate"),
    ("knvex.constructions", "matching_extremal", "constructions.generate"),
    ("knvex.constructions", "bip_lower", "constructions.generate"),
    ("knvex.constructions", "threshold_family", "constructions.generate"),
    ("knvex.constructions", "clique_threshold_family", "constructions.generate"),
    ("knvex.constructions", "e2_two_level", "constructions.generate"),
    ("knvex.constructions", "build_construction", "constructions.build"),
    ("knvex.constructions", "verify_construction", "constructions.verify"),
    ("knvex.sets", "level_slice", "sets.level_slice"),
    ("knvex.sets", "upset", "sets.upset"),
    ("knvex.sets", "Family.of", "sets.family_of"),
    ("knvex.sets", "family_from_text", "sets.family_from_text"),
    ("knvex.cycle", "double_count_check", "cycle.double_count"),
    ("knvex.cycle", "cycle_upper_bound", "cycle.upper_bound"),
)

# Checker pushes after which currently_free() turns False are counted
# separately: each one is a wasted include branch of the search.
_CHECKERS = ("freeness.push", "posets.push")

ROOT = "<root>"


class Tracer:
    """Aggregated span tree: (name, parent) -> [calls, total_s, self_s]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[tuple[str, str], list] = {}
        self.violations: dict[str, int] = {}
        self._stack = [[ROOT, 0.0]]  # [name, child time] per open span

    def wrap(self, name: str, fn):
        clock = self.clock
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                rec = spans.get((name, parent[0]))
                if rec is None:
                    spans[(name, parent[0])] = [1, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

        return traced

    def count_violations(self, name: str, push, currently_free):
        """push wrapper counting the pushes that end freeness."""
        violations = self.violations
        violations.setdefault(name, 0)

        def push_counted(checker, mask):
            was_free = currently_free(checker)
            push(checker, mask)
            if was_free and not currently_free(checker):
                violations[name] += 1

        return push_counted

    def to_json(self) -> dict:
        return {
            "spans": [[n, p, *rec] for (n, p), rec in sorted(self.spans.items())],
            "violations": dict(self.violations),
        }


def install(tracer: Tracer):
    """Wrap every boundary; returns a function that undoes the patching."""
    undo = []
    for modname, attr, name in BOUNDARIES:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = inspect.getattr_static(cls, meth)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if name in _CHECKERS:
                free = inspect.getattr_static(cls, "currently_free")  # not yet wrapped
                fn = tracer.count_violations(name, fn, free)
            wrapped = tracer.wrap(name, fn)
            setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            undo.append((cls, meth, raw))
            continue
        fn = getattr(module, attr)
        wrapped = tracer.wrap(name, fn)
        for other in [m for k, m in sys.modules.items() if k == "knvex" or k.startswith("knvex.")]:
            for key, val in list(vars(other).items()):
                if val is fn:
                    setattr(other, key, wrapped)
                    undo.append((other, key, fn))

    def uninstall():
        for owner, key, val in reversed(undo):
            setattr(owner, key, val)

    return uninstall
