"""Span tracer installed around the public functions of each layer module.

The tracer lives entirely in the benchmark: ``install`` replaces every
``binomhorn.*`` module attribute bound to a public function of a layer
module with a timing wrapper, and the returned handle restores them.
Because module globals are replaced too, calls made inside the pipeline
(``generic_rank`` calling ``enumerate_decompositions``, ``solution_basis``
calling ``gamma_series``) are spanned as well.

Spans are kept in memory as (name, start, end, parent, job) tuples and
written out by the caller.  Self time is a span's duration minus the time
covered by its child spans.  Character callables are called once per
series term, so they are timed as leaves in aggregate, without a span
each.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer modules whose public functions are spanned; exact_linalg and the
# cyclotomic Scalar are too fine-grained and are measured through callers
LAYERS = ("model", "decomp", "subgraph", "geometry", "ranks", "series",
          "solutions", "cli")

# helpers whose self time is charged to the calling span's bucket
FOLD_INTO_CALLER = {"geometry.own_lattice_coordinates",
                    "solutions.embed_series",
                    "solutions.component_polynomial"}


def rebind(replacements):
    """Point every binomhorn.* module attribute bound to a key of
    ``replacements`` at its value; returns the undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "binomhorn"
                               or modname.startswith("binomhorn.")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replacements:
                setattr(mod, attr, replacements[val])
                undo.append((mod, attr, val))
    return undo


def restore(undo):
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


def public_functions(layer):
    mod = sys.modules["binomhorn." + layer]
    return {attr: fn for attr, fn in vars(mod).items()
            if inspect.isfunction(fn) and not attr.startswith("_")
            and fn.__module__ == mod.__name__}


class Tracer:
    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.spans = []
        self.stack = []     # [bucket, child seconds, span id] per open span
        self.job = None
        self.self_s = defaultdict(float)   # by bucket
        self.calls = Counter()             # by function name
        self.counts = Counter()            # work counters set by hooks

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            for attr, fn in public_functions(layer).items():
                wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        return rebind(wrappers)

    def wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            bucket = parent[0] if parent and name in FOLD_INTO_CALLER else name
            span_id = len(self.spans)
            frame = [bucket, 0.0, span_id]
            self.spans.append(None)
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook:
                    hook(self, args, kwargs, None, exc)
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                if parent:
                    parent[1] += end - start
                self.self_s[bucket] += end - start - frame[1]
                self.calls[name] += 1
                self.spans[span_id] = (name, start, end,
                                       parent[2] if parent else None,
                                       self.job)
            if hook:
                result = hook(self, args, kwargs, result, None)
            return result

        return wrapper

    def leaf(self, name, fn):
        """Time a hot leaf callable in aggregate."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                if self.stack:
                    self.stack[-1][1] += spent
                self.self_s[name] += spent
                self.calls[name] += 1

        return wrapper

    def layer_self(self, prefix):
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

