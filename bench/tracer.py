"""Span tracer that measures freqbooth's layers from outside the package.

Each traced function is replaced at every module binding it is called
through (``diffusion.attention_forward`` as well as
``attention.attention_forward``); a method is replaced on its class.
Nothing inside the package is edited: the wrappers are installed for one
traced op and removed again, so untraced ops run the original functions.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out once the run ends.  A layer's self time is its span's duration
minus the part of that interval its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

HOOK_SPAN = "trace.hook"
ROOT_SPAN = "bench.op"


class Tracer:
    """Installs span-recording wrappers around `targets` of `package`.

    `targets` are qualified names relative to the package, such as
    ``"diffusion.sample"`` or ``"tensor_core.RngState.normal"``.  `hooks`
    maps a target to ``(before, after)`` callables, either may be None;
    ``before(args, kwargs)`` runs ahead of the call and
    ``after(args, kwargs, result)`` after it.  Hook time is recorded as a
    ``trace.hook`` span so it never counts as any layer's self time.
    """

    def __init__(self, package: str, targets, hooks=None):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        hooks = hooks or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        by_name = {m.__name__: m for m in modules}
        self._patches = []
        for qual in targets:
            mod_name, _, attr_path = qual.partition(".")
            owner = by_name[f"{package}.{mod_name}"]
            *cls_path, fname = attr_path.split(".")
            if cls_path:
                cls = getattr(owner, cls_path[0])
                original = cls.__dict__[fname]
                wrapper = self._wrap(qual, original, *hooks.get(qual, (None, None)))
                self._patches.append((cls, fname, original, wrapper))
                continue
            original = getattr(owner, fname)
            wrapper = self._wrap(qual, original, *hooks.get(qual, (None, None)))
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _hook(self, fn, *args) -> None:
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter()
        fn(*args)
        self.spans.append((HOOK_SPAN, start, time.perf_counter(), parent, self.op))

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        return traced

    def binding_count(self) -> int:
        return len(self._patches)

    def run(self, op: int, fn):
        """Call `fn()` as traced op `op` under a root span; returns its result.

        Wrappers are installed just before the root span and removed just
        after it, so a caller timing the whole call counts their cost as
        tracing overhead.
        """
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.op = op
        try:
            return self._wrap(ROOT_SPAN, fn, None, None)()
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.op = -1

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """(calls per span name, total self seconds per span name)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[sid]
        return calls, self_s

    def write(self, path) -> None:
        """One JSON object per span; a span's id is its line number from 0."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}))
                fh.write("\n")
