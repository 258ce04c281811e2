"""Spans around calls into commrep's public functions, recorded from outside.

The tracer replaces a function by a timing wrapper under every name its
callers look it up by: each ``commrep`` module attribute bound to that
function object (``certificate.rank``, ``search.realizes``, the package
re-export, ...), or a class attribute for methods such as
``Matrix.__matmul__``.  Nothing under ``src/`` changes, and ``uninstall``
puts the originals back.

Spans (name, start, end, parent) are kept in memory; ``self_times`` turns
them into per-name call counts and self time, which is a span's duration
minus the time its child spans cover.  Hooks add counts at the same
boundaries (nodes from search reports, pairs checked, allocation peaks).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, targets):
        """Wrap each (owner, attribute, span name, hook) target.

        A module owner is a source: every loaded ``commrep`` module that
        binds the same object gets the wrapper.  A class owner is patched
        in place.
        """
        modules = [m for n, m in sys.modules.items() if n == "commrep" or n.startswith("commrep.")]
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, hook)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def self_times(self):
        """{name: (calls, self seconds)} over every recorded span."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, _, _, _), t in zip(self.spans, own):
            out[name][0] += 1
            out[name][1] += t
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """One JSON array per line: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
