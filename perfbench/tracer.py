"""In-memory span tracer that wraps library functions from outside the library.

A span is ``[name, start, end, parent, sentence_id, n_words]``: times come
from ``time.perf_counter``, ``parent`` is the index of the enclosing span
(-1 at top level), and ``sentence_id`` is the sentence being processed when
the span opened (the most recent sentence-level span; ``None`` before any).
Spans stay in memory until :meth:`Tracer.write` dumps them at exit.

Library modules bind some functions with ``from x import y``; such a name
must be patched in the module that looks it up (``model.score_spans``, not
``chart.score_spans``), which is why :meth:`Tracer.patch` takes the owner.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.sentence = None
        self._stack = []
        self._undo = []

    def _open(self, name, sentence=None, n_words=None):
        if sentence is not None:
            self.sentence = sentence
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.sentence, n_words])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def patch(self, owner, attr, name, sentence_arg=None, after=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``sentence_arg`` is the position of a Sentence argument whose id and
        length tag the span; ``after(args, result)`` runs on each return,
        inside the span, to take counts where the work happens.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sent = args[sentence_arg] if sentence_arg is not None else None
            idx = tracer._open(
                name,
                sentence=sent.sentence_id if sent is not None else None,
                n_words=len(sent) if sent is not None else None,
            )
            try:
                result = orig(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tracer._close(idx)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def summary(self):
        """{name: (calls, total_s, self_s)}; self time excludes child spans."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _sid, _n in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _parent, _sid, _n) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[idx]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "sentence_id", "n_words"],
                    "spans": self.spans,
                },
                fh,
            )
