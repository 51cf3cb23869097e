"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing inside ``src/`` changes.  :func:`instrument` wraps the layer
entry points at their *call-site* bindings — a name bound by ``from …
import`` lives in the importing module's globals, so e.g. the pass kernel
is wrapped as ``repro.core.hyperpraw.pass_kernel``, not only where it is
defined — and class methods are wrapped on the class.  Spans are kept in
memory (name, start, end, parent, thread, attributes) and written out
when the run ends.

Work done in forked children (shard workers, service jobs) and in the
loopback worker processes is invisible from here; the parent sees it as
time blocked in the call that waits for it, which is what an
outside-in measurement should report.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

__all__ = ["Span", "Tracer", "instrument", "union_length", "self_time"]


class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, sid, name, start, parent, thread, attrs):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "attrs": self.attrs,
        }


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


class Tracer:
    """Nested spans per thread, plus the patches that produce them."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> "Span | None":
        if not self.enabled:
            return None
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            stack[-1].id if stack else None,
            threading.get_ident(),
            attrs,
        )
        stack.append(span)
        return span

    def end(self, span: "Span | None") -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, **attrs):
        """Context manager recording one span (a no-op while disabled)."""
        return _SpanContext(self, name, attrs)

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, *, on_call=None, on_result=None):
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unpatch`).

        ``on_call(span, args, kwargs)`` may return replacement
        ``(args, kwargs)``; ``on_result(span, args, kwargs, result)``
        records attributes from the return value.
        """
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            if span is None:
                return original(*args, **kwargs)
            try:
                if on_call is not None:
                    args, kwargs = on_call(span, args, kwargs)
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                tracer.end(span)

        if isinstance(owner, dict):
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched binding (reverse order, idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every recorded span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict(), default=str) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.span = None

    def __enter__(self):
        self.span = self.tracer.begin(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


# ----------------------------------------------------------------------
# the layer entry points
# ----------------------------------------------------------------------
def _count_blocks(span, args, kwargs):
    """Count the vertices a pass visits by passing its blocks through."""
    blocks = args[0]
    span.attrs["vertices"] = 0

    def counted():
        for block in blocks:
            span.attrs["vertices"] += int(block.ids.size)
            yield block

    return (counted(), *args[1:]), kwargs


def _count_source_bytes(span, args, kwargs):
    """Count the bytes a reader parses: file size, or the blocks it pulls."""
    source = args[0]
    if isinstance(source, (str, os.PathLike)):
        span.attrs["bytes"] = os.path.getsize(source)
        return args, kwargs
    if isinstance(source, (bytes, bytearray)):
        span.attrs["bytes"] = len(source)
        return args, kwargs
    span.attrs["bytes"] = 0

    def counted():
        for block in source:
            span.attrs["bytes"] += len(block)
            yield block

    return (counted(), *args[1:]), kwargs


def _count_proposals(span, args, kwargs):
    """Record how many proposed moves an apply step is handed."""
    moves = list(args[0])
    span.attrs["attempted"] = len(moves)
    return (moves, *args[1:]), kwargs


def _store_bytes(span, args, kwargs, result):
    from repro.service.storecache import dir_bytes

    target = kwargs.get("path", args[1] if len(args) > 1 else None)
    if target is not None:
        span.attrs["bytes"] = dir_bytes(target)


def _metadata(keys):
    def record(span, args, kwargs, result):
        meta = getattr(result, "metadata", {}) or {}
        for key in keys:
            if key in meta:
                span.attrs[key] = meta[key]
        if hasattr(result, "assignment"):
            span.attrs["num_vertices"] = int(len(result.assignment))

    return record


def _job_result(span, args, kwargs, result):
    metrics = getattr(result, "metrics", None)
    if isinstance(metrics, dict):
        span.attrs["wall_time_s"] = metrics.get("wall_time_s")
    span.attrs["job_id"] = getattr(result, "id", None)


def _created_job(span, args, kwargs, result):
    status, doc = result
    span.attrs["status"] = status
    span.attrs["job_id"] = doc.get("id") if isinstance(doc, dict) else None


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are read from."""
    import repro.cluster.protocol as protocol
    import repro.core.hyperpraw as hyperpraw
    import repro.partitioning.families as families
    import repro.partitioning.multilevel.driver as multilevel
    import repro.service.handlers as handlers
    import repro.streaming.chunkstore as chunkstore
    import repro.streaming.onepass as onepass
    import repro.streaming.reader as reader
    import repro.streaming.sharded as sharded
    from repro.architecture.profiling import RingProfiler
    from repro.cluster.coordinator import ClusterRounds
    from repro.engine.parallel import ShardRounds
    from repro.service.jobs import JobStore

    patch = tracer.patch
    patch(
        hyperpraw.HyperPRAW,
        "partition",
        "core.hyperpraw.partition",
        on_result=_metadata(("iterations_run",)),
    )
    for module in (hyperpraw, onepass, sharded):
        patch(module, "pass_kernel", "engine.kernel.pass_kernel", on_call=_count_blocks)
    patch(multilevel, "fm_refine", "partitioning.multilevel.fm_refine")
    patch(multilevel, "coarsen_hierarchy", "partitioning.multilevel.coarsen")
    patch(RingProfiler, "profile", "architecture.profiling.profile")
    patch(
        reader,
        "stream_hmetis",
        "streaming.reader.parse",
        on_call=_count_source_bytes,
    )
    patch(
        handlers.UPLOAD_FORMATS,
        "hmetis",
        "streaming.reader.parse",
        on_call=_count_source_bytes,
    )
    for module in (chunkstore, handlers):
        patch(
            module,
            "write_store",
            "streaming.chunkstore.write_store",
            on_result=_store_bytes,
        )
    patch(ShardRounds, "start", "engine.parallel.start")
    patch(ShardRounds, "exchange", "engine.parallel.exchange")
    patch(ShardRounds, "stop", "engine.parallel.stop")
    patch(sharded, "merge_shard_tables", "engine.parallel.merge")
    patch(
        sharded.ShardedStreamer,
        "partition_stream",
        "streaming.sharded.partition_stream",
        on_result=_metadata(
            (
                "merge_payload_bytes",
                "boundary_payload_bytes",
                "boundary_vertices",
                "boundary_edges",
                "boundary_iterations",
                "peak_tracked_edges",
                "evictions",
                "cluster_wire_bytes",
                "broadcast_bytes_saved",
            )
        ),
    )
    patch(ClusterRounds, "start", "cluster.start")
    patch(ClusterRounds, "exchange", "cluster.exchange")
    patch(ClusterRounds, "stop", "cluster.stop")
    patch(protocol, "encode_payload", "cluster.encode_payload")
    patch(protocol, "frame", "cluster.frame")
    patch(
        families,
        "refine_blocks",
        "partitioning.families.refine_blocks",
        on_result=lambda span, a, k, result: span.attrs.update(
            refine_moves=result[1]["refine_moves"]
        ),
    )
    patch(
        families,
        "_apply_moves",
        "partitioning.families.apply_moves",
        on_call=_count_proposals,
        on_result=lambda span, a, k, applied: span.attrs.update(applied=int(applied)),
    )
    patch(handlers.ServiceHandlers, "ingest_upload", "service.handlers.ingest_upload")
    patch(
        handlers.ServiceHandlers,
        "create_partition",
        "service.handlers.create_partition",
        on_result=_created_job,
    )
    patch(JobStore, "run", "service.jobs.run", on_result=_job_result)
