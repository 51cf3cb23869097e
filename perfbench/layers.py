"""Per-layer metrics derived from the traced run's spans.

Each metric is named after the module whose public functions were
timed; README.md lists which end-to-end metric and workload each one
should move.  A layer a workload never enters reports 0.

Sharding, cluster and polish figures are read from the spans under each
timed unit's ``product`` step (the baseline's calls are excluded), then
the median over units is taken.  Spans recorded on other threads (the
coordinator's sender threads) are attributed to a product step by time.
"""

from __future__ import annotations

from collections import defaultdict

from benchstats import median, sum_of_group_medians
from tracing import self_time, union_length

__all__ = ["layer_metrics"]


class _Index:
    def __init__(self, spans) -> None:
        self.spans = spans
        self.kids = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.kids[span.parent].append(span)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def below(self, span) -> list:
        out, stack = [], [span]
        while stack:
            for child in self.kids[stack.pop().id]:
                out.append(child)
                stack.append(child)
        return out


def _med(values, scale: float = 1.0) -> float:
    values = [v for v in values if v is not None]
    return scale * median(values) if values else 0.0


def layer_metrics(spans, samples, info: dict, overhead_samples, overhead_key: str) -> dict:
    """Every per-layer metric, from spans plus the workload's counters.

    ``overhead_samples``/``overhead_key`` name the timed figure whose
    traced and untraced medians give ``trace.overhead_ratio``.
    """
    ix = _Index(spans)
    products = ix.named("product")
    below = {p.id: ix.below(p) for p in products}

    def per_product(fn) -> float:
        return _med(fn(p, below[p.id]) for p in products)

    def total(spans_, *names) -> float:
        return sum(s.duration for s in spans_ if s.name in names)

    def count(spans_, name) -> int:
        return sum(1 for s in spans_ if s.name == name)

    def attr(spans_, name, key):
        for s in spans_:
            if s.name == name and key in s.attrs:
                return s.attrs[key]
        return None

    def in_window(p, name) -> float:
        return sum(
            s.duration
            for s in ix.spans
            if s.name == name and p.start <= s.start and s.end <= p.end
        )

    out: dict = {}

    # -- core.hyperpraw / engine.kernel ------------------------------------
    hp = ix.named("core.hyperpraw.partition")
    out["core.hyperpraw.passes"] = _med(s.attrs.get("iterations_run") for s in hp)
    out["core.hyperpraw.self_s"] = _med(
        s.duration - total(ix.below(s), "engine.kernel.pass_kernel") for s in hp
    )
    kernel = ix.named("engine.kernel.pass_kernel")
    out["engine.kernel.pass_ms"] = _med((s.duration for s in kernel), 1000.0)
    kernel_s = sum(s.duration for s in kernel)
    out["engine.kernel.vertices_per_s"] = (
        sum(s.attrs.get("vertices", 0) for s in kernel) / kernel_s if kernel_s else 0.0
    )

    # -- partitioning.multilevel (the paper-inmem baseline) -----------------
    ml = [ix.below(b) for b in ix.named("baseline")]
    ml = [d for d in ml if count(d, "partitioning.multilevel.fm_refine")]
    out["partitioning.multilevel.fm_s"] = _med(
        total(d, "partitioning.multilevel.fm_refine") for d in ml
    )
    out["partitioning.multilevel.fm_calls"] = _med(
        count(d, "partitioning.multilevel.fm_refine") for d in ml
    )
    out["partitioning.multilevel.coarsen_s"] = _med(
        total(d, "partitioning.multilevel.coarsen") for d in ml
    )

    # -- set-up layers --------------------------------------------------------
    out["architecture.profiling.profile_s"] = _med(
        s.duration for s in ix.named("architecture.profiling.profile")
    )
    parses = ix.named("streaming.reader.parse")
    out["streaming.reader.parse_s"] = _med(s.duration for s in parses)
    parse_s = sum(s.duration for s in parses)
    out["streaming.reader.mb_per_s"] = (
        sum(s.attrs.get("bytes", 0) for s in parses) / 1e6 / parse_s if parse_s else 0.0
    )
    writes = ix.named("streaming.chunkstore.write_store")
    out["streaming.chunkstore.write_s"] = _med(s.duration for s in writes)
    out["streaming.chunkstore.bytes"] = _med(s.attrs.get("bytes") for s in writes)

    # -- engine.parallel / streaming.sharded (product step only) -----------
    sharded = "streaming.sharded.partition_stream"
    out["engine.parallel.phase1_wait_s"] = per_product(
        lambda p, d: total(d, "engine.parallel.start")
    )
    out["engine.parallel.boundary_wait_s"] = per_product(
        lambda p, d: total(d, "engine.parallel.exchange", "engine.parallel.stop")
    )
    out["engine.parallel.rounds"] = per_product(
        lambda p, d: count(d, "engine.parallel.exchange")
    )
    out["engine.parallel.merge_s"] = per_product(
        lambda p, d: total(d, "engine.parallel.merge")
    )
    out["streaming.sharded.self_s"] = per_product(
        lambda p, d: sum(self_time(s, ix.kids[s.id]) for s in d if s.name == sharded)
    )

    def shard_attr(key):
        return per_product(lambda p, d: attr(d, sharded, key))

    out["streaming.sharded.payload_bytes"] = shard_attr("merge_payload_bytes") + shard_attr(
        "boundary_payload_bytes"
    )
    out["streaming.sharded.boundary_fraction"] = per_product(
        lambda p, d: (
            attr(d, sharded, "boundary_vertices") / attr(d, sharded, "num_vertices")
            if attr(d, sharded, "num_vertices")
            else None
        )
    )
    out["streaming.sharded.boundary_edges"] = shard_attr("boundary_edges")
    out["streaming.sharded.boundary_iterations"] = shard_attr("boundary_iterations")
    out["streaming.state.peak_tracked_edges"] = shard_attr("peak_tracked_edges")
    out["streaming.state.evictions"] = shard_attr("evictions")

    # -- cluster ------------------------------------------------------------
    out["cluster.launch_s"] = _med(s.duration for s in ix.named("cluster.launch"))
    out["cluster.start_wait_s"] = per_product(lambda p, d: total(d, "cluster.start"))
    out["cluster.exchange_wait_s"] = per_product(
        lambda p, d: total(d, "cluster.exchange", "cluster.stop")
    )
    out["cluster.rounds"] = per_product(lambda p, d: count(d, "cluster.exchange"))
    out["cluster.encode_s"] = per_product(
        lambda p, d: in_window(p, "cluster.encode_payload")
    )
    out["cluster.frame_s"] = per_product(lambda p, d: in_window(p, "cluster.frame"))
    out["cluster.wire_bytes"] = shard_attr("cluster_wire_bytes")
    out["cluster.bytes_saved"] = per_product(
        lambda p, d: sum(attr(d, sharded, "broadcast_bytes_saved") or [])
        if attr(d, sharded, "cluster_wire_bytes") is not None
        else None
    )

    # -- partitioning.families (FM polish) ----------------------------------
    refine = ix.named("partitioning.families.refine_blocks")
    out["partitioning.families.refine_s"] = _med(s.duration for s in refine)
    out["partitioning.families.refine_moves"] = _med(s.attrs.get("refine_moves") for s in refine)
    # useful-to-attempted: moves applied over moves proposed, per polish
    applies = [
        [c for c in ix.below(s) if c.name == "partitioning.families.apply_moves"]
        for s in refine
    ]
    out["partitioning.families.refine_gain_per_move"] = _med(
        sum(c.attrs["applied"] for c in cs) / sum(c.attrs["attempted"] for c in cs)
        for cs in applies
        if sum(c.attrs.get("attempted", 0) for c in cs)
    )

    # -- service --------------------------------------------------------------
    out["service.handlers.ingest_s"] = _med(
        s.duration for s in ix.named("service.handlers.ingest_upload")
    )
    counters = info.get("counters", {})
    out["service.storecache.evictions"] = float(counters.get("evictions", 0))
    out["service.text_ingests"] = float(counters.get("text_ingests", 0))
    out["service.store_replays"] = float(counters.get("store_replays", 0))
    runs = ix.named("service.jobs.run")
    out["service.jobs.run_ms"] = _med((s.duration for s in runs), 1000.0)
    out["service.jobs.fork_overhead_ms"] = _med(
        (
            s.duration - s.attrs["wall_time_s"]
            for s in runs
            if s.attrs.get("wall_time_s") is not None
        ),
        1000.0,
    )
    created = {
        s.attrs.get("job_id"): s for s in ix.named("service.handlers.create_partition")
    }
    http = [
        s["latency_s"] - created[s["job_id"]].duration
        for s in samples
        if s.get("traced") and s.get("job_id") in created
    ]
    out["service.http_overhead_ms"] = _med(http, 1000.0)

    # -- the trace itself -----------------------------------------------------
    units = ix.named("unit")
    if created:
        uncovered = http
    else:
        uncovered = [
            u.duration - union_length((c.start, c.end) for c in ix.kids[u.id])
            for u in units
        ]
    out["trace.uncovered_ms"] = _med(uncovered, 1000.0)
    out["trace.overhead_ratio"] = _overhead(overhead_samples, overhead_key)
    out["trace.spans"] = float(len(ix.spans))
    return {k: float(v) for k, v in out.items()}


def _overhead(samples, key: str) -> float:
    """Traced against untraced median of the workload's solve figure.

    Rotating draws are compared draw by draw: the median over draws
    timed both ways of the traced to untraced ratio.
    """
    if samples and "draw" in samples[0]:
        both: "dict[int, dict[bool, float]]" = {}
        for s in samples:
            both.setdefault(s["draw"], {}).setdefault(bool(s.get("traced")), s[key])
        ratios = [t[True] / t[False] for t in both.values() if len(t) == 2]
        return median(ratios) if ratios else 0.0

    def figure(group):
        if "shape" in group[0]:
            return sum_of_group_medians((s["shape"], s[key]) for s in group)
        return median(s[key] for s in group)

    traced = [s for s in samples if s.get("traced") and s.get(key) is not None]
    plain = [s for s in samples if not s.get("traced") and s.get(key) is not None]
    if not traced or not plain:
        return 0.0
    return figure(traced) / figure(plain)
