"""Bounded partition state for the streaming partitioners.

The in-memory :class:`~repro.core.state.StreamState` keeps the full
``(E x p)`` hyperedge-partition count matrix — exactly the structure an
out-of-core run cannot afford.  :class:`StreamingState` keeps the same
two ingredients of the value function in bounded form:

* ``loads`` — per-partition vertex-weight totals (``p`` floats, exact);
* a **per-hyperedge presence table**: per-partition pin counts for the
  hyperedges referenced so far, kept in least-recently-referenced (LRU)
  order.  Streaming partitioners reference a hyperedge whenever one of
  its pins arrives or is re-placed.

``StreamingState(...)`` builds one of two tables, chosen by the cap:

* ``max_tracked_edges=None`` — :class:`ExactStreamingState`, unbounded
  and exact: a sparse mirror of ``StreamState`` holding rows only for
  the nets seen (memory O(distinct edges seen)), under which
  :class:`~repro.streaming.restream.BufferedRestreamer` reproduces
  in-memory HyperPRAW bit for bit.  It is array-backed — a row table,
  an edge→row index and a per-row last-reference stamp that encodes the
  LRU order — so the kernel's fused Eq. 1 visit loop can gather and
  update it directly (it is an :class:`~repro.engine.states.
  ExactCountTable`).
* an integer cap — :class:`LRUStreamingState`, an ``OrderedDict`` over
  at most ``max_tracked_edges`` rows with LRU eviction.  Under the
  locality that makes streaming partitioning work at all
  (arXiv:2103.05394's limited-memory streamers make the same bet with
  their capped connectivity structures), the hot nets stay resident and
  the stale ones fall off.  Evicted counts are simply lost: a later
  ``remove`` for an evicted hyperedge is clamped at zero rather than
  recreating phantom negative counts, so the table always holds a
  *lower bound* on each tracked net's true per-partition pin counts.

Both tables iterate their rows in LRU order wherever the order reaches a
result: :meth:`StreamingState.pc_cost` sums per-net costs in that order,
so the two implementations agree to the last bit on an uncapped stream.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.architecture.cost import (
    is_uniform_cost,
    uniform_cost_matrix,
    validate_cost_matrix,
)
from repro.engine.states import ExactCountTable

__all__ = [
    "StreamingState",
    "ExactStreamingState",
    "LRUStreamingState",
    "resolve_cost_matrix",
]


def resolve_cost_matrix(
    cost_matrix: "np.ndarray | None", num_parts: int
) -> "tuple[np.ndarray, bool]":
    """Validate / default the cost matrix; returns ``(C, aware)``.

    Mirrors the labelling rule of :class:`~repro.core.hyperpraw.HyperPRAW`:
    ``aware`` is True only for a genuinely non-uniform matrix.
    """
    if cost_matrix is None:
        return uniform_cost_matrix(num_parts), False
    C = validate_cost_matrix(cost_matrix, num_units=num_parts)
    return C, not is_uniform_cost(C)


class StreamingState:
    """Mutable bounded state: partition loads + per-edge presence table.

    Calling ``StreamingState(...)`` returns an :class:`ExactStreamingState`
    when ``max_tracked_edges`` is ``None`` and an
    :class:`LRUStreamingState` otherwise; this base holds what the two
    share (loads, targets and the pass-level queries).

    Parameters
    ----------
    num_parts:
        partition count ``p``.
    expected_loads:
        target load per partition (``E(k)`` in Eq. 1).
    max_tracked_edges:
        cap on simultaneously tracked hyperedges; ``None`` tracks all
        referenced hyperedges (exact, memory O(distinct edges seen)).
    """

    def __new__(cls, *args, **kwargs):
        if cls is StreamingState:
            capped = kwargs.get("max_tracked_edges") is not None
            cls = LRUStreamingState if capped else ExactStreamingState
        return super().__new__(cls)

    def __init__(
        self,
        num_parts: int,
        *,
        expected_loads: np.ndarray,
        max_tracked_edges: "int | None" = None,
    ) -> None:
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if max_tracked_edges is not None and max_tracked_edges < 1:
            raise ValueError(
                f"max_tracked_edges must be >= 1 or None, got {max_tracked_edges}"
            )
        self.num_parts = int(num_parts)
        self.loads = np.zeros(num_parts, dtype=np.float64)
        self.expected_loads = np.asarray(expected_loads, dtype=np.float64)
        if self.expected_loads.shape != (num_parts,):
            raise ValueError(
                f"expected_loads must have shape ({num_parts},), "
                f"got {self.expected_loads.shape}"
            )
        if (self.expected_loads <= 0).any():
            raise ValueError("expected_loads must be strictly positive")
        self.max_tracked_edges = max_tracked_edges
        self.evictions = 0
        self.peak_tracked_edges = 0

    def _live(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(edge_ids, table_rows)`` of every tracked net, in LRU order."""
        raise NotImplementedError

    def _lookup(self, edges: np.ndarray, touch: bool = False) -> np.ndarray:
        """Table row of every edge (``-1`` when untracked); ``touch``
        marks the tracked ones referenced, in order."""
        raise NotImplementedError

    def gather_block(
        self, rows_all: np.ndarray, vertex_ptr: np.ndarray
    ) -> np.ndarray:
        """Stacked neighbour counts for a whole chunk (``m x p``).

        ``rows_all`` is the chunk's concatenated incident-edge array and
        ``vertex_ptr`` its local CSR offsets; row ``i`` of the result is
        :meth:`gather` of vertex ``i``'s edges, evaluated against the
        chunk-start table in one vectorised pass (the chunk's tracked
        nets are touched once each, in ascending edge order).
        """
        m = vertex_ptr.size - 1
        p = self.num_parts
        X = np.zeros((m, p), dtype=np.int64)
        if rows_all.size == 0:
            return X
        uniq, inverse = np.unique(rows_all, return_inverse=True)
        slot_arr = self._lookup(uniq, touch=True)
        counts_uniq = np.zeros((uniq.size, p), dtype=np.int64)
        tracked = slot_arr >= 0
        counts_uniq[tracked] = self._gathered_rows(slot_arr[tracked])
        seg = counts_uniq[inverse]
        degs = np.diff(vertex_ptr)
        nonzero = degs > 0
        if nonzero.any():
            X[nonzero] = np.add.reduceat(seg, vertex_ptr[:-1][nonzero], axis=0)
        return X

    def _gathered_rows(self, slots: np.ndarray) -> np.ndarray:
        """What a gather sums per tracked net: its count row."""
        return self._table[slots]

    def rows(self, edges: np.ndarray) -> np.ndarray:
        """Current count rows for ``edges`` (``len(edges) x p`` copy).

        Untracked edges yield zero rows.  A bookkeeping read — delta
        computation for the sharded boundary exchange — so it does *not*
        touch the LRU order.
        """
        slots = self._lookup(edges)
        out = np.zeros((edges.size, self.num_parts), dtype=np.int64)
        tracked = slots >= 0
        out[tracked] = self._table[slots[tracked]]
        return out

    # ------------------------------------------------------------------
    # engine protocol: block operations + shard reconciliation
    # ------------------------------------------------------------------
    #: the kernel must route every placement through :meth:`place` so the
    #: table sees references in arrival order (no batched inserts).
    place_deferred = False

    def lift_block(
        self, edges: np.ndarray, ptr: np.ndarray, old: np.ndarray, weights: np.ndarray
    ) -> None:
        """Remove a whole block (chunk-mode restreaming), vertex by vertex."""
        for i in range(old.size):
            self.remove(edges[ptr[i] : ptr[i + 1]], int(old[i]), weights[i])

    def export_table(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(edge_ids, counts)`` of every tracked net, sorted by edge id.

        The sorted order makes cross-process merges deterministic; the
        arrays are copies, safe to pickle across a worker pipe.
        """
        edges, rows = self._live()
        order = np.argsort(edges)
        return edges[order], self._table[rows[order]]

    # ------------------------------------------------------------------
    # pass-level queries
    # ------------------------------------------------------------------
    def imbalance(self) -> float:
        """max-load / mean-load over placed weight (1.0 when nothing placed)."""
        mean = self.loads.sum() / self.num_parts
        if mean == 0:
            return 1.0
        return float(self.loads.max() / mean)

    def pc_cost(
        self,
        cost_matrix: np.ndarray,
        *,
        edge_weights: "np.ndarray | None" = None,
        exclude_edges: "np.ndarray | None" = None,
    ) -> float:
        """Monitored partitioning communication cost over *tracked* nets.

        Eq. 5 rewritten per hyperedge: ``PC(P) = sum_e w_e c_e^T C c_e``
        with ``c_e`` the per-partition pin counts of ``e`` — so the table
        rows are all that is needed.  Exact when the table is unbounded;
        a lower-bound estimate once eviction has discarded nets.
        ``exclude_edges`` drops those nets from the sum — the sharded
        boundary exchange accounts boundary rows at the driver, so
        workers report only their *interior* contribution.  Per-net
        terms are summed in LRU order (float addition is not
        associative, so the order is part of the result).
        """
        edges, rows = self._live()
        if edges.size == 0:
            return 0.0
        if exclude_edges is not None and exclude_edges.size:
            keep = ~np.isin(edges, exclude_edges)
            edges, rows = edges[keep], rows[keep]
            if edges.size == 0:
                return 0.0
        counts = self._table[rows].astype(np.float64)
        per_edge = np.einsum("ep,pq,eq->e", counts, cost_matrix, counts)
        if edge_weights is not None:
            per_edge = per_edge * edge_weights[edges]
        return float(per_edge.sum())


class ExactStreamingState(StreamingState, ExactCountTable):
    """Uncapped presence table: exact counts for every net seen, in arrays.

    Storage is a ``(rows x p)`` count table grown by doubling, an
    edge→row index sized to the largest edge id seen (``-1`` marks an
    untracked net) and, per row, the clock value of its last reference.
    Rows exist only for nets referenced so far, so memory is O(distinct
    edges seen) in rows plus 8 bytes per edge id in the index.  Sorting
    rows by stamp yields the order an ``OrderedDict`` moved to its end on
    every reference would hold — the order :meth:`pc_cost` sums in.

    Per-vertex edge lists are taken to be duplicate-free (every reader
    and :class:`~repro.hypergraph.model.Hypergraph` deduplicates pins).
    """

    def __init__(
        self,
        num_parts: int,
        *,
        expected_loads: np.ndarray,
        max_tracked_edges: "int | None" = None,
    ) -> None:
        if max_tracked_edges is not None:
            raise ValueError(
                "ExactStreamingState is uncapped; use LRUStreamingState "
                "for a max_tracked_edges cap"
            )
        super().__init__(num_parts, expected_loads=expected_loads)
        self._row_of = np.full(1024, -1, dtype=np.int64)
        self._table = np.zeros((1024, self.num_parts), dtype=np.int64)
        self._edge_of = np.empty(1024, dtype=np.int64)
        self._stamp = np.empty(1024, dtype=np.int64)
        self._n = 0
        self._clock = 0

    # ------------------------------------------------------------------
    @property
    def num_tracked_edges(self) -> int:
        return self._n

    def _lookup(self, edges: np.ndarray, touch: bool = False) -> np.ndarray:
        try:
            rows = self._row_of[edges]
        except IndexError:  # an edge id past the index: grow it
            size = max(2 * self._row_of.size, int(edges.max()) + 1)
            grown = np.full(size, -1, dtype=np.int64)
            grown[: self._row_of.size] = self._row_of
            self._row_of = grown
            rows = self._row_of[edges]
        if touch:
            self._touch(rows[rows >= 0])
        return rows

    def _track(self, edges: np.ndarray) -> np.ndarray:
        """Row of every edge, creating zero rows for untracked ones."""
        rows = self._lookup(edges)
        new = rows < 0
        if not new.any():
            return rows
        # Distinct new edges without a sort: of repeated edges, the one
        # position whose scattered index survives is kept.  Which one is
        # immaterial — row ids never reach a result (see _live).
        candidates = edges[new]
        positions = np.arange(candidates.size)
        self._row_of[candidates] = positions
        fresh = candidates[self._row_of[candidates] == positions]
        n0, n1 = self._n, self._n + fresh.size
        if n1 > self._table.shape[0]:
            # Power-of-two doubling: a block adding many nets at once must
            # not leave the table up to 2x larger than the count needs.
            size = self._table.shape[0]
            while size < n1:
                size *= 2
            table = np.zeros((size, self.num_parts), dtype=np.int64)
            table[:n0] = self._table[:n0]
            self._table = table
            self._edge_of = np.resize(self._edge_of, size)
            self._stamp = np.resize(self._stamp, size)
        self._row_of[fresh] = np.arange(n0, n1)
        self._edge_of[n0:n1] = fresh
        self._stamp[n0:n1] = -1  # below every clock value: not yet touched
        self._n = n1
        self.peak_tracked_edges = n1
        return self._row_of[edges]

    def _touch(self, rows: np.ndarray) -> None:
        """Stamp distinct ``rows`` as referenced, in order."""
        k = rows.size
        self._stamp[rows] = np.arange(self._clock, self._clock + k)
        self._clock += k

    def touch_rows(self, rows: np.ndarray) -> None:
        """Stamp ``rows`` as referenced in order; a repeated row keeps
        its last position (every new stamp beats every older one)."""
        k = rows.size
        if k:
            np.maximum.at(
                self._stamp, rows, np.arange(self._clock, self._clock + k)
            )
            self._clock += k

    def block_rows(self, edges: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Count table and rows of ``edges``, tracking the unseen ones.

        New rows start at zero, which is what an untracked net
        contributes to a gather; they are stamped when the caller
        touches them.
        """
        rows = self._track(edges)
        return self._table, rows

    def _live(self) -> "tuple[np.ndarray, np.ndarray]":
        rows = np.argsort(self._stamp[: self._n], kind="stable")
        return self._edge_of[rows], rows

    # ------------------------------------------------------------------
    # hot-path operations
    # ------------------------------------------------------------------
    def gather(self, edges: np.ndarray) -> np.ndarray:
        """``X_j(v)``: summed per-partition counts over ``edges`` (int64).

        Untracked hyperedges contribute zero; tracked ones are touched.
        """
        rows = self._lookup(edges, touch=True)
        return self._table.take(rows[rows >= 0], axis=0).sum(axis=0)

    def place(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Record a (new or re-placed) pin of every ``edges`` on ``part``."""
        rows = self._track(edges)
        self._table[:, part][rows] += 1
        self._touch(rows)
        self.loads[part] += weight

    def remove(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Lift a vertex off ``part``; untracked or zero counts are a
        clamped no-op (and leave the net untouched)."""
        rows = self._lookup(edges)
        column = self._table[:, part]
        rows = rows[rows >= 0]
        rows = rows[column[rows] > 0]
        column[rows] -= 1
        self._touch(rows)
        self.loads[part] -= weight

    def seed_table(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-add per-edge counts (the sharded merge step), in order."""
        rows = self._track(edges)
        np.add.at(self._table, rows, counts)
        self.touch_rows(rows)

    def set_rows(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Overwrite the rows for (distinct) ``edges`` with ``counts``.

        The sharded boundary restream overlays the driver's merged
        global counts onto each worker's local table at the start of
        every round; rows are created if needed and touched in order.
        """
        rows = self._track(edges)
        self._table[rows] = counts
        self._touch(rows)


class LRUStreamingState(StreamingState):
    """Capped presence table: at most ``max_tracked_edges`` rows, LRU
    eviction, kept as an ``OrderedDict`` from edge id to table slot.

    Constructed without a cap (as the base of
    :class:`~repro.partitioning.families.MinMaxState` may be) it tracks
    every referenced net and never evicts.
    """

    def __init__(
        self,
        num_parts: int,
        *,
        expected_loads: np.ndarray,
        max_tracked_edges: "int | None" = None,
    ) -> None:
        super().__init__(
            num_parts,
            expected_loads=expected_loads,
            max_tracked_edges=max_tracked_edges,
        )
        initial = max_tracked_edges if max_tracked_edges is not None else 1024
        self._table = np.zeros((max(1, initial), num_parts), dtype=np.int64)
        self._slots: "OrderedDict[int, int]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def num_tracked_edges(self) -> int:
        return len(self._slots)

    def _acquire(self, edge: int) -> int:
        """Slot of ``edge``, creating (and evicting LRU) as needed."""
        slots = self._slots
        slot = slots.get(edge)
        if slot is not None:
            slots.move_to_end(edge)
            return slot
        if (
            self.max_tracked_edges is not None
            and len(slots) >= self.max_tracked_edges
        ):
            _, slot = slots.popitem(last=False)
            self._table[slot] = 0
            self.evictions += 1
        else:
            slot = len(slots)
            if slot >= self._table.shape[0]:
                grown = np.zeros(
                    (self._table.shape[0] * 2, self.num_parts), dtype=np.int64
                )
                grown[: self._table.shape[0]] = self._table
                self._table = grown
        slots[edge] = slot
        self.peak_tracked_edges = max(self.peak_tracked_edges, len(slots))
        return slot

    # ------------------------------------------------------------------
    # hot-path operations
    # ------------------------------------------------------------------
    def gather(self, edges: np.ndarray) -> np.ndarray:
        """``X_j(v)``: summed per-partition counts over ``edges`` (int64).

        Untracked (never seen or evicted) hyperedges contribute zero.
        Referencing counts as a read *touches* the nets for LRU purposes —
        a net that keeps scoring placements is a net worth keeping.
        """
        X = np.zeros(self.num_parts, dtype=np.int64)
        slots = self._slots
        table = self._table
        for e in edges.tolist():
            slot = slots.get(e)
            if slot is not None:
                slots.move_to_end(e)
                X += table[slot]
        return X

    def place(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Record a (new or re-placed) pin of every ``edges`` on ``part``."""
        for e in edges.tolist():
            slot = self._acquire(e)
            # no caching of _table across iterations: _acquire may grow it
            self._table[slot, part] += 1
        self.loads[part] += weight

    def remove(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Lift a vertex off ``part``; untracked edges are a clamped no-op."""
        slots = self._slots
        table = self._table
        for e in edges.tolist():
            slot = slots.get(e)
            if slot is not None and table[slot, part] > 0:
                slots.move_to_end(e)
                table[slot, part] -= 1
        self.loads[part] -= weight

    def seed_table(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-insert per-edge counts (the sharded merge step).

        Rows are inserted in the given order through the normal slot
        machinery, so a capped table evicts deterministically when the
        merged net set exceeds ``max_tracked_edges``.
        """
        for k in range(edges.size):
            slot = self._acquire(int(edges[k]))
            self._table[slot] += counts[k]

    def set_rows(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Overwrite the rows for ``edges`` with ``counts``.

        The sharded boundary restream overlays the driver's merged
        global counts onto each worker's local table at the start of
        every round; rows are (re)acquired through the normal slot
        machinery, creating them if needed.
        """
        for k in range(edges.size):
            slot = self._acquire(int(edges[k]))
            self._table[slot] = counts[k]

    def _lookup(self, edges: np.ndarray, touch: bool = False) -> np.ndarray:
        slots = self._slots
        out = np.empty(edges.size, dtype=np.int64)
        for k, e in enumerate(edges.tolist()):
            slot = slots.get(e)
            if slot is None:
                out[k] = -1
            else:
                if touch:
                    slots.move_to_end(e)
                out[k] = slot
        return out

    def _live(self) -> "tuple[np.ndarray, np.ndarray]":
        n = len(self._slots)
        edges = np.fromiter(self._slots.keys(), dtype=np.int64, count=n)
        slots = np.fromiter(self._slots.values(), dtype=np.int64, count=n)
        return edges, slots
