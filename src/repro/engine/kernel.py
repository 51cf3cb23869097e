"""The one stream-pass loop (visit -> score -> place) everything shares.

Algorithm 1's body — visit each vertex, score every partition, (re)place
the vertex at the argmax — used to be implemented four separate times
(``HyperPRAW._stream_pass``/``_stream_pass_chunked``,
``BufferedRestreamer._window_pass``, ``OnePassStreamer._place_*`` and
``FennelStreaming``'s inline loop).  :func:`pass_kernel` is the single
remaining implementation; the variation lives in its inputs:

* **blocks** — any iterable of :class:`~repro.engine.blocks.VertexBlock`
  (in-memory order, out-of-core chunks, a restream window, a shard);
* **state** — dense exact counts, the uncapped array-backed streaming
  table or the bounded capped LRU presence table (see
  :mod:`repro.engine.states`);
* **scorer** — Eq. 1 or FENNEL (see :mod:`repro.engine.scorers`);
* **restream** — lift each vertex out before scoring (restreaming) or
  score it as a first-time arrival (one-pass placement);
* **score_mode** — ``"vertex"`` scores each vertex against the live
  state (exact, block-size invariant); ``"chunk"`` scores a whole block
  against the block-start state with one matmul (the ~2.4x vectorised
  hot path, at the price of intra-block staleness in the neighbour
  term — the load penalty always tracks live loads).  Both modes
  support both ``restream`` settings: chunk-mode restreaming lifts the
  whole block out in one batch (``lift_block``) before the matmul;
* **cap** — optional FENNEL-style hard balance cap;
* **kernel** — ``"python"`` (the reference loop below), ``"njit"`` (the
  optional compiled twin for dense-state vertex scoring — see
  :mod:`~repro.engine.njit_kernel`) or ``"auto"``; the resolved mode is
  returned so drivers can record it as ``kernel_mode`` metadata.

``score_mode="vertex"`` runs one of three loops, chosen from the state
and scorer types alone:

* the **fused exact-table loop** — an
  :class:`~repro.engine.states.ExactCountTable` state (the dense counts
  or the uncapped streaming table) scored by exactly
  :class:`~repro.engine.scorers.HyperPRAWScorer`.  Each visit gathers
  the vertex's rows once, takes its own pins off ``X[old]``
  arithmetically instead of a ``remove`` followed by a ``gather``,
  writes counts only when the vertex moves, and refreshes the Eq. 1
  load penalty only for the two parts whose loads changed (same
  per-element float ops as :meth:`HyperPRAWScorer.vertex_values`).
  The reference-order bookkeeping of a streaming table is written once
  per block.  Results are bit-identical to the general loop;
* the **general loop** below — every other state/scorer pair (the
  capped LRU table, min-max, HYPE, FENNEL), and the tests' reference
  for the fused loop;
* the **compiled loop** when ``kernel`` resolves to ``"njit"``.

The per-vertex floating-point operation order is preserved from the
historical loops, so refactored partitioners reproduce their previous
assignments bit for bit (pinned by golden-hash tests), and the compiled
kernel reproduces the python path op for op.  Per-pass scratch arrays
(``values``, the chunk placement buffer, the balance-cap mask and the
gather buffer) are allocated once per call and reused across every
vertex and block.
"""

from __future__ import annotations

import numpy as np

from repro.engine.njit_kernel import resolve_kernel, run_njit_block
from repro.engine.scorers import HyperPRAWScorer
from repro.engine.states import ExactCountTable

__all__ = ["pass_kernel", "apply_balance_cap"]


def apply_balance_cap(
    values: np.ndarray,
    loads: np.ndarray,
    weight: float,
    cap: float,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
) -> None:
    """Mask partitions the hard balance cap forbids (in place).

    Sets ``values[j] = -inf`` wherever placing a vertex of ``weight``
    would push ``loads[j]`` over ``cap``; when *every* partition is over
    cap, only the emptiest survives (a stream must always be able to
    place).

    ``out`` (length-``p`` bool) and ``scratch`` (length-``p`` float64)
    are optional preallocated work arrays; passing both makes the call
    allocation-free on the hot path.  The masked result is identical
    either way — the buffers change where the intermediates live, not
    the float comparisons (``loads + weight > cap``, never the
    rearranged ``loads > cap - weight``).
    """
    if out is None:
        full = loads + weight > cap
    else:
        summed = loads + weight if scratch is None else np.add(
            loads, weight, out=scratch
        )
        full = np.greater(summed, cap, out=out)
    if full.all():
        # Everything is over cap (tiny p or huge vertex): fall back to
        # the emptiest partition rather than dead-ending.
        if out is None:
            full = loads != loads.min()
        else:
            full = np.not_equal(loads, loads.min(), out=out)
    values[full] = -np.inf


def pass_kernel(
    blocks,
    state,
    scorer,
    assignment: np.ndarray,
    *,
    restream: bool = False,
    score_mode: str = "vertex",
    cap: "float | None" = None,
    kernel: str = "python",
) -> str:
    """Run one pass of visit -> score -> place over ``blocks``.

    Parameters
    ----------
    blocks:
        iterable of :class:`~repro.engine.blocks.VertexBlock` in stream
        order (a :class:`~repro.engine.blocks.VertexSource`'s
        ``blocks()``, ``blocks_of(chunk_stream)``, a single restream
        window, ...).
    state:
        kernel state (see :mod:`repro.engine.states` for the protocol);
        its ``loads`` and counts are mutated in place.
    scorer:
        value function (see :mod:`repro.engine.scorers`).
    assignment:
        length-``|V|`` partition vector indexed by *global* vertex id,
        updated in place; when ``restream`` is set it must hold each
        visited vertex's current partition on entry (the vertex is
        lifted out before scoring).
    restream:
        ``True`` re-places already-assigned vertices (HyperPRAW
        restreaming); ``False`` scores first-time arrivals.
    score_mode:
        ``"vertex"`` (exact, live state) or ``"chunk"`` (one matmul per
        block against the block-start state — the vectorised hot path).
    cap:
        optional hard balance cap passed to :func:`apply_balance_cap`.
    kernel:
        ``"python"`` (default — the reference loop, bit-for-bit stable),
        ``"njit"`` (the optional compiled fast path; falls back to
        python with a :class:`RuntimeWarning` when numba is missing or
        the combination is unsupported) or ``"auto"`` (compiled when
        available, silently python otherwise).

    Returns
    -------
    str
        the kernel mode the pass actually ran (``"python"`` or
        ``"njit"``) — drivers surface it as ``kernel_mode`` run
        metadata; the pass's effects are the in-place updates to
        ``state`` and ``assignment``.
    """
    if score_mode not in ("vertex", "chunk"):
        raise ValueError(
            f"score_mode must be 'vertex' or 'chunk', got {score_mode!r}"
        )
    mode = resolve_kernel(kernel, state, scorer, score_mode)
    loads = state.loads
    p = state.num_parts
    values = np.empty(p, dtype=np.float64)
    cap_mask = np.empty(p, dtype=bool) if cap is not None else None
    cap_scratch = np.empty(p, dtype=np.float64) if cap is not None else None

    if mode == "njit":
        for block in blocks:
            run_njit_block(block, state, scorer, assignment, restream, cap)
        return mode

    if (
        score_mode == "vertex"
        and isinstance(state, ExactCountTable)
        and type(scorer) is HyperPRAWScorer
    ):
        _exact_eq1_pass(
            blocks, state, scorer, assignment, restream, cap,
            values, cap_mask, cap_scratch,
        )
        return mode

    if score_mode == "vertex":
        # States advertising gather(out=) get a reused length-p buffer;
        # the streaming tables build their rows themselves.
        gather_out = (
            np.empty(p, dtype=np.float64)
            if getattr(state, "gather_accepts_out", False)
            else None
        )
        for block in blocks:
            ids = block.ids
            ptr = block.vertex_ptr
            edges_all = block.vertex_edges
            weights = block.vertex_weights
            for i in range(ids.size):
                v = ids[i]
                edges = edges_all[ptr[i] : ptr[i + 1]]
                w_v = weights[i]
                if restream:
                    state.remove(edges, assignment[v], w_v)
                if edges.size:
                    X = (
                        state.gather(edges)
                        if gather_out is None
                        else state.gather(edges, out=gather_out)
                    )
                else:
                    X = None
                scorer.vertex_values(X, loads, values)
                if cap is not None:
                    apply_balance_cap(
                        values, loads, w_v, cap, out=cap_mask, scratch=cap_scratch
                    )
                j = int(np.argmax(values))
                state.place(edges, j, w_v)
                assignment[v] = j
        return mode

    # ------------------------------------------------------------------
    # chunk mode: neighbour terms frozen at block start, one matmul per
    # block; loads (and, for non-deferred states, the presence table)
    # update live per placement.
    # ------------------------------------------------------------------
    deferred = getattr(state, "place_deferred", False)
    new_buf = np.empty(0, dtype=np.int64)
    for block in blocks:
        ids = block.ids
        ptr = block.vertex_ptr
        edges_all = block.vertex_edges
        weights = block.vertex_weights
        m = ids.size
        if m == 0:
            continue
        if restream:
            old = assignment[ids]
            state.lift_block(edges_all, ptr, old, weights)
        X = state.gather_block(edges_all, ptr)
        terms = scorer.block_terms(X)
        if new_buf.size < m:
            new_buf = np.empty(m, dtype=np.int64)
        new = new_buf[:m]
        for i in range(m):
            scorer.chunk_values(terms[i], loads, values)
            if cap is not None:
                apply_balance_cap(
                    values, loads, weights[i], cap, out=cap_mask, scratch=cap_scratch
                )
            j = int(np.argmax(values))
            new[i] = j
            if deferred:
                loads[j] += weights[i]
            else:
                state.place(edges_all[ptr[i] : ptr[i + 1]], j, weights[i])
        if deferred:
            state.insert_block(edges_all, ptr, new)
        assignment[ids] = new
    return mode


def _exact_eq1_pass(
    blocks, state, scorer, assignment, restream, cap, values, cap_mask, cap_scratch
) -> None:
    """The fused vertex loop for an exact count table under Eq. 1.

    Bit-identical to the general loop on the same inputs: the counts
    are integers, so ``X[old] -= degree`` equals gathering after a
    ``remove``; the value vector is built by the same numpy calls in
    the same order; and ``pen`` holds ``loads * (1 / E) * alpha`` per
    element, recomputed for a part with the same scalar operations
    whenever its load changes.
    """
    loads = state.loads
    p = scorer.num_parts
    C = scorer.cost_matrix
    alpha = scorer.alpha
    inv = scorer._inv_expected
    threshold = scorer.presence_threshold
    pen = np.multiply(loads, inv)
    pen *= alpha
    X_int = np.empty(p, dtype=np.int64)
    X = np.empty(p, dtype=np.float64)
    for block in blocks:
        table, rows_all = state.block_rows(block.vertex_edges)
        ptr = block.vertex_ptr.tolist()
        weights = block.vertex_weights.tolist()
        for i, v in enumerate(block.ids.tolist()):
            lo = ptr[i]
            hi = ptr[i + 1]
            w_v = weights[i]
            if restream:
                old = int(assignment[v])
                loads[old] -= w_v
                pen[old] = loads[old] * inv[old] * alpha
            if hi > lo:
                rows = rows_all[lo:hi]
                table.take(rows, axis=0).sum(axis=0, out=X_int)
                X[:] = X_int
                if restream:
                    X[old] -= hi - lo
                # Counts are non-negative integers, so X >= 1 is X != 0.
                n_neigh = np.count_nonzero(
                    X if threshold == 1 else X >= threshold
                )
                np.matmul(C, X, out=values)
                values *= -(n_neigh / p)
            else:
                values.fill(0.0)
            values -= pen
            if cap is not None:
                apply_balance_cap(
                    values, loads, w_v, cap, out=cap_mask, scratch=cap_scratch
                )
            j = int(values.argmax())
            if hi > lo and not (restream and j == old):
                # Column views: 1-D fancy updates beat 2-D (rows, part) ones.
                if restream:
                    table[:, old][rows] -= 1
                table[:, j][rows] += 1
            loads[j] += w_v
            pen[j] = loads[j] * inv[j] * alpha
            assignment[v] = j
        state.touch_rows(rows_all)
