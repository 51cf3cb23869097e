"""Optional compiled (numba ``@njit``) fast path for the vertex-exact loop.

The pure-python vertex loop in :func:`repro.engine.kernel.pass_kernel` is
the tested, bit-identical reference; this module holds the *optional*
compiled twin of its inner body for the combination that dominates
restreaming wall time: :class:`~repro.engine.states.DenseKernelState`
(exact ``E x p`` counts) scored by
:class:`~repro.engine.scorers.HyperPRAWScorer` (Eq. 1) or
:class:`~repro.engine.scorers.FennelScorer`, in ``score_mode="vertex"``.

Everything else stays on the python path by design, not by omission:

* the streaming tables (:mod:`repro.streaming.state`) keep a
  least-recently-referenced order that is part of the contract: the
  capped :class:`~repro.streaming.state.LRUStreamingState` evicts by it
  around an ``OrderedDict``, and the uncapped, array-backed
  :class:`~repro.streaming.state.ExactStreamingState` sums its
  monitored cost in it.  The uncapped table under Eq. 1 runs the
  kernel's fused python loop instead (see
  :func:`repro.engine.kernel.pass_kernel`);
* ``score_mode="chunk"`` is already one numpy matmul per block.

Selection is centralised in :func:`resolve_kernel`: ``"auto"`` silently
prefers the compiled kernel when numba is importable *and* the
state/scorer/mode combination is supported; an explicit ``"njit"``
request that cannot be honoured falls back to python with a single
structured :class:`RuntimeWarning` (mirroring
``engine.parallel._resolve_mode``), so runs degrade visibly — the
resolved mode travels in run metadata as ``kernel_mode``, next to
``parallel_mode``.

The compiled loops reproduce the python path's floating-point operation
order op for op (gather-sum, presence count, cost mat-vec, scale, load
penalty, cap mask with the emptiest-survives fallback, first-max argmax),
so assignments are bit-identical — the equivalence suite in
``tests/test_engine.py`` runs both kernels in-session and compares
digests whenever numba is installed (the CI ``njit-kernel`` leg).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.engine.scorers import FennelScorer, HyperPRAWScorer
from repro.engine.states import DenseKernelState

__all__ = [
    "NUMBA_AVAILABLE",
    "KERNEL_CHOICES",
    "njit_supported",
    "resolve_kernel",
    "run_njit_block",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the baked-in CI image has no numba
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):
        # Inert decorator so the module imports (and its pure-python
        # bodies stay testable) without numba; resolve_kernel() never
        # selects "njit" on this branch.
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


KERNEL_CHOICES = ("auto", "python", "njit")


@_njit(cache=True)
def _vertex_pass_eq1(  # pragma: no cover - compiled; run on the CI numba leg
    ids,
    ptr,
    edges_all,
    weights,
    assignment,
    counts,
    loads,
    cost,
    alpha,
    inv_expected,
    presence_threshold,
    restream,
    cap,
    use_cap,
):
    p = loads.shape[0]
    values = np.empty(p, dtype=np.float64)
    X = np.empty(p, dtype=np.float64)
    for i in range(ids.shape[0]):
        v = ids[i]
        lo = ptr[i]
        hi = ptr[i + 1]
        w_v = weights[i]
        if restream:
            old = assignment[v]
            for e_i in range(lo, hi):
                counts[edges_all[e_i], old] -= 1
            loads[old] -= w_v
        if hi == lo:
            for j in range(p):
                values[j] = 0.0
        else:
            for j in range(p):
                X[j] = 0.0
            for e_i in range(lo, hi):
                e = edges_all[e_i]
                for j in range(p):
                    X[j] += counts[e, j]
            n_neigh = 0
            for j in range(p):
                if X[j] >= presence_threshold:
                    n_neigh += 1
            scale = -(n_neigh / p)
            for j in range(p):
                acc = 0.0
                for k in range(p):
                    acc += cost[j, k] * X[k]
                values[j] = acc * scale
        for j in range(p):
            values[j] -= (loads[j] * inv_expected[j]) * alpha
        if use_cap:
            nfull = 0
            for j in range(p):
                if loads[j] + w_v > cap:
                    nfull += 1
            if nfull == p:
                lmin = loads[0]
                for j in range(1, p):
                    if loads[j] < lmin:
                        lmin = loads[j]
                for j in range(p):
                    if loads[j] != lmin:
                        values[j] = -np.inf
            else:
                for j in range(p):
                    if loads[j] + w_v > cap:
                        values[j] = -np.inf
        best = 0
        bv = values[0]
        for j in range(1, p):
            if values[j] > bv:
                bv = values[j]
                best = j
        for e_i in range(lo, hi):
            counts[edges_all[e_i], best] += 1
        loads[best] += w_v
        assignment[v] = best


@_njit(cache=True)
def _vertex_pass_fennel(  # pragma: no cover - compiled; run on the CI numba leg
    ids,
    ptr,
    edges_all,
    weights,
    assignment,
    counts,
    loads,
    alpha_gamma,
    gamma_minus_one,
    restream,
    cap,
    use_cap,
):
    p = loads.shape[0]
    values = np.empty(p, dtype=np.float64)
    for i in range(ids.shape[0]):
        v = ids[i]
        lo = ptr[i]
        hi = ptr[i + 1]
        w_v = weights[i]
        if restream:
            old = assignment[v]
            for e_i in range(lo, hi):
                counts[edges_all[e_i], old] -= 1
            loads[old] -= w_v
        for j in range(p):
            values[j] = 0.0
        for e_i in range(lo, hi):
            e = edges_all[e_i]
            for j in range(p):
                values[j] += counts[e, j]
        for j in range(p):
            values[j] -= alpha_gamma * loads[j] ** gamma_minus_one
        if use_cap:
            nfull = 0
            for j in range(p):
                if loads[j] + w_v > cap:
                    nfull += 1
            if nfull == p:
                lmin = loads[0]
                for j in range(1, p):
                    if loads[j] < lmin:
                        lmin = loads[j]
                for j in range(p):
                    if loads[j] != lmin:
                        values[j] = -np.inf
            else:
                for j in range(p):
                    if loads[j] + w_v > cap:
                        values[j] = -np.inf
        best = 0
        bv = values[0]
        for j in range(1, p):
            if values[j] > bv:
                bv = values[j]
                best = j
        for e_i in range(lo, hi):
            counts[edges_all[e_i], best] += 1
        loads[best] += w_v
        assignment[v] = best


def njit_supported(state, scorer, score_mode: str) -> bool:
    """Whether the compiled fast path covers this state/scorer/mode combo."""
    return (
        score_mode == "vertex"
        and isinstance(state, DenseKernelState)
        and isinstance(scorer, (HyperPRAWScorer, FennelScorer))
    )


def resolve_kernel(kernel: str, state, scorer, score_mode: str) -> str:
    """Resolve a ``kernel`` request to the mode a pass will actually run.

    ``"python"`` always resolves to itself; ``"auto"`` silently prefers
    ``"njit"`` when numba is importable and :func:`njit_supported` holds;
    an explicit ``"njit"`` that cannot be honoured emits one structured
    :class:`RuntimeWarning` and falls back to ``"python"`` (identical
    results, interpreter speed).  Drivers resolve once up front, record
    the result as ``kernel_mode`` run metadata, and hand the *resolved*
    mode back down — resolved modes re-resolve to themselves silently.
    """
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}"
        )
    if kernel == "python":
        return "python"
    supported = njit_supported(state, scorer, score_mode)
    if NUMBA_AVAILABLE and supported:
        return "njit"
    if kernel == "njit":
        if not NUMBA_AVAILABLE:
            reason = "numba is not installed (pip install hyperpraw-repro[fast])"
        else:
            reason = (
                f"the {type(state).__name__}/{type(scorer).__name__}/"
                f"score_mode={score_mode!r} combination has no compiled path"
            )
        warnings.warn(
            f"engine.kernel: kernel='njit' requested but {reason}; "
            "falling back to the pure-python path (identical results, "
            "interpreter speed)",
            RuntimeWarning,
            stacklevel=3,
        )
    return "python"


def run_njit_block(  # pragma: no cover - reachable only with numba installed
    block, state, scorer, assignment, restream, cap
) -> None:
    """Run the compiled vertex-exact loop over one block.

    Callers must have resolved ``"njit"`` via :func:`resolve_kernel`
    first — this function assumes :func:`njit_supported` holds and numba
    compiled the loops above.
    """
    ids = np.ascontiguousarray(block.ids, dtype=np.int64)
    ptr = np.ascontiguousarray(block.vertex_ptr, dtype=np.int64)
    edges = np.ascontiguousarray(block.vertex_edges, dtype=np.int64)
    weights = np.ascontiguousarray(block.vertex_weights, dtype=np.float64)
    use_cap = cap is not None
    cap_f = float(cap) if use_cap else 0.0
    if isinstance(scorer, HyperPRAWScorer):
        _vertex_pass_eq1(
            ids,
            ptr,
            edges,
            weights,
            assignment,
            state.edge_counts,
            state.loads,
            np.ascontiguousarray(scorer.cost_matrix, dtype=np.float64),
            scorer.alpha,
            np.ascontiguousarray(scorer._inv_expected, dtype=np.float64),
            float(scorer.presence_threshold),
            restream,
            cap_f,
            use_cap,
        )
    else:
        _vertex_pass_fennel(
            ids,
            ptr,
            edges,
            weights,
            assignment,
            state.edge_counts,
            state.loads,
            scorer.alpha * scorer.gamma,
            scorer.gamma - 1.0,
            restream,
            cap_f,
            use_cap,
        )
