"""The numpy kernel of the greedy strategy of ``langdei.allocator``.

The gain g_s(k) of a source's k-th sample depends only on k, so the greedy
merges per-source gain streams (largest head first, ties to the lower source
index), which picks samples in order of (-min(g_s(1..k)), source index, k).
So ``picks`` computes each source's states in chunks with the running
minimum of its gains, extends the source holding the least last-computed key
until the budget's samples lie at or below it (final), and sorts once. This
is the exact argmax of every step: unlike lazy ("accelerated") greedy it
needs no diminishing returns, which the Gini term breaks. An undefined
state (a gm or Gini that is not finite) fails the run only when the
step-by-step greedy would ask for it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from langdei import allocator
from langdei import curves as _curves
from langdei import metrics as _metrics
from langdei.records import LearningCurve

# Rows of a source's first and of its largest state chunk: doubling keeps the
# number of chunks logarithmic, the cap bounds the memory held per source.
CHUNK_ROWS = (64, 256)


def _source_chunks(request: allocator.AllocationRequest, source: str, first: int,
                   last: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(gm, gini, predictions) arrays of one source at k = first, ..., last
    samples, one chunk of consecutive k at a time.

    predictions has a column per target the source covers; gm is their
    demand-weighted sum, gini the Gini coefficient of their absolute values
    (the guard against negative predictions at small k). Each row is
    ``allocator._final_state`` at its k, bit for bit. Chunks have
    CHUNK_ROWS[0] rows, doubling up to CHUNK_ROWS[1]; one ends before the
    first k whose state is undefined, and asking for that k raises its
    ``allocator._undefined_state`` error.
    """
    targets = [t for t in request.targets if (source, t) in request.registry]
    curves = [request.registry[(source, t)] for t in targets]
    weights = [request.demand[t] for t in targets]
    rows = CHUNK_ROWS[0]
    while first <= last:
        ks = range(first, min(first + rows, last + 1))
        gm, gini, predictions, undefined = _state_chunk(curves, weights, ks)
        if gm.size:
            yield gm, gini, predictions
        if undefined is not None:
            allocator._undefined_state(source, ks.start + gm.size, undefined.tolist())
        first = ks.stop
        rows = min(2 * rows, CHUNK_ROWS[1])


def _state_chunk(curves: list[LearningCurve], weights: list[float], ks: range) -> tuple[np.ndarray, ...]:
    """gm, gini and the (ks x targets) matrix of curves.predict_many columns
    at each k in ks up to the first undefined state (a gm or Gini that is
    not finite), and that k's absolute predictions (or None).

    gm adds the targets in sorted order, and Gini is metrics._gini_rows,
    so each state is bit-identical to allocator._final_state at that k.
    """
    with np.errstate(all="ignore"):  # undefined rows are cut off below
        predictions = np.column_stack([_curves.predict_many(curve, ks) for curve in curves])
        gm = np.zeros(len(ks))
        for w, column in zip(weights, predictions.T):
            gm += w * column
        absolute = np.abs(predictions)
        gini = _metrics._gini_rows(absolute)
    undefined = np.flatnonzero(~(np.isfinite(gm) & np.isfinite(gini)))
    if undefined.size:
        end = int(undefined[0])
        return gm[:end], gini[:end], predictions[:end], absolute[end]
    return gm, gini, predictions, None


def _gain_chunks(request: allocator.AllocationRequest, source: str) -> Iterator[np.ndarray]:
    """(gain, gm, gini, -running minimum gain) rows of each _source_chunks chunk."""
    alpha, beta = request.alpha, request.beta
    gm_prev, gini_prev, least = -math.inf, 1.0, math.inf
    for gm, gini, _ in _source_chunks(request, source, 1, request.budget):
        with np.errstate(all="ignore"):  # a step's float operations, silent as Python's
            gm_term = alpha * (gm - np.append(gm_prev, gm[:-1])) if alpha != 0 else 0.0
            gain = gm_term + beta * (np.append(gini_prev, gini[:-1]) - gini)
        running = np.minimum.accumulate(np.append(least, gain))[1:]
        yield np.stack((gain, gm, gini, -running))
        gm_prev, gini_prev, least = gm[-1], gini[-1], running[-1]


def picks(request: allocator.AllocationRequest, trace: bool) -> tuple[list[int], tuple[list, ...] | None]:
    """Each source's count of the budget's argmax-gain picks, in source
    order, and, if ``trace`` is true, the picks' (source, gain, gm, gini)
    columns in step order (else None)."""
    sources, budget = request.sources, request.budget
    streams = [_gain_chunks(request, s) for s in sources]
    kept = slice(None) if trace else slice(3, None)  # the key row alone serves the counts
    # Each source's kept _gain_chunks rows so far: the first size[i] columns
    # of a buffer that doubles when full, so its extensions copy O(k) in all.
    rows = [next(stream)[kept] for stream in streams]
    size = [block.shape[1] for block in rows]
    while True:
        # The bound: the least (-running minimum, source index) over the
        # sources with states left. Every computed state at or below it is
        # final; the step-by-step greedy would next ask its holder for one.
        live = [i for i, n in enumerate(size) if n < budget]
        holder = min(live, key=lambda i: (rows[i][-1, size[i] - 1], i), default=None)
        if holder is None or budget <= sum(
            np.searchsorted(block[-1, :n], rows[holder][-1, size[holder] - 1], "right" if i <= holder else "left")
            for i, (block, n) in enumerate(zip(rows, size))
        ):
            break
        new, n = next(streams[holder])[kept], size[holder]
        if n + new.shape[1] > rows[holder].shape[1]:
            rows[holder] = np.concatenate((rows[holder][:, :n], np.empty((len(new), n + new.shape[1]))), axis=1)
        rows[holder][:, n:n + new.shape[1]] = new
        size[holder] = n + new.shape[1]

    # In (source, k) order, a stable sort on -(running minimum) is a lexsort
    # by (-running minimum, source index, k): the order of the picks.
    order = np.argsort(np.concatenate([block[-1, :n] for block, n in zip(rows, size)]), kind="stable")[:budget]
    owner = np.repeat(np.arange(len(sources)), size)[order]
    columns = None
    if trace:
        gain, gm, gini = np.concatenate([block[:3, :n] for block, n in zip(rows, size)], axis=1)[:, order].tolist()
        columns = ([sources[i] for i in owner.tolist()], gain, gm, gini)
    return np.bincount(owner, minlength=len(sources)).tolist(), columns
