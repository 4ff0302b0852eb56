"""The greedy strategy of ``langdei.allocator``, as a heap merge of per-source
gain streams, without numpy.

The gain of a source's k-th sample depends only on k, so each source is a
stream of states. A heap holds each source's next state, keyed by (-gain,
source index): each pop is the argmax of one step, ties to the lower source
index, and after a source's k-th pick its state k+1 is computed and pushed
if picks remain. That is the step-by-step greedy, which picks the samples
in order of (-min(g_s(1..k)), source index, k); with one entry per source in
the heap, keying by the running minimum would give the same pops. A state is
computed exactly when stepping asks for it, so an undefined state (a gm or
Gini that is not finite) fails the run at the same step, with the same
error. This is the exact argmax of every step: unlike lazy ("accelerated")
greedy it needs no diminishing returns, which the Gini term breaks.
"""

from __future__ import annotations

import heapq
import math

from langdei import allocator


def picks(request: allocator.AllocationRequest, trace: bool) -> tuple[list[int], tuple[list, ...] | None]:
    """Each source's count of the budget's argmax-gain picks, in source
    order, and, if ``trace`` is true, the picks' (source, gain, gm, gini)
    columns in step order (else None)."""
    sources, alpha, beta = request.sources, request.alpha, request.beta
    states = [allocator._source_state(request, s)[1] for s in sources]
    counts = [0] * len(sources)
    heap = []  # (-gain, source index, gm, gini) of each source's next state

    def push(i: int, gm: float, gini: float) -> None:
        """Push source i's next state, after a pick that left it at this gm and Gini."""
        gm_next, gini_next, _ = states[i](counts[i] + 1)
        gain = (alpha * (gm_next - gm) if alpha != 0 else 0.0) + beta * (gini - gini_next)
        heapq.heappush(heap, (-gain, i, gm_next, gini_next))

    for i in range(len(sources)):  # before any pick, gm is -inf and the Gini 1
        push(i, -math.inf, 1.0)
    picked = []
    for left in range(request.budget - 1, -1, -1):
        entry = heapq.heappop(heap)
        _, i, gm, gini = entry
        counts[i] += 1
        if trace:
            picked.append(entry)
        if left:
            push(i, gm, gini)
    columns = None
    if trace:
        key, owner, gm, gini = zip(*picked)
        columns = ([sources[i] for i in owner], [-k for k in key], list(gm), list(gini))
    return counts, columns
