"""minimap2's chaining dynamic program over a precomputed predecessor block.

For anchors sorted by (rid, strand, tpos, qpos), the chain score is

    f(i) = max( w_k,  max_{j<i}  f(j) + match(j,i) - cost(j,i) )

where ``match = min(dq, dt, k)`` caps the credited seed overlap and
``cost`` penalizes the gap ``dd = |dt - dq|`` with minimap2's
``0.01·k·dd + 0.5·log2(dd)`` term. Each anchor scans at most
``max_pred`` predecessors (minimap2's ``-h``), giving O(n·h).

Only the ``f(j)`` term depends on earlier results. Everything else is
built up front as one ``(rows, max_pred)`` NumPy block whose column
``c`` holds predecessor ``j = i - (max_pred - c)``: the same-rid/strand
test, ``dt``, ``dq``, ``dd``, the admissibility mask, ``match`` and the
gap cost, which is ``+inf`` wherever ``j`` is not an admissible
predecessor. The sequential recurrence then visits only rows with at
least one admissible predecessor and does one add, one subtract and one
``argmax`` over the row; the first maximum wins ties, and ``f(i)``
changes only on a strict improvement over ``w_k``.

The block is built :data:`TILE_ROWS` rows at a time, so its memory is
bounded by ``TILE_ROWS x max_pred`` cells per array (under 20 MB of
temporaries at the defaults) whatever the read's anchor count.

The row sum is evaluated as ``(f + match) - cost``. Floating-point
addition is not associative, and ``f + (match - cost)`` can differ in
the last bit, which can flip a tie between two predecessors and with
it a chain; keeping the order keeps chain scores bit-identical to a
per-anchor scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import ChainError
from ..obs.counters import COUNTERS


@dataclass(frozen=True)
class ChainParams:
    """Chaining parameters (minimap2 flag in parentheses)."""

    k: int = 15  # seed length, caps per-anchor match credit
    max_dist_t: int = 5000  # max target gap between adjacent anchors (-g)
    max_dist_q: int = 5000  # max query gap
    bandwidth: int = 500  # max |dt - dq| (-r)
    max_pred: int = 50  # predecessors scanned per anchor (-h... max-chain-iter)
    min_score: int = 40  # minimum chain score (-m)
    min_count: int = 3  # minimum anchors per chain (-n)
    max_chains: int = 64  # chains kept per query

    def __post_init__(self) -> None:
        if self.k < 1 or self.max_pred < 1 or self.max_chains < 1:
            raise ChainError(f"invalid chain parameters: {self}")
        if self.max_dist_t < 1 or self.max_dist_q < 1 or self.bandwidth < 0:
            raise ChainError(f"invalid chain distances: {self}")


@dataclass
class Chain:
    """A colinear anchor chain on one reference/strand."""

    rid: int
    strand: int
    score: float
    anchors: List[Tuple[int, int]] = field(default_factory=list)  # (tpos, qpos)

    @property
    def n_anchors(self) -> int:
        return len(self.anchors)

    @property
    def t_start(self) -> int:
        return self.anchors[0][0]

    @property
    def t_end(self) -> int:
        return self.anchors[-1][0]

    @property
    def q_start(self) -> int:
        return self.anchors[0][1]

    @property
    def q_end(self) -> int:
        return self.anchors[-1][1]

    def query_interval(self) -> Tuple[int, int]:
        """Query span covered by the chain (k-mer end positions)."""
        return self.q_start, self.q_end


#: Rows of the predecessor block built at once; bounds the block to
#: ``TILE_ROWS x max_pred`` cells whatever the read's anchor count.
TILE_ROWS = 4096


def _is_sorted(keys: Tuple[np.ndarray, ...]) -> bool:
    """True when adjacent rows are lexicographically non-decreasing.

    ``keys`` runs from the most to the least significant column. O(n),
    one pass of comparisons per key.
    """
    n = keys[0].size
    bad = np.zeros(n - 1, dtype=bool)  # pair already out of order
    tied = np.ones(n - 1, dtype=bool)  # pair equal on every key so far
    for key in keys:
        prev, nxt = key[:-1], key[1:]
        bad |= tied & (nxt < prev)
        tied &= nxt == prev
    return not bad.any()


def _gap_cost(dd: np.ndarray, ok: np.ndarray, avg_len: float) -> np.ndarray:
    """minimap2's concave gap cost 0.01·k̄·dd + 0.5·log2(dd); +inf off ``ok``."""
    cost = np.where(ok, 0.0, np.inf)
    pos = ok & (dd > 0)
    ddp = dd[pos].astype(np.float64)
    cost[pos] = 0.01 * avg_len * ddp + 0.5 * np.log2(ddp)
    return cost


def _predecessor_block(
    windows: Tuple[np.ndarray, ...],
    anchors: Tuple[np.ndarray, ...],
    r0: int,
    r1: int,
    params: ChainParams,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``match``, ``cost`` and live rows for anchors ``r0:r1``.

    A row is live when it has at least one admissible predecessor.
    ``windows`` are ``max_pred``-wide sliding views over the anchor
    arrays padded with ``max_pred`` leading entries, so row ``i`` of a
    window holds anchors ``i - max_pred .. i - 1``.
    """
    rid_w, tpos_w, qpos_w, strand_w = (w[r0:r1] for w in windows)
    rid, tpos, qpos, strand = (a[r0:r1, None] for a in anchors)
    h = params.max_pred
    dt = tpos - tpos_w
    dq = qpos - qpos_w
    dd = np.abs(dt - dq)
    ok = (
        (rid_w == rid)
        & (strand_w == strand)
        & (dt > 0)
        & (dq > 0)
        & (dt <= params.max_dist_t)
        & (dq <= params.max_dist_q)
        & (dd <= params.bandwidth)
    )
    if r0 < h:  # columns before anchor 0 are padding
        ok &= np.arange(r0, r1)[:, None] >= np.arange(h, 0, -1)
    match = np.minimum(np.minimum(dq, dt), params.k).astype(np.float64)
    return match, _gap_cost(dd, ok, params.k), ok.any(axis=1)


def chain_anchors(
    rid: np.ndarray,
    tpos: np.ndarray,
    qpos: np.ndarray,
    strand: np.ndarray,
    params: ChainParams = ChainParams(),
) -> List[Chain]:
    """Run the chaining DP and return chains sorted by score, best first.

    Inputs must be sorted by (rid, strand, tpos, qpos) — the order
    :func:`repro.chain.anchors.collect_anchors` produces. Chains reuse
    no anchors (each anchor belongs to its best chain only).
    """
    n = int(tpos.size)
    if not (rid.size == qpos.size == strand.size == n):
        raise ChainError("anchor arrays must have equal length")
    if n == 0:
        return []
    if not _is_sorted((rid, strand, tpos, qpos)):
        raise ChainError("anchors must be sorted by (rid, strand, tpos, qpos)")

    h = params.max_pred
    anchors = (rid, tpos, qpos, strand)
    windows = tuple(
        np.lib.stride_tricks.sliding_window_view(
            np.concatenate((np.zeros(h, dtype=a.dtype), a)), h
        )
        for a in anchors
    )
    # f_pad[i + c] is f(i - h + c): the h leading zeros stand in for the
    # padding columns, whose cost is +inf, so they score -inf and never win.
    f_pad = np.zeros(n + h, dtype=np.float64)
    f = f_pad[h:]  # best score ending at i
    f[:] = params.k
    pred = np.full(n, -1, dtype=np.int64)

    for r0 in range(0, n, TILE_ROWS):
        r1 = min(n, r0 + TILE_ROWS)
        match, cost, live = _predecessor_block(windows, anchors, r0, r1, params)
        for r in np.flatnonzero(live).tolist():
            i = r0 + r
            cand = f_pad[i : i + h] + match[r]
            cand -= cost[r]
            b = int(cand.argmax())
            if cand[b] > f[i]:
                f[i] = cand[b]
                pred[i] = i - h + b

    # Extract chains greedily by descending end-score, skipping used anchors.
    # Ends below min_score cannot start a chain, so they never enter the loop.
    ends = np.flatnonzero(f >= params.min_score)
    order = ends[np.argsort(-f[ends], kind="stable")]
    used = np.zeros(n, dtype=bool)
    chains: List[Chain] = []
    for i0 in order:
        if used[i0]:
            continue
        trail = []
        i = int(i0)
        cut_score = 0.0
        while i != -1:
            if used[i]:
                # Chain truncated where a better chain already claimed the
                # anchor: only the score accumulated past the cut counts
                # (minimap2's backtrack does the same subtraction).
                cut_score = float(f[i])
                break
            trail.append(i)
            i = int(pred[i])
        score = float(f[i0]) - cut_score
        if len(trail) < params.min_count or score < params.min_score:
            continue
        for i in trail:
            used[i] = True
        trail.reverse()
        chains.append(
            Chain(
                rid=int(rid[i0]),
                strand=int(strand[i0]),
                score=score,
                anchors=[(int(tpos[i]), int(qpos[i])) for i in trail],
            )
        )
        if len(chains) >= params.max_chains:
            break
    chains.sort(key=lambda c: -c.score)
    COUNTERS.inc("chains_built", len(chains))
    COUNTERS.inc("anchors_chained", sum(c.n_anchors for c in chains))
    return chains
