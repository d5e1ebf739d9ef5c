"""Cross-read batched wavefront kernel: Eq. (4) across many pairs at once.

:func:`align_manymap` sweeps one (target, query) pair per call, paying
the NumPy dispatch overhead of every anti-diagonal for a single vector
of at most ``min(m, n)`` cells.  This module stacks a *bucket* of pairs
("lanes") into one 2-D wavefront, so a single vectorized sweep advances
**all** pairs in the bucket, amortizing the per-diagonal dispatch cost
across reads (the SWIPE inter-sequence trick applied to the paper's
Eq. (4) layout).  Each anti-diagonal issues only the array operations
its cells need — plain loads and stores of contiguous blocks, with no
per-diagonal fix-up; everything that depends on the lanes' shapes
rather than on cell values is worked out once per batch.

Layout: lanes are the minor, contiguous axis of every array; the major
axis is a column coordinate shared by all lanes, so the window of one
anti-diagonal is one contiguous block of rows.  Per lane ``b`` with
target length ``m_b`` and query length ``n_b`` (``Mmax = max m_b``,
``Nmax = max n_b``):

* The difference arrays share the transformed column coordinate
  ``t'' = t - r + Nmax``.  For ``v``/``x`` this is the manymap Eq. (4)
  property: the dependency of cell ``(r, t)`` lands on the very slot it
  overwrites, so the update is a plain in-place store.  Anchoring at
  the *shared* ``Nmax`` makes the sweep window of same-shape lanes
  coincide, so the padded column span of a bucket tracks the band
  width, not the spread of query lengths — and the per-diagonal
  target-code read is a contiguous block too.
* ``u``/``y`` use the same coordinate, which turns their same-``t``
  dependency into a uniform shift-by-one read of the same arrays.
* The running ``H`` values live per *offset* diagonal, re-anchored per
  lane so that slot ``j = (Mmax + 2*Nmax - 1 - r) - 2*t''`` of cell
  ``(r, t'')`` is lane-independent.  One anti-diagonal touches one
  parity of ``j``; kept per parity and reversed, it is one block.
* The direction matrices share the row stride ``Nmax``: cell
  ``(t, qj)`` of lane ``b`` sits at ``D[t*Nmax + qj, b]``.  Since
  ``t*Nmax + qj = t''*(Nmax-1) + (r-Nmax+1)*Nmax``, one anti-diagonal
  of every lane is a single stride-``(Nmax-1)`` view of ``D`` (with
  ``Nmax == 1`` every diagonal is one cell per lane).  Traceback reads
  a lane's matrix in place, as bytes with that row stride.

**Boundary seeds are initial array contents.**  The j=0 boundary enters
every lane at the guard column ``t'' = Nmax + 1`` (read as the ``u``/``y``
shift of cell ``t = r``), the i=0 boundary of diagonal ``r`` at
``t'' = Nmax - r``, and the ``H`` slot of offset diagonal ``d`` starts
as its boundary value ``c_|d|``.  Each seed sits in a slot that no
store touches before the diagonal that reads it: windows never reach
past ``t'' = Nmax`` nor, before diagonal ``r``, down to ``Nmax - r``,
and an offset diagonal's ``H`` slot first enters a window with its
boundary cell.

**The lane schedule is built once per batch** (:class:`_Schedule`):
each lane's corridor ``[st_b(r), en_b(r)]`` (clipped range and band),
the shared column window of each diagonal and the band-edge re-seed
slots (§4 of ``docs/KERNELS.md``; none for unbanded lanes) are
``(diagonal, lane)`` tables, and a diagonal reads one row of them.
Z-drop retirement empties a lane's remaining rows, so hopeless
extensions stop costing cells; the tables are rebuilt for the
survivors when finished and retired lanes are compacted away (once
they make up half the bucket).

**No store is masked.**  Over a sweep both ends of a lane's corridor
only move left in ``t''``, by at most one column per diagonal.  So
every ``u``/``v``/``x``/``y`` dependency a corridor cell reads is a cell
of the previous diagonal's corridor, stored one diagonal ago, or a slot
that has just entered on the left (the i=0 seed, or a band-edge
re-seed written this diagonal) or lies just right of it (the j=0 guard
column, or a band-edge re-seed); a lane whose corridor is empty on one
diagonal reads only such seeds on the next.  The ``H`` dependency of a
cell is the previous cell of its offset diagonal, stored two diagonals
ago, and the diagonal in between stores only the other parity of ``j``.
Hence values a store leaves outside a lane's corridor (which may be
anything, int32 wrap-around included) are never read, and every array
is stored over the whole window.  Each direction-matrix
cell belongs to exactly one diagonal; traceback, which can step just
off a banded corridor, reads cells off the lane's band as 0, which is
what the per-pair kernel's zero-initialised matrix holds there.  Only
extend mode's running maximum is taken over the corridors, masked by
three static tables (``t < m_b``, ``qj < n_b``, offset diagonal in the
band).

Bit-identity: for every pair the scores, end cells, CIGARs, and the
deterministic counters (``dp_calls``/``dp_cells``/``band_*``/
``zdrop_hits`` and the ``band.width`` histogram) are identical to
calling :func:`align_manymap` per pair — regardless of how pairs are
grouped into buckets.  Only the ``wavefront.*`` occupancy/padding
telemetry depends on bucket composition (see
:data:`repro.obs.counters.SHAPE_DEPENDENT_PREFIXES`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AlignmentError
from ..obs.counters import COUNTERS
from ..obs.hist import HISTOGRAMS
from ..seq.alphabet import AMBIG
from ._band import band_limits
from ._diag import X_CONT, Y_CONT, traceback_dir
from .dp_reference import NEG, _degenerate, _validate
from .result import AlignmentResult
from .scoring import Scoring

#: Band sentinel for unbanded lanes: wide enough that the corridor never
#: clips, even (so parity tests against it reduce to the parity of r),
#: and small enough that corridor arithmetic stays in int32.
_NO_BAND = 1 << 30

#: Direction-matrix rows moved per step when compacting lanes.
_COMPACT_ROWS = 1 << 14


def _corridor(rr: np.ndarray, m, n, lo, hi):
    """Inclusive ``(st, en)`` target range of diagonals ``rr`` (banded)."""
    st = np.maximum(np.maximum(rr - n + 1, 0), -((hi - rr) // 2))
    en = np.minimum(np.minimum(m - 1, rr), (rr - lo) // 2)
    return st, en


class _Schedule:
    """Per-diagonal lane tables for diagonals ``r0 .. R-1``.

    Row ``k`` describes diagonal ``r0 + k``: ``length[k]`` is each
    lane's cell count (0 for an empty corridor or a retired lane),
    ``cmin``/``cmax``/``nact`` the shared ``t''`` column window and the
    number of active lanes; ``uy``/``vx`` list the band-edge re-seeds
    as ``(ptr, lanes, cols)``, grouped by row.
    """

    def __init__(self, r0, R, m, n, lo, hi, Nmax, banded):
        self.r0 = r0
        rr = np.arange(r0, R, dtype=np.int32)[:, None]
        st, en = _corridor(rr, m, n, lo, hi)
        self.uy = self.vx = None
        if banded:
            ut = (rr - lo) // 2
            ok = ((rr - lo) % 2 == 0) & (ut >= st) & (ut <= en) & (ut <= rr - 1)
            # u/y re-seed: the shift-read slot of the corridor's last cell.
            self.uy = self._events(ok, ut - rr + Nmax + 1)
            vt = (rr - hi) // 2
            ok = ((rr - hi) % 2 == 0) & (vt >= st) & (vt <= en) & (vt >= 1)
            self.vx = self._events(ok, vt - rr + Nmax)
        # In place from here on: (R, B) tables of non-path batches of
        # long jobs are as large as the H array.
        length = en
        length -= st
        length += 1
        np.maximum(length, 0, out=length)
        self.length = length
        idle = length == 0
        self.nact: List[int] = (~idle).sum(axis=1).tolist()
        stp = st
        stp -= rr - Nmax  # first t'' column
        stp[idle] = Nmax + 1
        self.cmin: List[int] = stp.min(axis=1).tolist()
        stp += length - 1  # last t'' column
        stp[idle] = -1
        self.cmax: List[int] = stp.max(axis=1).tolist()

    @staticmethod
    def _events(ok, cols):
        ks, lanes = np.nonzero(ok)
        if not ks.size:
            return None
        ptr = np.searchsorted(ks, np.arange(ok.shape[0] + 1)).tolist()
        return ptr, lanes, cols[ks, lanes]

    def reseed(self, k: int, value: int, uy, vx) -> None:
        """Write row ``k``'s band-edge re-seeds into the ``uy`` arrays
        (``u``, ``y``) and the ``vx`` arrays (``v``, ``x``)."""
        for events, arrays in ((self.uy, uy), (self.vx, vx)):
            if events is None:
                continue
            ptr, lanes, cols = events
            k0, k1 = ptr[k], ptr[k + 1]
            if k1 > k0:
                for arr in arrays:
                    arr[cols[k0:k1], lanes[k0:k1]] = value

    def retire(self, r: int, lanes: np.ndarray) -> None:
        """Empty the corridors of ``lanes`` after diagonal ``r``.

        The shared window keeps covering them until the next compaction:
        that costs cells, never results.
        """
        k = r - self.r0 + 1
        gone = (self.length[k:, lanes] > 0).sum(axis=1)
        self.length[k:, lanes] = 0
        self.nact[k:] = (np.array(self.nact[k:]) - gone).tolist()


def align_wavefront_batch(
    targets: Sequence[np.ndarray],
    queries: Sequence[np.ndarray],
    scoring: Scoring = Scoring(),
    mode: str = "global",
    path: bool = False,
    zdrop: Optional[int] = None,
    bands: Optional[Sequence[Optional[int]]] = None,
) -> List[AlignmentResult]:
    """Align ``queries[i]`` to ``targets[i]`` for all i in one wavefront.

    ``mode``/``path``/``zdrop`` apply to every pair; ``bands`` may give a
    different band (or ``None`` for unbanded) per pair. Results are
    bit-identical to per-pair :func:`align_manymap` calls.
    """
    if len(targets) != len(queries):
        raise AlignmentError(
            f"batch size mismatch: {len(targets)} targets, {len(queries)} queries"
        )
    if mode not in ("global", "extend"):
        raise AlignmentError(f"unknown mode {mode!r}")
    if zdrop is not None and mode != "extend":
        raise AlignmentError("zdrop only applies to mode='extend'")
    if bands is not None and len(bands) != len(targets):
        raise AlignmentError(
            f"bands length {len(bands)} does not match batch size {len(targets)}"
        )

    P = len(targets)
    results: List[Optional[AlignmentResult]] = [None] * P
    lanes: List[int] = []
    pairs = []
    for i in range(P):
        t, s = _validate(targets[i], queries[i])
        deg = _degenerate(t.size, s.size, scoring, path)
        if deg is not None:
            results[i] = deg
            continue
        lanes.append(i)
        pairs.append((t, s))
    if not lanes:
        return results  # type: ignore[return-value]

    B = len(lanes)
    m = np.array([t.size for t, _ in pairs], dtype=np.int32)
    n = np.array([s.size for _, s in pairs], dtype=np.int32)
    band_arr = np.full(B, -1, dtype=np.int64)
    lo = np.full(B, -_NO_BAND, dtype=np.int32)
    hi = np.full(B, _NO_BAND, dtype=np.int32)
    if bands is not None:
        for b, i in enumerate(lanes):
            if bands[i] is not None:
                band_arr[b] = bands[i]
                lo[b], hi[b] = band_limits(int(m[b]), int(n[b]), int(bands[i]))

    Mmax = int(m.max())
    Nmax = int(n.max())
    R = int((m.astype(np.int64) + n).max()) - 1  # diagonals 0 .. R-1
    W = Nmax + 2  # +1 guard column: the j=0 seed the u/y shift reads
    q, e = scoring.q, scoring.e
    oe = q + e
    neg = np.int32(NEG)

    # Lanes are the minor axis of every array, so the window of one
    # anti-diagonal is a contiguous block of rows.  Target codes by t;
    # query codes by t'' (qj = Nmax - t'' is static per column).
    TC = np.full((Mmax, B), AMBIG, dtype=np.uint8)
    SC = np.full((W, B), AMBIG, dtype=np.uint8)
    for b, (t, s) in enumerate(pairs):
        TC[: t.size, b] = t
        SC[Nmax - s.size + 1 : Nmax + 1, b] = s[::-1]
    has_ambig = any((t == AMBIG).any() or (s == AMBIG).any() for t, s in pairs)
    match_gap = np.int32(scoring.match + scoring.mismatch)

    # Boundary seeds (see module docstring): u/y enter at the guard
    # column (first_seed is -(q+e) on diagonal 0, -e after), v/x of
    # diagonal r at column Nmax - r.
    U = np.zeros((W, B), dtype=np.int32)
    Y = np.zeros((W, B), dtype=np.int32)
    V = np.full((W, B), -e, dtype=np.int32)
    X = np.full((W, B), -oe, dtype=np.int32)
    U[Nmax + 1] = Y[Nmax + 1] = V[Nmax] = -oe
    # H per offset diagonal, re-anchored per lane at j = dd - m + Mmax so
    # that the slot of cell (r, t'') is lane-independent:
    #   j = (Mmax + 2*Nmax - 1 - r) - 2*t''
    # One diagonal touches one parity of j, so HP keeps the two parities
    # apart, each reversed: slot j lives at HP[j & 1, G - (j >> 1)] and a
    # diagonal is one contiguous block.  Slot j starts out as the
    # boundary value c_|d| = -(q + |d|*e) (c_0 = 0) of its offset
    # diagonal d = j - (Mmax - 1).
    G = (Mmax + Nmax - 2) >> 1
    slot = np.arange(Mmax + Nmax - 1)
    dist = np.abs(slot - (Mmax - 1))
    HP = np.full((2, G + 1, B), neg, dtype=np.int32)
    HP[slot & 1, G - (slot >> 1)] = np.where(dist == 0, 0, -(q + dist * e))[:, None]

    track_best = mode == "extend"
    if track_best:
        # Extend mode takes each diagonal's maximum over the corridors:
        # cell (t, qj) of lane b is in its corridor iff t < m_b, qj < n_b
        # and its offset diagonal d = j - (Mmax - 1) is in the band --
        # static masks laid out like TC, SC and HP.
        t_ok = np.arange(Mmax)[:, None] < m
        col = np.arange(W)[:, None]
        q_ok = (col > Nmax - n) & (col <= Nmax)
        d_ok = None
        if (band_arr >= 0).any():
            d = slot[:, None] - (Mmax - 1)
            d_ok = np.zeros((2, G + 1, B), dtype=bool)
            d_ok[slot & 1, G - (slot >> 1)] = (d >= lo) & (d <= hi)

    D = None
    step = max(Nmax - 1, 1)  # with Nmax == 1 every window is one column
    if path:
        D = np.zeros((Mmax * Nmax, B), dtype=np.uint8)

    best = np.full(B, neg, dtype=np.int32)
    bt = np.zeros(B, dtype=np.int64)  # best cell: target index ...
    br = np.zeros(B, dtype=np.int64)  # ... and diagonal
    cells = np.zeros(B, dtype=np.int64)
    zdropped = np.zeros(B, dtype=bool)
    alive = np.ones(B, dtype=bool)
    n_alive = B
    orig = np.array(lanes, dtype=np.int64)

    padded_cells = 0
    active_cells = 0
    lanes_retired = 0

    def finish_rows() -> Dict[int, List[int]]:
        fin: Dict[int, List[int]] = {}
        for b, f in enumerate((m.astype(np.int64) + n - 2).tolist()):
            fin.setdefault(f, []).append(b)
        return fin

    def harvest(rows) -> None:
        """Extract results for (current-index) lanes that just finished."""
        nonlocal active_cells
        for b in rows:
            mb, nb = int(m[b]), int(n[b])
            if mode == "global":
                j = nb - 1 - mb + Mmax  # dd = n-1 re-anchored
                score = int(HP[j & 1, G - (j >> 1), b])
                end_t, end_q = mb - 1, nb - 1
            else:
                score = int(best[b])
                end_t, end_q = int(bt[b]), int(br[b] - bt[b])
            cigar = None
            if path:
                band = (int(lo[b]), int(hi[b])) if band_arr[b] >= 0 else None
                dirmat = D[:, b].reshape(Mmax, Nmax)
                cigar = traceback_dir(dirmat, end_t, end_q, band)
            nc = int(cells[b])
            active_cells += nc
            zflag = bool(zdropped[b])
            results[orig[b]] = AlignmentResult(
                score=score,
                end_t=end_t,
                end_q=end_q,
                cigar=cigar,
                cells=nc,
                zdropped=zflag,
            )
            COUNTERS.inc("dp_calls")
            COUNTERS.inc("dp_cells", nc)
            if band_arr[b] >= 0:
                width = 2 * int(band_arr[b]) + 1
                COUNTERS.inc("band_calls")
                COUNTERS.inc("band_width_sum", width)
                HISTOGRAMS.observe("band.width", width)
            if zflag:
                COUNTERS.inc("zdrop_hits")

    sched = _Schedule(0, R, m, n, lo, hi, Nmax, bool((band_arr >= 0).any()))
    fin_at = finish_rows()
    for r in range(R):
        k = r - sched.r0
        nact = sched.nact[k]
        if nact:
            cmin, cmax = sched.cmin[k], sched.cmax[k]
            L = cmax - cmin + 1
            padded_cells += nact * L
            w = slice(cmin, cmax + 1)
            sh = slice(cmin + 1, cmax + 2)  # the u/y same-t dependency
            length = sched.length[k]
            cells += length

            sched.reseed(k, -oe, (U, Y), (V, X))

            Uw, Yw, Vw, Xw, Ush = U[w], Y[w], V[w], X[w], U[sh]

            # Target codes: t = t'' + r - Nmax is lane-independent, so
            # the target read is a contiguous block too.
            t_lo = cmin + r - Nmax
            tcode, qcode = TC[t_lo : t_lo + L], SC[w]
            sc = (tcode == qcode) * match_gap
            sc -= scoring.mismatch
            if has_ambig:
                sc[(tcode | qcode) >= AMBIG] = -scoring.sc_ambi

            a = Xw + Vw
            bb = Y[sh] + Ush
            z = np.maximum(sc, a)
            np.maximum(z, bb, out=z)
            ze = z + e
            a -= ze  # x continues iff a - z + q > 0, i.e. a - z - e > -oe
            bb -= ze

            if path:
                # src 0/1/2 = diag / E / F (first match on ties), plus
                # the gap continuation flags.
                e1 = z != sc
                bits = e1.view(np.uint8) + (e1 & (a != -e)).view(np.uint8)
                bits += (a > -oe).view(np.uint8) * np.uint8(X_CONT)
                bits += (bb > -oe).view(np.uint8) * np.uint8(Y_CONT)
                start = cmin * (Nmax - 1) + (r - Nmax + 1) * Nmax
                D[start : start + (L - 1) * step + 1 : step] = bits

            # Unmasked stores (see module docstring).
            u_new = z - Vw
            np.subtract(z, Ush, out=Vw)
            Uw[...] = u_new
            np.maximum(a, -oe, out=Xw)
            np.maximum(bb, -oe, out=Yw)
            if r == 0:
                U[Nmax + 1] = -e  # first_seed of every later diagonal

            J0 = Mmax + 2 * Nmax - 1 - r
            g0 = G - (J0 >> 1) + cmin
            Hw = HP[J0 & 1, g0 : g0 + L]
            Hw += z

            if track_best:
                A = t_ok[t_lo : t_lo + L] & q_ok[w]
                if d_ok is not None:
                    A &= d_ok[J0 & 1, g0 : g0 + L]
                # H - NEG over the corridor (> 0 on real cells), 0 off it;
                # wrap-around in the dead slots is multiplied away.
                Hm = Hw - neg
                Hm *= A
                dmax = Hm.max(axis=0) + neg
                upd = dmax > best
                if upd.any():
                    # Ties take the largest t (first max of the t-descending
                    # per-pair scan) — i.e. the last occurrence here.
                    last = np.argmax(Hm[::-1], axis=0)
                    np.copyto(best, dmax, where=upd)
                    np.copyto(bt, t_lo + L - 1 - last, where=upd)
                    br[upd] = r
                if zdrop is not None:
                    zd = (best - dmax > zdrop) & (length > 0)
                    if zd.any():
                        rows = np.flatnonzero(zd)
                        zdropped[rows] = True
                        alive[rows] = False
                        n_alive -= rows.size
                        lanes_retired += rows.size
                        harvest(rows.tolist())
                        sched.retire(r, rows)

        done = [b for b in fin_at.get(r, ()) if alive[b]]
        if done:
            alive[done] = False
            n_alive -= len(done)
            harvest(done)
        if not n_alive:
            break

        # Compact away finished/retired lanes once they dominate.
        if B >= 8 and 2 * n_alive <= B:
            keep = np.flatnonzero(alive)
            m, n, lo, hi, band_arr = m[keep], n[keep], lo[keep], hi[keep], band_arr[keep]
            TC, SC = TC[:, keep], SC[:, keep]
            if track_best:
                t_ok, q_ok = t_ok[:, keep], q_ok[:, keep]
                if d_ok is not None:
                    d_ok = d_ok[:, :, keep]
            U, Y, V, X = U[:, keep], Y[:, keep], V[:, keep], X[:, keep]
            HP = HP[:, :, keep]
            best, bt, br, cells = best[keep], bt[keep], br[keep], cells[keep]
            zdropped, orig = zdropped[keep], orig[keep]
            if path:
                # In place, in row blocks: no second direction buffer.
                # Rows past r*Nmax hold no written cell yet.
                top = min(r * Nmax + 1, D.shape[0])
                for r_lo in range(0, top, _COMPACT_ROWS):
                    blk = D[r_lo : min(r_lo + _COMPACT_ROWS, top)]
                    blk[:, :n_alive] = blk[:, keep]
                D = D[:, :n_alive]
            B = n_alive
            alive = np.ones(B, dtype=bool)
            sched = _Schedule(
                r + 1, R, m, n, lo, hi, Nmax, bool((band_arr >= 0).any())
            )
            fin_at = finish_rows()

    COUNTERS.inc("wavefront.calls")
    COUNTERS.inc("wavefront.lanes", len(lanes))
    COUNTERS.inc("wavefront.cells_active", active_cells)
    COUNTERS.inc("wavefront.cells_padded", padded_cells)
    if lanes_retired:
        COUNTERS.inc("wavefront.lanes_retired", lanes_retired)
    if padded_cells:
        HISTOGRAMS.observe(
            "wavefront.occupancy", round(100.0 * active_cells / padded_cells)
        )
    HISTOGRAMS.observe("wavefront.lanes", len(lanes))
    return results  # type: ignore[return-value]


def align_wavefront(
    target: np.ndarray,
    query: np.ndarray,
    scoring: Scoring = Scoring(),
    mode: str = "global",
    path: bool = False,
    zdrop: Optional[int] = None,
    band: Optional[int] = None,
) -> AlignmentResult:
    """Per-pair adapter: a one-lane batch (engine-registry signature)."""
    return align_wavefront_batch(
        [target],
        [query],
        scoring,
        mode=mode,
        path=path,
        zdrop=zdrop,
        bands=[band] if band is not None else None,
    )[0]
