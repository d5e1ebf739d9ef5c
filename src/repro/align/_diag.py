"""Shared machinery for the anti-diagonal difference-formula kernels.

Coordinate conventions (matching the paper §3.2/§4.3):

* Unpadded cell ``(ti, qj)``: target index ``ti ∈ [0, m)``, query index
  ``qj ∈ [0, n)``.
* Diagonal coordinates: ``r = ti + qj ∈ [0, m+n-2]``, ``t = ti``.
  Diagonal ``r`` covers ``t ∈ [st, en]`` with ``st = max(0, r-n+1)``,
  ``en = min(m-1, r)``.
* Difference arrays: ``u,y`` indexed by ``t`` (size m); ``v,x`` indexed
  by ``t`` in the minimap2 layout or by ``t' = t - r + n`` in the
  manymap layout (size n+1).
* The running ``H`` values are kept per *offset* diagonal ``d = qj - ti``
  (index ``dd = r - 2t + m - 1``, size m+n-1) because ``H[i][j]`` depends
  on ``H[i-1][j-1]`` which shares the same ``d`` — an in-place update
  with no shift in any layout.

Boundary values (derived from ``H[i][0] = H[0][i] = -(q + i·e)``):

* first-row/column ``u``/``v`` seed: ``-(q+e)`` at ``r = 0``, else ``-e``;
* ``x``/``y`` seeds are always ``-(q+e)``;
* the diagonal-H seed for row/column 0 is ``c_r = 0`` if ``r == 0`` else
  ``-(q + r·e)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import AlignmentError
from .cigar import Cigar

#: Direction-matrix bit layout.
SRC_MASK = 0x3  # bits 0-1: 0 = diagonal, 1 = E (deletion), 2 = F (insertion)
SRC_DIAG = 0
SRC_E = 1
SRC_F = 2
X_CONT = 0x4  # bit 2: E-chain extension (x took the max with > 0)
Y_CONT = 0x8  # bit 3: F-chain extension


def diag_range(r: int, m: int, n: int) -> Tuple[int, int]:
    """Inclusive ``(st, en)`` target-index range of diagonal ``r``."""
    return max(0, r - n + 1), min(m - 1, r)


def boundary_c(r: int, q: int, e: int) -> int:
    """H boundary value shared by ``H[0][r]`` and ``H[r][0]``."""
    return 0 if r == 0 else -(q + r * e)


def first_seed(r: int, q: int, e: int) -> int:
    """Boundary value of ``u``/``v`` entering diagonal ``r``."""
    return -(q + e) if r == 0 else -e


def traceback_dir(
    dirmat: np.ndarray,
    end_ti: int,
    end_qj: int,
    band: Optional[Tuple[int, int]] = None,
) -> Cigar:
    """Backtrack a direction matrix produced by a difference kernel.

    ``dirmat`` is ``(m, n)`` uint8 with the bit layout above, with any
    non-negative strides (a lane of a batched kernel's shared buffer
    needs no copy). The state machine mirrors ksw2: in state M the
    source bits of the current cell decide; in state E/D (resp. F/I)
    the continuation bit of the cell above (resp. left) decides whether
    the gap chain continues.

    ``band = (lo, hi)`` reads cells off the offset-diagonal corridor
    ``lo <= qj - ti <= hi`` as 0, as a kernel that never writes them
    leaves them.
    """
    if end_ti >= dirmat.shape[0] or end_qj >= dirmat.shape[1]:
        raise AlignmentError(
            f"traceback start ({end_ti},{end_qj}) outside matrix {dirmat.shape}"
        )
    # Read cells as bytes of a flat view spanning the matrix: cell
    # (ti, qj) sits at ti*s0 + qj*s1.
    s0, s1 = dirmat.strides
    span = (dirmat.shape[0] - 1) * s0 + (dirmat.shape[1] - 1) * s1 + 1
    buf = memoryview(as_strided(dirmat, shape=(span,), strides=(1,)))
    lo, hi = band if band is not None else (-end_ti - 1, end_qj + 1)
    runs: List[Tuple[int, str]] = []  # (length, op), last op first

    def emit(k: int, op: str) -> None:
        if runs and runs[-1][1] == op:
            runs[-1] = (runs[-1][0] + k, op)
        else:
            runs.append((k, op))

    ti, qj = end_ti, end_qj
    while ti >= 0 and qj >= 0:
        # State M: follow diagonal sources down offset diagonal qj - ti
        # (off the band every cell reads as one) to the first gap source.
        k, kmax = 0, min(ti, qj) + 1
        src = SRC_DIAG
        if lo <= qj - ti <= hi:
            pos, step = ti * s0 + qj * s1, s0 + s1
            while k < kmax:
                src = buf[pos] & SRC_MASK
                if src != SRC_DIAG:
                    break
                pos -= step
                k += 1
        else:
            k = kmax
        if k:
            ti -= k
            qj -= k
            emit(k, "M")
        if src == SRC_DIAG:  # ran off the top/left edge
            break
        k = 0
        pos = ti * s0 + qj * s1
        if src == SRC_E:  # D while the cell above continues the E chain
            while True:
                k += 1
                ti -= 1
                pos -= s0
                if not (ti >= 0 and lo <= qj - ti <= hi and buf[pos] & X_CONT):
                    break
            emit(k, "D")
        else:  # I while the cell to the left continues the F chain
            while True:
                k += 1
                qj -= 1
                pos -= s1
                if not (qj >= 0 and lo <= qj - ti <= hi and buf[pos] & Y_CONT):
                    break
            emit(k, "I")
    # One of the coordinates ran off the top/left edge: the rest is gap.
    if qj >= 0:
        emit(qj + 1, "I")
    if ti >= 0:
        emit(ti + 1, "D")
    return Cigar(runs[::-1])
