"""``chain_anchors`` against a per-anchor reference scan.

The oracle below is the straightforward form of the chaining DP: for
each anchor it scans the ``max_pred`` preceding anchors with a handful
of NumPy calls and keeps the first strict maximum. ``chain_anchors``
builds the same terms as a tiled 2-D predecessor block; its chains,
anchors and scores must equal the oracle's exactly (scores with ``==``).
"""

import tracemalloc
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import chain as chain_mod
from repro.chain.anchors import collect_anchors
from repro.chain.chain import Chain, ChainParams, chain_anchors
from repro.core.presets import PRESETS
from repro.errors import ChainError
from repro.index.index import build_index
from repro.sim.errors import PACBIO_CLR, apply_errors


def _oracle_gap_cost(dd: np.ndarray, avg_len: float) -> np.ndarray:
    cost = np.zeros_like(dd, dtype=np.float64)
    pos = dd > 0
    ddp = dd[pos].astype(np.float64)
    cost[pos] = 0.01 * avg_len * ddp + 0.5 * np.log2(ddp)
    return cost


def oracle_chain_anchors(rid, tpos, qpos, strand, params: ChainParams) -> List[Chain]:
    """Per-anchor chaining DP plus the greedy chain extraction."""
    n = int(tpos.size)
    if n == 0:
        return []
    f = np.full(n, float(params.k), dtype=np.float64)
    pred = np.full(n, -1, dtype=np.int64)
    h = params.max_pred
    for i in range(1, n):
        j0 = max(0, i - h)
        js = slice(j0, i)
        same = (rid[js] == rid[i]) & (strand[js] == strand[i])
        dt = tpos[i] - tpos[js]
        dq = qpos[i] - qpos[js]
        dd = np.abs(dt - dq)
        ok = (
            same
            & (dt > 0)
            & (dq > 0)
            & (dt <= params.max_dist_t)
            & (dq <= params.max_dist_q)
            & (dd <= params.bandwidth)
        )
        if not ok.any():
            continue
        match = np.minimum(np.minimum(dq, dt), params.k).astype(np.float64)
        cand = f[js] + match - _oracle_gap_cost(dd, params.k)
        cand = np.where(ok, cand, -np.inf)
        best_j = int(np.argmax(cand))
        if cand[best_j] > f[i]:
            f[i] = cand[best_j]
            pred[i] = j0 + best_j

    order = np.argsort(-f, kind="stable")
    used = np.zeros(n, dtype=bool)
    chains: List[Chain] = []
    for i0 in order:
        if used[i0] or f[i0] < params.min_score:
            continue
        trail = []
        i = int(i0)
        cut_score = 0.0
        while i != -1:
            if used[i]:
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
    return chains


def assert_same_chains(got: List[Chain], want: List[Chain]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.rid, g.strand) == (w.rid, w.strand)
        assert g.score == w.score
        assert g.anchors == w.anchors


def make_sorted(rid, tpos, qpos, strand):
    order = np.lexsort((qpos, tpos, strand, rid))
    return rid[order], tpos[order], qpos[order], strand[order]


def diagonal_anchors(rng, n, n_rids, spacing, span):
    """Noisy diagonals on ``n_rids`` references and both strands.

    Small ``spacing`` packs anchors closer than ``k`` so several
    predecessors score the same; a small ``span`` forces repeated
    ``tpos``/``qpos`` values (``dt == 0``).
    """
    rid = rng.integers(0, n_rids, n)
    strand = rng.integers(0, 2, n)
    tpos = np.cumsum(rng.integers(0, spacing + 1, n)) % span
    qpos = np.clip(tpos + rng.integers(-3, 4, n), 0, None)
    return make_sorted(rid, tpos.astype(np.int64), qpos.astype(np.int64), strand)


PARAM_SETS = [
    ChainParams(k=10, min_score=15, min_count=2, bandwidth=200, max_pred=1),
    ChainParams(k=10, min_score=15, min_count=2, bandwidth=200, max_pred=2),
    ChainParams(k=10, min_score=15, min_count=2, bandwidth=200, max_pred=5),
    ChainParams(k=10, min_score=10, min_count=2, bandwidth=20, max_pred=5,
                max_dist_t=40, max_dist_q=40, max_chains=3),
] + [p.chain for p in PRESETS.values()]


class TestOracleIdentity:
    @given(
        st.sampled_from(PARAM_SETS),
        st.integers(0, 2**32 - 1),
        st.integers(1, 160),
        st.integers(1, 3),
        st.sampled_from([1, 4, 12, 40]),
        st.sampled_from([8, 300, 5000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, params, seed, n, n_rids, spacing, span):
        rng = np.random.default_rng(seed)
        arrays = diagonal_anchors(rng, n, n_rids, spacing, span)
        assert_same_chains(
            chain_anchors(*arrays, params), oracle_chain_anchors(*arrays, params)
        )

    @given(
        st.sampled_from(PARAM_SETS),
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 1),
                st.integers(0, 400), st.integers(0, 400),
            ),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_arbitrary(self, params, rows):
        rid, strand, tpos, qpos = (np.array(c, dtype=np.int64) for c in zip(*rows))
        arrays = make_sorted(rid, tpos, qpos, strand)
        assert_same_chains(
            chain_anchors(*arrays, params), oracle_chain_anchors(*arrays, params)
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_oracle_on_mapped_read(self, name, small_genome):
        preset = PRESETS[name]
        index = build_index(small_genome, k=preset.k, w=preset.w)
        codes = small_genome.fetch("chr1", 3000, 9000)
        read, _ = apply_errors(codes, PACBIO_CLR, seed=5)
        arrays = collect_anchors(read, index, as_arrays=True)
        want = oracle_chain_anchors(*arrays, preset.chain)
        assert want
        assert_same_chains(chain_anchors(*arrays, preset.chain), want)


class TestTiles:
    # Tile 7: n a multiple of the tile and not. Tile 3 < max_pred puts
    # padding columns in a second tile too.
    @pytest.mark.parametrize("tile,n", [(7, 7 * 9), (7, 7 * 9 + 3), (3, 7 * 9 + 3)])
    def test_small_tiles_match_untiled(self, monkeypatch, tile, n):
        rng = np.random.default_rng(n)
        arrays = diagonal_anchors(rng, n, 2, 12, 5000)
        params = ChainParams(k=10, min_score=15, min_count=2, max_pred=5)
        untiled = chain_anchors(*arrays, params)
        monkeypatch.setattr(chain_mod, "TILE_ROWS", tile)
        assert_same_chains(chain_anchors(*arrays, params), untiled)
        assert_same_chains(untiled, oracle_chain_anchors(*arrays, params))

    def test_large_read_memory_is_bounded(self):
        """50k anchors at the default tile peak below 64 MB of traced
        allocations (measured 18 MB; the same read untiled peaks near
        150 MB)."""
        rng = np.random.default_rng(0)
        arrays = diagonal_anchors(rng, 50_000, 1, 20, 10**9)
        tracemalloc.start()
        try:
            chains = chain_anchors(*arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chains
        assert peak < 64 * 2**20


class TestSortedness:
    def test_qpos_out_of_order_within_equal_keys_raises(self):
        rid = np.zeros(3, dtype=np.int64)
        strand = np.ones(3, dtype=np.int64)
        tpos = np.array([10, 20, 20], dtype=np.int64)
        qpos = np.array([5, 30, 29], dtype=np.int64)
        with pytest.raises(ChainError, match="sorted"):
            chain_anchors(rid, tpos, qpos, strand)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 1),
                st.integers(0, 5), st.integers(0, 5),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rejects_exactly_the_unsorted(self, rows):
        rid, strand, tpos, qpos = (np.array(c, dtype=np.int64) for c in zip(*rows))
        is_sorted = rows == sorted(rows)
        try:
            chain_anchors(rid, tpos, qpos, strand)
        except ChainError:
            assert not is_sorted
        else:
            assert is_sorted
