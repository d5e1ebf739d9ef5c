"""Cross-read wavefront batch kernel: bit-identity to per-pair manymap.

The batched kernel's contract is total: for every pair the score, end
cell, CIGAR, evaluated-cell count, z-drop flag, *and* the deterministic
counters must equal a per-pair :func:`align_manymap` call — no matter
how pairs are grouped into buckets. That invariant is what lets the
dispatch layer regroup jobs freely across backends and chunk shapes
without perturbing PAF output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import MAP_ONT, MAP_PB, SIMPLE, Scoring, align_manymap
from repro.align.wavefront_batch import align_wavefront, align_wavefront_batch
from repro.errors import AlignmentError
from repro.obs.counters import COUNTERS, counter_delta, drop_shape_dependent
from repro.seq.alphabet import encode, random_codes

SC = Scoring(match=2, mismatch=4, q=4, e=2)
#: A mismatch dearer than two gap openings: band-edge cells then take
#: their score from a gap, and traceback steps off the band.
GAPPY = Scoring(match=1, mismatch=9, q=1, e=1)


def assert_same(got, want, label=""):
    assert got.score == want.score, label
    assert (got.end_t, got.end_q) == (want.end_t, want.end_q), label
    assert got.cells == want.cells, label
    assert got.zdropped == want.zdropped, label
    assert str(got.cigar) == str(want.cigar), label


def per_pair(pairs, mode="global", path=False, zdrop=None, bands=None):
    out = []
    for i, (t, q) in enumerate(pairs):
        kwargs = {}
        if zdrop is not None:
            kwargs["zdrop"] = zdrop
        if bands is not None and bands[i] is not None:
            kwargs["band"] = bands[i]
        out.append(align_manymap(t, q, SC, mode=mode, path=path, **kwargs))
    return out


codes = st.integers(0, 60).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)
)
pair_lists = st.lists(st.tuples(codes, codes), min_size=1, max_size=8)


def to_pairs(raw):
    return [
        (np.array(t, dtype=np.uint8), np.array(q, dtype=np.uint8))
        for t, q in raw
    ]


class TestBatchIdentity:
    @given(pair_lists, st.sampled_from(["global", "extend"]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair(self, raw, mode, path):
        pairs = to_pairs(raw)
        want = per_pair(pairs, mode=mode, path=path)
        got = align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], SC,
            mode=mode, path=path,
        )
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"pair {i} mode={mode} path={path}")

    @given(pair_lists, st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_bands_match_per_pair(self, raw, data):
        pairs = to_pairs(raw)
        bands = [
            data.draw(st.one_of(st.none(), st.integers(1, 16)))
            for _ in pairs
        ]
        want = per_pair(pairs, mode="extend", path=True, bands=bands)
        got = align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], SC,
            mode="extend", path=True, bands=bands,
        )
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"pair {i} band={bands[i]}")

    @given(pair_lists, st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_grouping_independence(self, raw, seed):
        """Results (and deterministic counters) ignore bucket composition."""
        pairs = to_pairs(raw)
        ts = [t for t, _ in pairs]
        qs = [q for _, q in pairs]
        whole = align_wavefront_batch(ts, qs, SC, mode="global", path=True)
        rng = np.random.default_rng(seed)
        cut = int(rng.integers(0, len(pairs) + 1))
        order = rng.permutation(len(pairs))
        parts = [order[:cut], order[cut:]]
        regrouped = [None] * len(pairs)
        for part in parts:
            if not len(part):
                continue
            out = align_wavefront_batch(
                [ts[i] for i in part], [qs[i] for i in part], SC,
                mode="global", path=True,
            )
            for i, res in zip(part, out):
                regrouped[i] = res
        for i, (g, w) in enumerate(zip(regrouped, whole)):
            assert_same(g, w, f"pair {i} cut={cut}")

    def test_counters_match_per_pair(self):
        pairs = [
            (random_codes(80, seed=i), random_codes(75, seed=100 + i))
            for i in range(6)
        ]
        bands = [8, None, 12, 8, None, 20]
        before = COUNTERS.totals()
        per_pair(pairs, mode="extend", bands=bands)
        solo = counter_delta(COUNTERS.totals(), before)
        before = COUNTERS.totals()
        align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], SC,
            mode="extend", bands=bands,
        )
        batched = counter_delta(COUNTERS.totals(), before)
        # Deterministic counters identical; only wavefront.* telemetry
        # (absent from the per-pair run) depends on the batching.
        assert drop_shape_dependent(batched) == drop_shape_dependent(solo)
        assert batched["wavefront.lanes"] == len(pairs)

    def test_single_lane_adapter(self):
        t = encode("ACGTACGTACGT")
        q = encode("ACGTACGAACGT")
        assert_same(
            align_wavefront(t, q, SC, path=True),
            align_manymap(t, q, SC, path=True),
        )

    def test_degenerate_lanes_in_batch(self):
        empty = np.empty(0, dtype=np.uint8)
        t = encode("ACGTACGT")
        ts = [t, empty, t, empty]
        qs = [empty, t, t.copy(), empty]
        want = per_pair(list(zip(ts, qs)), path=True)
        got = align_wavefront_batch(ts, qs, SC, mode="global", path=True)
        for g, w in zip(got, want):
            assert_same(g, w)


@st.composite
def lane(draw, max_len=48):
    """One (target, query, band) lane: unrelated, or a mutated copy of
    the target with an optional divergent tail (to trip z-drop)."""
    m = draw(st.integers(0, max_len))
    t = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    if draw(st.booleans()):
        n = draw(st.integers(0, max_len))
        q = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    else:
        q = list(t)
        for pos in draw(st.lists(st.integers(0, max(0, m - 1)), max_size=4)):
            if pos < len(q):
                q[pos] = (q[pos] + 1) % 4
        cut = draw(st.integers(0, m))
        tail = draw(st.lists(st.integers(0, 3), max_size=max_len - cut))
        q = q[:cut] + tail
    band = draw(st.one_of(st.none(), st.integers(0, 12)))
    return (
        np.array(t, dtype=np.uint8),
        np.array(q, dtype=np.uint8),
        band,
    )


class TestDifferential:
    """Mixed-shape batches against per-pair manymap, counters included."""

    @given(
        st.lists(lane(), min_size=1, max_size=12),
        st.sampled_from([MAP_PB, MAP_ONT, SIMPLE, GAPPY]),
        st.sampled_from(["global", "extend"]),
        st.booleans(),
        st.one_of(st.none(), st.integers(1, 40)),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_per_pair(self, lanes, scoring, mode, path, zdrop, narrow):
        if mode == "global":
            zdrop = None
        if narrow:  # every query at most one base long: Nmax <= 1
            lanes = [(t, q[:1], b) for t, q, b in lanes]
        ts = [t for t, _, _ in lanes]
        qs = [q for _, q, _ in lanes]
        bands = [b for _, _, b in lanes]
        before = COUNTERS.totals()
        want = []
        for t, q, band in lanes:
            kwargs = {"zdrop": zdrop} if zdrop is not None else {}
            if band is not None:
                kwargs["band"] = band
            want.append(
                align_manymap(t, q, scoring, mode=mode, path=path, **kwargs)
            )
        solo = drop_shape_dependent(counter_delta(COUNTERS.totals(), before))
        before = COUNTERS.totals()
        got = align_wavefront_batch(
            ts, qs, scoring, mode=mode, path=path, zdrop=zdrop, bands=bands
        )
        batched = drop_shape_dependent(counter_delta(COUNTERS.totals(), before))
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"lane {i} band={bands[i]}")
        assert batched == solo

    @pytest.mark.parametrize("mode", ["global", "extend"])
    def test_traceback_off_band_cells(self, mode):
        """Under GAPPY, narrow-band traceback steps off the corridor; the
        batch must read those cells as the per-pair kernel leaves them."""
        pairs = [
            (random_codes(40 + i, seed=i), random_codes(30 + i, seed=1000 + i))
            for i in range(40)
        ]
        bands = [i % 4 for i in range(40)]
        got = align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], GAPPY,
            mode=mode, path=True, bands=bands,
        )
        for i, ((t, q), g) in enumerate(zip(pairs, got)):
            w = align_manymap(t, q, GAPPY, mode=mode, path=True, band=bands[i])
            assert_same(g, w, f"lane {i}")

    def test_retirement_compacts_mixed_batch(self):
        """Retired and finished lanes compact away mid-sweep."""
        pairs = TestZdropRetirement._divergent_pairs(n_pairs=6, tail=200)
        for i in range(4):
            clean = random_codes(300 + 20 * i, seed=70 + i)
            pairs.append((clean, clean[: 280 + 10 * i].copy()))
        bands = [None, 30, None, 30, None, 30, 40, None, 40, None]
        want = per_pair(pairs, mode="extend", path=True, zdrop=50, bands=bands)
        before = COUNTERS.totals()
        got = align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], SC,
            mode="extend", path=True, zdrop=50, bands=bands,
        )
        delta = counter_delta(COUNTERS.totals(), before)
        assert delta["wavefront.lanes_retired"] >= 6  # > half: compacts
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"lane {i}")


class TestZdropRetirement:
    """Acceptance: retiring hopeless lanes must cut dp_cells, not output."""

    @staticmethod
    def _divergent_pairs(n_pairs=6, prefix_len=150, tail=600):
        pairs = []
        for i in range(n_pairs):
            prefix = random_codes(prefix_len, seed=50 + i)
            t = np.concatenate([prefix, random_codes(tail, seed=200 + i)])
            q = np.concatenate([prefix, random_codes(tail, seed=300 + i)])
            pairs.append((t, q))
        return pairs

    def test_retirement_reduces_dp_cells(self):
        pairs = self._divergent_pairs()
        ts = [t for t, _ in pairs]
        qs = [q for _, q in pairs]
        before = COUNTERS.totals()
        full = align_wavefront_batch(ts, qs, SC, mode="extend")
        no_zdrop = counter_delta(COUNTERS.totals(), before)
        before = COUNTERS.totals()
        dropped = align_wavefront_batch(ts, qs, SC, mode="extend", zdrop=50)
        with_zdrop = counter_delta(COUNTERS.totals(), before)
        assert with_zdrop["wavefront.lanes_retired"] >= 1
        assert with_zdrop["dp_cells"] < no_zdrop["dp_cells"]
        # Retirement keeps the strong-prefix result of every lane.
        for f, d in zip(full, dropped):
            assert d.zdropped and d.cells < f.cells
            assert d.score >= 150 * 2 * 0.8

    def test_zdrop_output_matches_per_pair(self):
        pairs = self._divergent_pairs()
        want = per_pair(pairs, mode="extend", zdrop=50)
        got = align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], SC,
            mode="extend", zdrop=50,
        )
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"pair {i}")

    def test_clean_lanes_survive_alongside_retired(self):
        clean = random_codes(400, seed=9)
        pairs = self._divergent_pairs(n_pairs=3) + [(clean, clean.copy())]
        got = align_wavefront_batch(
            [t for t, _ in pairs], [q for _, q in pairs], SC,
            mode="extend", zdrop=50,
        )
        assert not got[-1].zdropped
        assert got[-1].score == 800


class TestBatchValidation:
    def test_length_mismatch(self):
        t = encode("ACGT")
        with pytest.raises(AlignmentError, match="batch size mismatch"):
            align_wavefront_batch([t, t], [t], SC)

    def test_bad_mode(self):
        t = encode("ACGT")
        with pytest.raises(AlignmentError, match="unknown mode"):
            align_wavefront_batch([t], [t], SC, mode="sideways")

    def test_zdrop_rejected_in_global(self):
        t = encode("ACGT")
        with pytest.raises(AlignmentError, match="zdrop"):
            align_wavefront_batch([t], [t], SC, mode="global", zdrop=10)

    def test_bands_length_mismatch(self):
        t = encode("ACGT")
        with pytest.raises(AlignmentError, match="bands length"):
            align_wavefront_batch([t, t], [t, t], SC, bands=[5])
