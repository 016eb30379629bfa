"""The vectorized DRAM window model equals the per-window reference loop.

:meth:`DramModel._channel_busy_beats` prices every reorder window at
once (sort, group maxima, bincounts); ``_dram_reference`` keeps the
original loop over windows.  Every simulated timing in the harness
rests on this model, so equality here is exact -- ``==`` on the float
beats, the activation counts and every ``TraceTiming`` field -- not
approximate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.dram import DramModel
from repro.gpu.specs import GEFORCE_8800_GT, GEFORCE_8800_GTS, GEFORCE_8800_GTX
from repro.harness import experiments

from tests.gpu._dram_reference import ReferenceDramModel, record_traces

#: 4 channels (12-transaction windows) and 6 channels (8-transaction).
DEVICES = (GEFORCE_8800_GT, GEFORCE_8800_GTS, GEFORCE_8800_GTX)
IDS = [d.name for d in DEVICES]


def window_size(device) -> int:
    return max(4, round(device.dram.reorder_window_total / device.n_channels))


def assert_same_channel(device, addrs, sizes):
    addrs = np.asarray(addrs, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    got = DramModel(device)._channel_busy_beats(addrs, sizes)
    want = ReferenceDramModel(device)._channel_busy_beats(addrs, sizes)
    assert got == want
    assert type(got[0]) is float and type(got[1]) is int


def assert_same_timing(device, addrs, sizes):
    got = DramModel(device).evaluate(addrs, sizes)
    want = ReferenceDramModel(device).evaluate(addrs, sizes)
    assert got == want  # every dataclass field, channel_beats included
    assert got.efficiency == want.efficiency  # not a field


def raw_chunks_in_bank(device, bank: int, count: int) -> np.ndarray:
    """The first ``count`` channel-local row indices that hash to ``bank``."""
    t = device.dram
    raw = np.arange(64 * count * t.n_banks, dtype=np.int64)
    row = raw // t.n_banks
    hashed = (raw ^ row ^ (row >> 3) ^ (row >> 6)) % t.n_banks
    return raw[hashed == bank][:count]


def raw_to_addr(device, raw: np.ndarray) -> np.ndarray:
    """Channel-local addresses whose row index is ``raw``."""
    t = device.dram
    chunks_per_row = t.row_bytes // t.interleave_bytes
    return raw * chunks_per_row * t.interleave_bytes * device.n_channels


@pytest.mark.parametrize("device", DEVICES, ids=IDS)
class TestEdgeCases:
    def test_single_transaction(self, device):
        assert_same_channel(device, [4096], [128])
        assert_same_timing(device, [4096], [128])

    @pytest.mark.parametrize("extra", [1, 3, 5])
    def test_length_not_a_multiple_of_the_window(self, device, extra):
        w = window_size(device)
        rng = np.random.default_rng(extra)
        n = 7 * w + extra
        addrs = rng.integers(0, 1 << 26, n) // 64 * 64
        assert_same_channel(device, addrs, np.full(n, 64))

    def test_every_request_on_one_row(self, device):
        rng = np.random.default_rng(1)
        span = device.dram.row_bytes * device.n_channels
        addrs = rng.integers(0, span, 1000) // 32 * 32
        assert_same_channel(device, addrs, np.full(1000, 32))
        assert_same_channel(device, np.zeros(50, np.int64), np.full(50, 128))

    def test_every_request_on_one_bank(self, device):
        rng = np.random.default_rng(2)
        raws = raw_chunks_in_bank(device, 3, 20)
        addrs = raw_to_addr(device, rng.choice(raws, 997))
        assert_same_channel(device, addrs, np.full(997, 128))

    def test_rows_alternating_across_window_boundaries(self, device):
        w = window_size(device)
        a, b = raw_to_addr(device, raw_chunks_in_bank(device, 5, 2))
        # Whole windows alternating A, B: every window re-activates.
        alternating = np.repeat(np.tile([a, b], 10), w)
        # A row continuing across a boundary stays open (a hit).
        straddling = np.concatenate([np.full(w + w // 2, a), np.full(w, b)])
        # A window opening A and B leaves B open: A next window misses.
        both = np.concatenate([[a, b] * (w // 2), np.full(w, a), np.full(3, b)])
        for addrs in (alternating, straddling, both):
            assert_same_channel(device, addrs, np.full(len(addrs), 64))

    def test_negative_row_ids_are_ignored_like_padding(self, device):
        addrs = np.array([-(1 << 24), 0, 1 << 22, -(1 << 20), 1 << 24])
        assert_same_channel(device, addrs, np.full(5, 64))


@pytest.mark.parametrize("device", DEVICES, ids=IDS)
@pytest.mark.parametrize("seed", range(8))
def test_seeded_random_traces(device, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20_000))
    span = int(rng.choice([1 << 14, 1 << 18, 1 << 22, 1 << 29]))
    addrs = rng.integers(0, span, n) // 32 * 32
    # Mix in sequential runs so rows stay open across windows too.
    runs = rng.random(n) < 0.5
    addrs[runs] = np.sort(addrs[runs])
    sizes = rng.choice([32, 64, 128], n)
    assert_same_timing(device, addrs, sizes)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(DEVICES),
    st.lists(
        st.tuples(st.integers(0, 1 << 27), st.sampled_from([32, 64, 128])),
        min_size=1,
        max_size=300,
    ),
)
def test_hypothesis_traces(device, txns):
    addrs = [a for a, _ in txns]
    sizes = [s for _, s in txns]
    assert_same_timing(device, addrs, sizes)
    assert_same_channel(device, addrs, sizes)


def test_every_table4_trace():
    traces = record_traces(lambda: experiments.run_experiment("table4"))
    assert len(traces) > 10
    for device, addrs, sizes in traces:
        assert_same_timing(device, addrs, sizes)
