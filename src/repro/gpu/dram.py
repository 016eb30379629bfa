"""GDDR memory-system timing model.

"Modern GPUs employ GDDR memories which are optimized for successive
memory access operations, incurring heavy relative penalties for
non-successive accesses" (Section 2.1).  The mechanisms behind that
sentence, modeled here per 64-bit channel:

* addresses interleave across channels at ``interleave_bytes`` granularity;
* each channel has ``n_banks`` banks, each with one open 2 KB row; hitting
  a closed row costs an *activation*;
* the controller reorders within a ``reorder_window``-transaction queue,
  so same-row requests inside a window are served together;
* activations to different banks pipeline no faster than one per
  ``t_rrd_beats``; re-activations of the *same* bank serialize at
  ``t_rc_beats``;
* even a perfectly sequential stream only realizes
  ``stream_utilization`` of pin bandwidth (refresh, turnaround, command
  overhead).

Per window the channel busy time is
``max(data_beats, activations * t_rrd, max_per_bank_activations * t_rc)``
and kernel bandwidth follows from the slowest channel.

All windows of a channel are priced at once, with no loop over windows.
The only state one window hands the next is each bank's open row, and
that row is a group maximum: the highest row id the bank served in its
latest window with requests.  So, with a window's distinct
``(window, rowid)`` pairs ordered by ``(bank, window, rowid)``, the last
pair of each ``(bank, window)`` group is the open row the bank's next
group sees, a pair whose row equals it is a hit, and ``bincount`` turns
the misses into per-window activation counts and per-bank maxima.  The
per-window busy times are then added with ``np.cumsum``, one window after
another like a running total; ``np.sum`` adds pairwise and could round
differently.  The loop version lives on in the tests as the reference
these results must equal exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.specs import DeviceSpec, DramTimings

__all__ = ["TraceTiming", "DramModel"]


@dataclass(frozen=True)
class TraceTiming:
    """Result of evaluating a transaction trace against the DRAM model."""

    #: Total bytes represented by the evaluated trace.
    trace_bytes: int
    #: Busy time of the slowest channel, in beats.
    beats: float
    #: Seconds corresponding to ``beats``.
    seconds: float
    #: Effective bandwidth of the traced access mix, bytes/s.
    bandwidth: float
    #: Total row activations (all channels).
    activations: int
    #: Per-channel busy beats (diagnostics).
    channel_beats: tuple[float, ...]

    @property
    def efficiency(self) -> float:
        """Bandwidth as a fraction of the device's raw pin bandwidth."""
        return self._efficiency

    def __post_init__(self) -> None:  # computed in DramModel.evaluate
        object.__setattr__(self, "_efficiency", 0.0)


class DramModel:
    """Evaluates transaction traces for one device's memory system."""

    def __init__(self, device: DeviceSpec):
        self.device = device
        self.timings: DramTimings = device.dram
        self.n_channels = device.n_channels
        #: Beats per second = effective transfer rate.
        self.beat_rate = device.mem_clock_mtps * 1e6

    def _channel_busy_beats(self, addrs: np.ndarray, sizes: np.ndarray) -> tuple[float, int]:
        """Busy beats and activation count for one channel's trace."""
        t = self.timings
        if len(addrs) == 0:
            return 0.0, 0
        # Channel-local chunk -> (bank, row).  The bank index XORs in low
        # row bits (controllers hash banks to break power-of-two stride
        # camping); ``rowid`` re-encodes (row, bank) uniquely.
        chunks_per_row = t.row_bytes // t.interleave_bytes
        local_chunk = addrs // (t.interleave_bytes * self.n_channels)
        raw = local_chunk // chunks_per_row
        row = raw // t.n_banks
        bank = ((raw ^ row ^ (row >> 3) ^ (row >> 6)) % t.n_banks).astype(np.int64)
        rowid = row * t.n_banks + bank  # unique per (bank, row)

        w = max(4, round(t.reorder_window_total / self.n_channels))
        n = len(addrs)
        n_windows = (n + w - 1) // w
        pad = n_windows * w - n
        if pad:
            rowid = np.concatenate([rowid, np.full(pad, -1, dtype=rowid.dtype)])
            sizes = np.concatenate([sizes, np.zeros(pad, dtype=sizes.dtype)])
        data_beats_w = sizes.reshape(n_windows, w).sum(axis=1) / (
            t.channel_bytes * t.stream_utilization
        )

        # Each window's distinct row ids in ascending order (padding, -1,
        # sorts first and is dropped), flattened window by window; a
        # stable sort by bank then orders them by (bank, window, rowid).
        # The bank is cast to the narrowest dtype that holds it so the
        # stable sort is a radix sort: 4-8x faster than on int64, ~25x
        # faster than np.lexsort over (rowid, window, bank).
        rows = np.sort(rowid.reshape(n_windows, w), axis=1)
        fresh = rows >= 0
        fresh[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        window = np.nonzero(fresh)[0]
        rowid = rows[fresh]
        bank = rowid % t.n_banks
        order = np.argsort(
            bank.astype(np.min_scalar_type(t.n_banks - 1)), kind="stable"
        )
        window, rowid, bank = window[order], rowid[order], bank[order]

        # The row left open in each bank is the last one the controller
        # served; with in-window reordering we take the highest row id
        # (any consistent choice only shifts boundaries by one row).  That
        # is the last entry of each (bank, window) group, and it is the
        # open row the bank's next group sees.
        last = np.ones(len(rowid), dtype=bool)
        last[:-1] = (bank[1:] != bank[:-1]) | (window[1:] != window[:-1])
        group = np.cumsum(last) - last  # group index of every entry
        open_max, open_bank = rowid[last], bank[last]
        seen = np.full(len(open_max), -1, dtype=np.int64)
        same_bank = open_bank[1:] == open_bank[:-1]
        seen[1:][same_bank] = open_max[:-1][same_bank]
        # A bank whose open row is requested again costs no activation.
        act = rowid != seen[group]
        acts_w = np.bincount(window[act], minlength=n_windows)
        group_acts = np.bincount(group[act], minlength=len(open_max))
        max_bank_acts = np.zeros(n_windows, dtype=np.int64)
        np.maximum.at(max_bank_acts, window[last], group_acts)

        beats_w = np.maximum(
            data_beats_w,
            np.maximum(acts_w * t.t_rrd_beats, max_bank_acts * t.t_rc_beats),
        )
        # cumsum adds in window order, like a running total (``sum`` would
        # add pairwise and could differ in the last bits).
        return float(np.cumsum(beats_w)[-1]), int(acts_w.sum())

    def evaluate(self, addrs: np.ndarray, sizes: np.ndarray) -> TraceTiming:
        """Time a transaction trace (time order = array order).

        Returns the busy time of the slowest channel and the implied
        effective bandwidth for the traced access mix.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if addrs.shape != sizes.shape or addrs.ndim != 1:
            raise ValueError("addrs/sizes must be equal-length 1-D arrays")
        if len(addrs) == 0:
            raise ValueError("empty trace")
        t = self.timings
        # Channel selection hashes higher address bits into the interleave
        # index (NVIDIA partitions do this to break power-of-two stride
        # camping across partitions).
        chunk = addrs // t.interleave_bytes
        folded = (
            chunk
            ^ (chunk >> 3)
            ^ (chunk >> 7)
            ^ (chunk >> 11)
            ^ (chunk >> 15)
            ^ (chunk >> 19)
            ^ (chunk >> 23)
        )
        channel = folded % self.n_channels

        beats = []
        acts_total = 0
        for c in range(self.n_channels):
            sel = channel == c
            b, a = self._channel_busy_beats(addrs[sel], sizes[sel])
            beats.append(b)
            acts_total += a
        worst = max(beats)
        total_bytes = int(sizes.sum())
        if worst <= 0:
            raise ValueError("trace produced zero busy time")
        seconds = worst / self.beat_rate
        timing = TraceTiming(
            trace_bytes=total_bytes,
            beats=worst,
            seconds=seconds,
            bandwidth=total_bytes / seconds,
            activations=acts_total,
            channel_beats=tuple(beats),
        )
        object.__setattr__(
            timing, "_efficiency", timing.bandwidth / self.device.peak_bandwidth
        )
        return timing
