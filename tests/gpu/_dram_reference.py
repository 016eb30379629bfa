"""Reference DRAM window model: the original loop over reorder windows.

:class:`ReferenceDramModel` keeps the straightforward implementation of
:meth:`repro.gpu.dram.DramModel._channel_busy_beats` as the oracle for
the vectorized one: one Python iteration and one ``np.unique`` per
reorder window, carrying the open row of each bank in an array.
``evaluate`` (channel split, bandwidth, ``TraceTiming``) is inherited,
so the two models differ in the window model alone.  It lives only
here: the property tests in ``test_dram_equivalence.py`` and
``benchmarks/bench_sim.py`` compare against it; nothing in ``src`` runs
it.  :func:`record_traces` captures the traces a piece of the harness
evaluates, so both can replay them through either model.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.dram import DramModel

__all__ = ["ReferenceDramModel", "record_traces"]


def record_traces(run) -> list:
    """``(device, addrs, sizes)`` of every trace ``run()`` evaluates."""
    traces = []
    evaluate = DramModel.evaluate

    def record(self, addrs, sizes):
        traces.append((self.device, np.array(addrs), np.array(sizes)))
        return evaluate(self, addrs, sizes)

    DramModel.evaluate = record
    try:
        run()
    finally:
        DramModel.evaluate = evaluate
    return traces


class ReferenceDramModel(DramModel):
    """:class:`DramModel` with the window loop it had before vectorization."""

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
            bank = np.concatenate([bank, np.full(pad, -1, dtype=bank.dtype)])
            sizes = np.concatenate([sizes, np.zeros(pad, dtype=sizes.dtype)])
        rowid = rowid.reshape(n_windows, w)
        bank = bank.reshape(n_windows, w)
        data_beats_w = sizes.reshape(n_windows, w).sum(axis=1) / (
            t.channel_bytes * t.stream_utilization
        )

        open_rows = np.full(t.n_banks, -1, dtype=np.int64)
        total_beats = 0.0
        total_acts = 0
        for wi in range(n_windows):
            rows = rowid[wi]
            rows = rows[rows >= 0]
            if len(rows) == 0:
                total_beats += data_beats_w[wi]
                continue
            uniq = np.unique(rows)  # sorted unique (bank,row) ids
            banks_u = uniq % t.n_banks
            # A bank whose open row is requested again costs no activation.
            hits = open_rows[banks_u] == uniq
            acts_rows = uniq[~hits]
            n_acts = len(acts_rows)
            if n_acts:
                per_bank = np.bincount(
                    acts_rows % t.n_banks, minlength=t.n_banks
                )
                max_bank_acts = int(per_bank.max())
            else:
                max_bank_acts = 0
            # The row left open in each bank is the last one the controller
            # served; with in-window reordering we take the highest row id
            # (any consistent choice only shifts boundaries by one row).
            open_rows[banks_u] = uniq
            total_acts += n_acts
            total_beats += max(
                float(data_beats_w[wi]),
                n_acts * t.t_rrd_beats,
                max_bank_acts * t.t_rc_beats,
            )
        return total_beats, total_acts
