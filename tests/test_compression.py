"""FPC compression tests (trace transform + experiment)."""

import pytest

from repro.core.compression import (
    COMPRESSION_LATENCY_CYCLES,
    compress_record,
    compress_trace,
)
from repro.noc.packet import PacketClass
from repro.traffic.traces import TraceRecord


class TestTraceTransform:
    def _data_record(self, groups):
        return TraceRecord(cycle=10, src=0, dst=5, klass=PacketClass.DATA,
                           payload_groups=tuple(groups))

    def test_short_flit_heavy_record_shrinks(self):
        record = self._data_record([1, 1, 1, 1, 1])  # all-short payload
        compressed = compress_record(record)
        # 4 live words (128 b) + 16 prefixes (48 b) = 176 b -> 2 payload
        # flits + header.
        assert compressed.size_flits == 3
        assert compressed.payload_groups == (1, 4, 4)

    def test_dense_record_keeps_five_flits(self):
        record = self._data_record([1, 4, 4, 4, 4])
        compressed = compress_record(record)
        assert compressed.size_flits == 5

    def test_compression_latency_added(self):
        record = self._data_record([1, 1, 1, 1, 1])
        assert compress_record(record).cycle == 10 + COMPRESSION_LATENCY_CYCLES

    def test_ctrl_records_untouched(self):
        record = TraceRecord(cycle=3, src=0, dst=5, klass=PacketClass.CTRL)
        assert compress_record(record) is record

    def test_compress_trace_sorted_and_smaller(self):
        records = [
            self._data_record([1, 1, 1, 1, 1]),
            TraceRecord(cycle=11, src=1, dst=4, klass=PacketClass.CTRL),
            self._data_record([1, 4, 1, 4, 1]),
        ]
        records.sort(key=lambda r: r.cycle)
        compressed = compress_trace(records)
        cycles = [r.cycle for r in compressed]
        assert cycles == sorted(cycles)
        assert sum(r.size_flits for r in compressed) < sum(
            r.size_flits for r in records
        )


class TestExperiment:
    def test_compression_vs_shutdown_shapes(self, tiny_settings):
        from repro.experiments.compression_exp import compression_vs_shutdown

        results = compression_vs_shutdown(tiny_settings, workload="multimedia")
        base = results["baseline"]
        shut = results["shutdown"]
        fpc = results["fpc"]
        # Shutdown cuts power, not latency.
        assert shut.total_power_w < base.total_power_w
        assert shut.avg_latency == pytest.approx(base.avg_latency, rel=0.02)
        # Compression cuts both packet length (latency) and power.
        assert fpc.avg_latency < base.avg_latency
        assert fpc.total_power_w < base.total_power_w

    def test_unknown_workload_rejected(self, tiny_settings):
        from repro.experiments.compression_exp import compression_vs_shutdown

        with pytest.raises(ValueError):
            compression_vs_shutdown(tiny_settings, workload="nope")
