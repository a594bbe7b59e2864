"""FlowLog's column layout: byte order, the NaN-for-None rule, pickling."""

import math
import pickle
import struct

import pytest

import repro.simulator.metrics as metrics_module
from repro.simulator.metrics import (
    DataPacketRecord,
    FlowLog,
    RecoveryPhaseRecord,
)


def _one_packet_log(**fields) -> FlowLog:
    log = FlowLog()
    base = dict(transmission_id=1, seq=258, send_time=1.5)
    base.update(fields)
    log.record_data_send(DataPacketRecord(**base))
    log.record_cwnd(1.5, 2.0, "slow_start")
    return log


class TestByteOrder:
    def test_columns_are_little_endian(self):
        columns = _one_packet_log(arrival_time=1.75).to_columns()
        assert columns["data_packets.seq"] == (258).to_bytes(8, "little")
        assert columns["data_packets.send_time"] == struct.pack("<d", 1.5)
        assert columns["data_packets.arrival_time"] == struct.pack("<d", 1.75)
        assert columns["cwnd_samples.phase"] == b"\x00"
        assert columns["phases"] == ["slow_start"]

    def test_opposite_host_order_is_swapped_both_ways(self, monkeypatch):
        log = _one_packet_log(arrival_time=1.75)
        monkeypatch.setattr(metrics_module, "_BIG_ENDIAN", False)
        unswapped = log.to_columns()
        monkeypatch.setattr(metrics_module, "_BIG_ENDIAN", True)
        swapped = log.to_columns()
        for key in ("data_packets.seq", "data_packets.send_time"):
            assert swapped[key] == unswapped[key][::-1], key
        assert FlowLog.from_columns(swapped) == log


class TestNoneAsNaN:
    def test_none_arrival_round_trips(self):
        log = _one_packet_log(arrival_time=None, dropped=True)
        columns = log.to_columns()
        assert math.isnan(struct.unpack("<d", columns["data_packets.arrival_time"])[0])
        restored = FlowLog.from_columns(columns)
        assert restored.data_packets[0].arrival_time is None
        assert restored.data_packets[0].dropped is True

    def test_real_nan_arrival_is_refused(self):
        log = _one_packet_log(arrival_time=math.nan)
        with pytest.raises(ValueError, match="data_packets.arrival_time"):
            log.to_columns()

    def test_real_nan_end_time_is_refused(self):
        log = FlowLog()
        log.recovery_phases.append(RecoveryPhaseRecord(start_time=1.0, end_time=math.nan))
        with pytest.raises(ValueError, match="recovery_phases.end_time"):
            log.to_columns()


class TestPickle:
    def test_pickles_as_its_columns(self):
        log = _one_packet_log(arrival_time=1.75)
        restored = pickle.loads(pickle.dumps(log))
        assert restored == log
        assert pickle.dumps(restored) == pickle.dumps(log)
        # the rebuild went through the recorder: the index holds the record
        record = restored.data_packets[0]
        assert restored._by_transmission[record.transmission_id] is record
