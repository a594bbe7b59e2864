"""The store codec: a FlowLog survives an entry round trip exactly."""

import copy
import gzip
import hashlib
import json
import pickle
from dataclasses import astuple

from repro.exec import Executor, FlowOutcome, FlowSpec
from repro.hsr import hsr_scenario
from repro.simulator.connection import ConnectionConfig, FlowResult, run_flow
from repro.simulator.metrics import (
    AckRecord,
    DataPacketRecord,
    FlowLog,
    RecoveryPhaseRecord,
    TimeoutRecord,
)
from repro.store import ResultStore, flow_key, store_scope
from repro.store.disk import decode_entry, encode_entry
from repro.store.format import SCHEMA_VERSION, decode_outcome, encode_outcome

KEY = "ab" + "0" * 62
RECORD_LISTS = ("data_packets", "acks", "timeouts", "recovery_phases", "cwnd_samples")
PHASES = ("slow_start", "congestion_avoidance", "fast_recovery", "timeout_recovery")


def round_trip(log: FlowLog) -> FlowLog:
    """``log`` through encode_outcome → entry bytes → decode_outcome."""
    config = ConnectionConfig(duration=2.0)
    spec = FlowSpec(config=config, seed=1, flow_id="format")
    outcome = FlowOutcome(
        index=0,
        spec=spec,
        result=FlowResult(config=config, log=log, duration=2.0),
        trace=None,
    )
    payload = decode_entry(encode_entry(KEY, encode_outcome(outcome)), KEY)
    return decode_outcome(payload, index=0, spec=spec).result.log


def assert_same_log(restored: FlowLog, live: FlowLog) -> None:
    for name in RECORD_LISTS:
        assert [astuple(r) for r in getattr(restored, name)] == [
            astuple(r) for r in getattr(live, name)
        ], name
        # the per-record pickles (what a trace digest hashes) match too,
        # which needs the restored phase strings to be shared
        assert pickle.dumps(getattr(restored, name)) == pickle.dumps(
            getattr(live, name)
        ), name
    assert (restored.delivered_payloads, restored.duplicate_payloads) == (
        live.delivered_payloads,
        live.duplicate_payloads,
    )
    assert pickle.dumps(restored) == pickle.dumps(live)


def hand_built_log() -> FlowLog:
    log = FlowLog(delivered_payloads=3, duplicate_payloads=1)
    log.record_data_send(DataPacketRecord(0, 0, 0.0, 0.1 + 0.2))
    log.record_data_send(DataPacketRecord(1, 1, 0.5))  # in flight at the horizon
    log.record_data_send(DataPacketRecord(2, 2**40, 1e-300, dropped=True))
    log.record_data_drop(2)
    log.record_data_send(
        DataPacketRecord(3, 1, 2.5, 2.75, is_retransmission=True, in_timeout_recovery=True)
    )
    log.record_ack_send(AckRecord(0, 1, 0.35, 0.45))
    log.record_ack_send(AckRecord(1, 1, 0.85, dropped=True, is_duplicate=True))
    log.timeouts.append(TimeoutRecord(2.0, 1, 0, 0.5, 0))
    log.timeouts.append(TimeoutRecord(3.0, 1, 1, 1.0, 0))
    log.recovery_phases.append(RecoveryPhaseRecord(2.0, 2.9, 2, 1, 0))
    log.recovery_phases.append(RecoveryPhaseRecord(3.5))  # still open
    for step, phase in enumerate(PHASES * 2):
        log.record_cwnd(0.25 * step, 1.0 + step, phase)
    return log


class TestRoundTrip:
    def test_empty_log(self):
        log = FlowLog()
        assert_same_log(round_trip(log), log)

    def test_none_arrivals_drops_and_open_phases(self):
        log = hand_built_log()
        restored = round_trip(log)
        assert_same_log(restored, log)
        assert restored.data_packets[1].arrival_time is None
        assert restored.data_packets[2].lost
        assert restored.recovery_phases[1].end_time is None
        assert restored == log

    def test_all_four_cwnd_phases_share_their_strings(self):
        restored = round_trip(hand_built_log())
        assert [s.phase for s in restored.cwnd_samples] == list(PHASES * 2)
        assert len({id(s.phase) for s in restored.cwnd_samples}) == len(PHASES)

    def test_multi_subflow_log(self):
        built = hsr_scenario().build(duration=4.0, seed=4)
        log = run_flow(
            built.config,
            built.data_loss,
            built.ack_loss,
            seed=4,
            redundant_data_loss=copy.deepcopy(built.data_loss),
        ).log
        assert {r.subflow_id for r in log.data_packets} == {0, 1}
        restored = round_trip(log)
        assert_same_log(restored, log)
        for record in restored.data_packets:
            assert restored._by_transmission[record.transmission_id] is record
        for record in restored.acks:
            assert restored._ack_by_transmission[record.transmission_id] is record


class TestSchema:
    def test_schema_2_entry_reads_as_stale_miss(self, tmp_path):
        spec = FlowSpec(scenario=hsr_scenario(), duration=2.0, seed=5, flow_id="old")
        store = ResultStore(tmp_path / "store")
        key = flow_key(spec)
        # a schema-2 entry: the log as JSON rows under the old header
        body = json.dumps(
            {
                "flow_id": "old",
                "attempts": 1,
                "failures": [],
                "result": {"log": {"data_packets": [[0, 0, 0.0, 0.1, False, False, False, 0]]}},
            }
        ).encode()
        digest = hashlib.sha256(body).hexdigest()
        header = json.dumps({"schema": 2, "key": key, "flow_id": "old", "digest": digest})
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(gzip.compress(header.encode() + b"\n" + body))
        assert SCHEMA_VERSION == 3
        assert store.get(key) == (None, False)
        with store_scope(store):
            execution = Executor().run([spec])
        assert execution.report.cache_misses == 1
        assert store.get(key)[0] is not None
        assert not (store.root / "quarantine").exists()
