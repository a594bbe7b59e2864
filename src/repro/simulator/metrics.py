"""Per-flow instrumentation shared by the sender and receiver.

The :class:`FlowLog` records every wire transmission in both
directions, every timeout, every timeout-recovery phase and the
congestion-window trajectory — the complete transport-layer observable
set the paper extracts from its wireshark captures.  The trace layer
(:mod:`repro.traces`) consumes these records verbatim.

Column layout
-------------

:meth:`FlowLog.to_columns` packs a log into typed columns, one per
record field, and :meth:`FlowLog.from_columns` rebuilds it.  This is
the log's one encoding: a FlowLog pickles as its columns, and the
result store keeps the same columns base64-encoded.

* Keys are ``"<list>.<field>"`` (``"data_packets.seq"``, …), each the
  raw bytes of an :class:`array.array`, little-endian on every host:
  ``'q'`` for int fields, ``'d'`` for float fields, ``'B'`` for bool
  fields.  In the ``Optional[float]`` fields (``arrival_time``,
  ``end_time``) NaN stands for None, so a real NaN there is refused.
* ``"cwnd_samples.phase"`` is a ``'B'`` index into ``"phases"``, the
  list of distinct phase strings in order of first use.
* ``"delivered_payloads"`` and ``"duplicate_payloads"`` are plain ints.

The rebuild goes through the log's own recorders, so the transmission
indexes key on the records' own ints and every sample of one phase
shares one string, as in a live run: a rebuilt log pickles to the same
bytes as the log it came from.
"""

from __future__ import annotations

import gc
import math
import sys
from array import array
from dataclasses import dataclass, field, fields
from itertools import starmap
from operator import attrgetter
from typing import Dict, List, Optional

__all__ = [
    "DataPacketRecord",
    "AckRecord",
    "TimeoutRecord",
    "RecoveryPhaseRecord",
    "CwndSample",
    "FlowLog",
]


@dataclass(slots=True)
class DataPacketRecord:
    """One wire transmission of a data segment."""

    transmission_id: int
    seq: int
    send_time: float
    arrival_time: Optional[float] = None
    dropped: bool = False
    is_retransmission: bool = False
    in_timeout_recovery: bool = False
    subflow_id: int = 0

    @property
    def lost(self) -> bool:
        """True only for packets the channel dropped — a packet still in
        flight when the simulation horizon is reached is not lost."""
        return self.dropped

    @property
    def latency(self) -> Optional[float]:
        """One-way delivery time, or None when lost (paper Fig. 1 marks
        these at -1)."""
        if self.arrival_time is None:
            return None
        return self.arrival_time - self.send_time


@dataclass(slots=True)
class AckRecord:
    """One wire transmission of an acknowledgement."""

    transmission_id: int
    ack_seq: int
    send_time: float
    arrival_time: Optional[float] = None
    dropped: bool = False
    is_duplicate: bool = False
    subflow_id: int = 0

    @property
    def lost(self) -> bool:
        """True only for ACKs the channel dropped (not in-flight ones)."""
        return self.dropped

    @property
    def latency(self) -> Optional[float]:
        if self.arrival_time is None:
            return None
        return self.arrival_time - self.send_time


@dataclass(slots=True)
class TimeoutRecord:
    """One retransmission-timer expiry at the sender."""

    time: float
    seq: int
    backoff_exponent: int
    rto_value: float
    sequence_index: int  # which timeout sequence (recovery phase) this belongs to


@dataclass(slots=True)
class RecoveryPhaseRecord:
    """One timeout-recovery phase: first RTO until the resuming ACK.

    The paper's Section III-B quantities map directly:
    ``duration`` (≈5.05 s HSR vs 0.65 s stationary),
    ``retransmissions``/``retransmissions_lost`` (in-recovery loss rate
    ≈27.26%), ``timeouts`` (length of the timeout sequence, E[R]).
    """

    start_time: float
    end_time: Optional[float] = None
    timeouts: int = 0
    retransmissions: int = 0
    retransmissions_lost: int = 0

    @property
    def complete(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def loss_rate(self) -> Optional[float]:
        if self.retransmissions == 0:
            return None
        return self.retransmissions_lost / self.retransmissions


@dataclass(frozen=True, slots=True)
class CwndSample:
    """A (time, cwnd) point with the congestion phase at that instant."""

    time: float
    cwnd: float
    phase: str  # "slow_start" | "congestion_avoidance" | "fast_recovery" | "timeout_recovery"


@dataclass(slots=True)
class FlowLog:
    """Everything observable about one simulated flow."""

    data_packets: List[DataPacketRecord] = field(default_factory=list)
    acks: List[AckRecord] = field(default_factory=list)
    timeouts: List[TimeoutRecord] = field(default_factory=list)
    recovery_phases: List[RecoveryPhaseRecord] = field(default_factory=list)
    cwnd_samples: List[CwndSample] = field(default_factory=list)
    delivered_payloads: int = 0  # unique data sequence numbers that reached the receiver
    duplicate_payloads: int = 0  # extra copies received (spurious-timeout evidence)
    _by_transmission: Dict[int, DataPacketRecord] = field(default_factory=dict)
    _ack_by_transmission: Dict[int, AckRecord] = field(default_factory=dict)

    # -- recording ----------------------------------------------------

    def record_data_send(self, record: DataPacketRecord) -> None:
        self.data_packets.append(record)
        self._by_transmission[record.transmission_id] = record

    def record_data_arrival(self, transmission_id: int, time: float) -> None:
        self._by_transmission[transmission_id].arrival_time = time

    def record_data_drop(self, transmission_id: int) -> None:
        self._by_transmission[transmission_id].dropped = True

    def record_ack_send(self, record: AckRecord) -> None:
        self.acks.append(record)
        self._ack_by_transmission[record.transmission_id] = record

    def record_ack_arrival(self, transmission_id: int, time: float) -> None:
        self._ack_by_transmission[transmission_id].arrival_time = time

    def record_ack_drop(self, transmission_id: int) -> None:
        self._ack_by_transmission[transmission_id].dropped = True

    def record_cwnd(self, time: float, cwnd: float, phase: str) -> None:
        self.cwnd_samples.append(CwndSample(time=time, cwnd=cwnd, phase=phase))

    # -- summary statistics -------------------------------------------

    @property
    def data_sent(self) -> int:
        return len(self.data_packets)

    @property
    def data_lost(self) -> int:
        return sum(1 for record in self.data_packets if record.lost)

    @property
    def acks_sent(self) -> int:
        return len(self.acks)

    @property
    def acks_lost(self) -> int:
        return sum(1 for record in self.acks if record.lost)

    @property
    def data_loss_rate(self) -> float:
        """Lifetime data loss rate p_d (0.0 for an idle flow)."""
        return self.data_lost / self.data_sent if self.data_sent else 0.0

    @property
    def ack_loss_rate(self) -> float:
        """Lifetime ACK loss rate p_a."""
        return self.acks_lost / self.acks_sent if self.acks_sent else 0.0

    def completed_recovery_phases(self) -> List[RecoveryPhaseRecord]:
        return [phase for phase in self.recovery_phases if phase.complete]

    # -- columns ------------------------------------------------------

    def to_columns(self) -> Dict[str, object]:
        """The log as typed columns (see the module docstring).

        Raises :class:`ValueError` on a NaN in a column where NaN
        stands for None.
        """
        phases: Dict[str, int] = {}
        columns: Dict[str, object] = {
            "delivered_payloads": self.delivered_payloads,
            "duplicate_payloads": self.duplicate_payloads,
        }
        for attr, layout in _LAYOUT:
            records = getattr(self, attr)
            for key, name, kind in layout:
                values = list(map(attrgetter(name), records))
                columns[key] = _pack(key, kind, values, phases)
        columns["phases"] = list(phases)
        return columns

    @classmethod
    def from_columns(cls, columns: Dict[str, object]) -> "FlowLog":
        """The log :meth:`to_columns` packed, rebuilt record by record."""
        phases = columns["phases"]
        rows = {
            attr: zip(*[_unpack(columns[key], kind, phases) for key, _, kind in layout])
            for attr, layout in _LAYOUT
        }
        log = cls(
            delivered_payloads=columns["delivered_payloads"],
            duplicate_payloads=columns["duplicate_payloads"],
        )
        # Records hold only numbers and shared strings, so they form no
        # cycles: collecting while thousands of them are built would
        # only rescan the heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            append = log.record_data_send
            for row in rows["data_packets"]:
                append(DataPacketRecord(*row))
            append = log.record_ack_send
            for row in rows["acks"]:
                append(AckRecord(*row))
            log.timeouts = list(starmap(TimeoutRecord, rows["timeouts"]))
            log.recovery_phases = list(starmap(RecoveryPhaseRecord, rows["recovery_phases"]))
            append = log.record_cwnd
            for row in rows["cwnd_samples"]:
                append(*row)
        finally:
            if collecting:
                gc.enable()
        return log

    def __reduce__(self):
        return (FlowLog.from_columns, (self.to_columns(),))


#: array typecode per record field annotation; a ``str`` field is an
#: index into the log's phase table
_TYPECODES = {"int": "q", "float": "d", "Optional[float]": "d", "bool": "B", "str": "B"}

#: the record lists of a FlowLog, in column order: (list attribute,
#: ((column key, field name, annotation), ...)) in field order
_LAYOUT = tuple(
    (attr, tuple((f"{attr}.{f.name}", f.name, f.type) for f in fields(record)))
    for attr, record in (
        ("data_packets", DataPacketRecord),
        ("acks", AckRecord),
        ("timeouts", TimeoutRecord),
        ("recovery_phases", RecoveryPhaseRecord),
        ("cwnd_samples", CwndSample),
    )
)

#: columns are little-endian on every host
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(key: str, kind: str, values: list, phases: Dict[str, int]) -> bytes:
    if kind == "Optional[float]":
        if any(v != v for v in values if v is not None):
            raise ValueError(f"column {key!r} holds a NaN, which it reserves for None")
        values = [math.nan if v is None else v for v in values]
    elif kind == "str":
        values = [phases.setdefault(v, len(phases)) for v in values]
    column = array(_TYPECODES[kind], values)
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _unpack(raw: bytes, kind: str, phases: List[str]) -> list:
    column = array(_TYPECODES[kind])
    column.frombytes(raw)
    if _BIG_ENDIAN:
        column.byteswap()
    values = column.tolist()
    if kind == "Optional[float]":
        return [None if v != v else v for v in values]
    if kind == "bool":
        return list(map(bool, values))
    if kind == "str":
        return [phases[i] for i in values]
    return values
