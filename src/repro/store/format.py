"""Result serialisation: FlowOutcome ↔ JSON payload, exactly.

The store persists everything needed to reconstruct a successful
:class:`~repro.exec.executor.FlowOutcome` *byte-identically*: the built
:class:`~repro.simulator.connection.ConnectionConfig`, the complete
:class:`~repro.simulator.metrics.FlowLog`, the flow duration, the
per-flow telemetry counters when the flow ran instrumented, plus the
retry bookkeeping (failures, attempt count) so a cached flow replays
into a :class:`~repro.robustness.campaign.CampaignReport` exactly as
its live run did.

The log is stored as :meth:`FlowLog.to_columns
<repro.simulator.metrics.FlowLog.to_columns>` gives it, the one
encoding a log also pickles as: each column's little-endian bytes
base64-encoded into the JSON payload, the phase table and the payload
counts as they are.  Column bytes hold every int and IEEE-754 double
exactly, and :meth:`FlowLog.from_columns` rebuilds records that pickle
to the same bytes as the live run's.

The flow *trace* is not stored — it is re-captured from the restored
log and the requesting spec's own metadata, which is also what makes
one stored simulation reusable under any capture metadata.

Only successful outcomes are stored.  A quarantined flow is worth
retrying on the next campaign run, not worth caching.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.exec.executor import FlowOutcome
from repro.exec.spec import FlowSpec
from repro.robustness.campaign import FlowFailure
from repro.simulator.connection import ConnectionConfig, FlowResult
from repro.simulator.metrics import FlowLog
from repro.telemetry.counters import COUNTER_NAMES, CountingTelemetry

__all__ = ["SCHEMA_VERSION", "decode_outcome", "encode_outcome"]

#: On-disk payload schema.  Bump on any change to the encoding below;
#: ``ResultStore.gc`` drops entries written under older schemas.
#: 2: FlowFailure records gained ``failure_class`` (the retry taxonomy).
#: 3: the log is stored as FlowLog columns, not as JSON rows.
SCHEMA_VERSION = 3

#: counters that describe how a result was *obtained*, not what the
#: simulation did — never persisted, always reassigned on restore.
#: ``worker_crashes``/``deadline_preemptions``/``store_errors`` are
#: supervision-layer provenance: replaying them from a cache hit would
#: claim this run's infrastructure failed when it did not.
_CACHE_COUNTERS = (
    "cache_hit",
    "cache_miss",
    "worker_crashes",
    "deadline_preemptions",
    "store_errors",
)


def encode_outcome(outcome: FlowOutcome) -> Dict[str, object]:
    """The JSON payload of one *successful* outcome.

    Raises :class:`ValueError` for quarantined outcomes — failure is a
    thing to retry next run, not a thing to cache.
    """
    result = outcome.result
    if result is None or not outcome.ok:
        raise ValueError(
            f"only successful outcomes are storable; {outcome.spec.flow_id!r} "
            "was quarantined"
        )
    counters: Optional[Dict[str, int]] = None
    if isinstance(result.telemetry, CountingTelemetry):
        counters = {
            name: value
            for name, value in result.telemetry.as_dict().items()
            if name not in _CACHE_COUNTERS
        }
    return {
        "flow_id": outcome.spec.flow_id,
        "attempts": outcome.attempts,
        "failures": [asdict(failure) for failure in outcome.failures],
        "result": {
            "config": asdict(result.config),
            "duration": result.duration,
            "counters": counters,
            "log": {
                key: b64encode(value).decode("ascii") if isinstance(value, bytes) else value
                for key, value in result.log.to_columns().items()
            },
        },
    }


def decode_outcome(
    payload: Dict[str, object], *, index: int, spec: FlowSpec
) -> FlowOutcome:
    """Reconstruct the FlowOutcome a stored payload encodes.

    ``spec`` is the *requesting* spec: its metadata drives trace
    re-capture and its ``telemetry`` flag decides whether the restored
    result carries a counter sink.  Restored sinks report
    ``cache_hit=1`` and zero ``cache_miss`` — the counters tell the
    truth about how this result was obtained this run.
    """
    result_data = payload["result"]
    columns = {
        key: b64decode(value) if isinstance(value, str) else value
        for key, value in result_data["log"].items()
    }
    telemetry: Optional[CountingTelemetry] = None
    if spec.telemetry:
        telemetry = CountingTelemetry()
        stored = result_data.get("counters") or {}
        for name in COUNTER_NAMES:
            if name in stored:
                setattr(telemetry, name, int(stored[name]))
        telemetry.cache_hit = 1
        telemetry.cache_miss = 0
    result = FlowResult(
        config=ConnectionConfig(**result_data["config"]),
        log=FlowLog.from_columns(columns),
        duration=result_data["duration"],
        telemetry=telemetry,
    )
    trace = None
    if spec.metadata is not None:
        # Validation (when the spec asks for it) already gated the
        # original store write; integrity of the stored bytes is the
        # store's digest check, so re-validating here would only re-run
        # a check that deterministically passes.
        from repro.traces.capture import capture_flow

        trace = capture_flow(result, spec.metadata, validate=False)
    failures: List[FlowFailure] = [
        FlowFailure(**failure) for failure in payload["failures"]
    ]
    return FlowOutcome(
        index=index,
        spec=spec,
        result=result,
        trace=trace,
        failures=failures,
        attempts=int(payload["attempts"]),
    )
