"""repro.exec: the unified flow-execution pipeline.

Describe a run as a :class:`FlowSpec`, hand batches to an
:class:`Executor` (serial, process-pool, or auto — byte-identical any way),
or run one spec with :func:`simulate_spec`.  Every run is wrapped in
the :mod:`~repro.exec.supervise` layer (worker-crash recovery,
parent-enforced deadlines, graceful signal drain), and
:mod:`~repro.exec.chaos` injects fabric faults to test it.  See the
README's architecture section for how campaigns, experiments, and
MPTCP flows all route through here.
"""

from repro.exec.chaos import ChaosBackend, ChaosPlan
from repro.exec.executor import (
    AutoBackend,
    ExecutionResult,
    Executor,
    FlowOutcome,
    ProcessPoolBackend,
    SerialBackend,
    simulate_spec,
)
from repro.exec.spec import FlowSpec, ResolvedFlow
from repro.exec.supervise import (
    SupervisedBackend,
    SupervisorPolicy,
    clear_interrupt,
    current_supervisor_policy,
    interrupt_signal,
    supervise_scope,
)

__all__ = [
    "AutoBackend",
    "ChaosBackend",
    "ChaosPlan",
    "ExecutionResult",
    "Executor",
    "FlowOutcome",
    "FlowSpec",
    "ProcessPoolBackend",
    "ResolvedFlow",
    "SerialBackend",
    "SupervisedBackend",
    "SupervisorPolicy",
    "clear_interrupt",
    "current_supervisor_policy",
    "interrupt_signal",
    "simulate_spec",
    "supervise_scope",
]
