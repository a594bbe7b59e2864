"""Span ledger for the benchmark's traced runs.

Wrappers are installed from outside the program: each one replaces a
public entry point *where its callers look it up* (a class attribute, or
the module global a caller binds at import) and records a span per call.
A span's self time is its duration minus the time of the traced spans
nested inside it, so the per-layer self times of one thread add up to
the traced wall time without double counting.  A call nested inside an
active span of the same name (a composite loss model calling its
components, ``ResultStore.put`` calling ``put_bytes``) is not a new
span: only the outermost call counts.

Spans are kept per thread, because the fabric's store server and lease
coordinator serve requests on their own threads inside the benchmark process.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Ledger:
    """Per-name call count, self time and work units."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.units: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per outermost call.

        ``units(args, result)`` returns the work units of one call
        (packets, bytes, events), summed under the same name.
        """
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = ledger._stack()
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with ledger._lock:
                    ledger.calls[name] += 1
                    ledger.self_s[name] += elapsed - frame[1]
            if units is not None:
                amount = units(args, result)
                with ledger._lock:
                    ledger.units[name] += amount
            return result

        return traced


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _subclasses_defining(base: type, attr: str) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def _events(args, result) -> int:
    return args[0].events_processed


def _burst_packets(args, result) -> int:
    return len(args[1])


def _result_bytes(args, result) -> int:
    return len(result)


def _argument_bytes(args, result) -> int:
    return len(args[0])


def install(ledger: Ledger) -> Patches:
    """Wrap every layer's entry points; returns the undo handle.

    Names are patched where callers resolve them at call time:
    ``repro.store.backend`` binds ``encode_outcome``/``decode_outcome``
    at import and ``repro.store.remote`` binds ``encode_entry``/
    ``decode_entry``, so those module globals are the ones replaced;
    methods are replaced on every class that defines them, before the
    flow objects that bind them are built.
    """
    from repro.core import enhanced
    from repro.exec import executor
    from repro.fabric import coordinator
    from repro.simulator import channel, engine, metrics, receiver, sender_base
    from repro.store import backend, disk, remote
    from repro.traces import correlation

    patches = Patches()
    wrap = ledger.wrap

    def method(cls, attr, name, units=None):
        patches.set(cls, attr, wrap(name, cls.__dict__[attr], units))

    def function(module, attr, name, units=None):
        patches.set(module, attr, wrap(name, getattr(module, attr), units))

    # simulator.*
    method(engine.Simulator, "run", "engine.run", _events)
    method(channel.Link, "send_burst", "channel.send_burst", _burst_packets)
    for cls in _subclasses_defining(channel.LossModel, "is_lost_block"):
        method(cls, "is_lost_block", "channel.is_lost_block")
    for cls in _subclasses_defining(sender_base.BaseSender, "on_ack"):
        method(cls, "on_ack", "sender.on_ack")
    method(receiver.Receiver, "on_data", "receiver.on_data")
    for attr in ("record_data_send", "record_ack_send", "record_cwnd"):
        method(metrics.FlowLog, attr, "flowlog.append")

    # exec.executor
    method(executor.Executor, "run", "exec.run")
    function(executor, "simulate_spec", "exec.simulate")

    # store.format and store.disk, where their callers look them up
    function(backend, "encode_outcome", "codec.encode")
    function(backend, "decode_outcome", "codec.decode")
    for module in (disk, remote):
        function(module, "encode_entry", "codec.encode_entry", _result_bytes)
        function(module, "decode_entry", "codec.decode_entry", _argument_bytes)
    method(disk.ResultStore, "put", "store.put")
    method(disk.ResultStore, "put_bytes", "store.put")
    method(disk.ResultStore, "get", "store.get")
    method(disk.ResultStore, "read_bytes", "store.get")

    # store.remote and fabric
    method(remote.RemoteStore, "get", "remote.get")
    method(remote.RemoteStore, "put", "remote.put")
    for attr in ("do_GET", "do_POST"):
        method(coordinator._CoordinatorHandler, attr, "fabric.request")

    # traces and core: the Fig. 10 pipeline resolves these at call time
    function(correlation, "measured_model_inputs", "traces.measured_inputs")
    function(enhanced, "enhanced_throughput", "core.model")
    function(enhanced, "padhye_paper_form", "core.model")
    return patches
