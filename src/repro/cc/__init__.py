"""repro.cc — the public congestion-control surface.

The model zoo's front door: every sender variant the simulator can run
is registered here under a short name, described by a
:class:`CCInfo` record (family, summary, tuning dataclass, reference),
and instantiated by name via :func:`make_sender`::

    from repro.cc import cc_infos, describe_cc, CubicParams

    for info in cc_infos():            # registration order
        print(info.name, info.family, info.summary)

    describe_cc("cubic").params_type   # -> CubicParams
    spec = FlowSpec(scenario=..., duration=60.0, cc="cubic",
                    cc_params=CubicParams(beta=0.5))

Tuning params travel on :attr:`repro.exec.FlowSpec.cc_params` and are
hashed into the flow's content key, so a store-backed campaign caches
each tuning point separately.  ``python -m repro.cc list|show NAME``
prints the zoo from the command line.
"""

from repro.cc.info import (
    CC_FAMILIES,
    BbrParams,
    CCInfo,
    CompoundParams,
    CubicParams,
    RelentlessParams,
)
from repro.cc.registry import (
    CC_REGISTRY_VERSION,
    cc_infos,
    cc_names,
    describe_cc,
    get_cc,
    make_sender,
    register_cc,
    unregister_cc,
)

__all__ = [
    "BbrParams",
    "CCInfo",
    "CC_FAMILIES",
    "CC_REGISTRY_VERSION",
    "CompoundParams",
    "CubicParams",
    "RelentlessParams",
    "cc_infos",
    "cc_names",
    "describe_cc",
    "get_cc",
    "make_sender",
    "register_cc",
    "unregister_cc",
]
