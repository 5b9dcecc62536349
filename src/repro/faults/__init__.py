"""repro.faults -- deterministic fault injection and chaos soak testing.

A :class:`FaultsConfig` plan (part of the platform config tree)
describes *what goes wrong and when*; a :class:`FaultInjector` arms it
onto live subsystems; :mod:`repro.faults.soak` runs seeded fault storms
against whole machines and checks the recovery invariants.

``soak`` exports nothing here: it pulls in the platform layer.  Import
it explicitly as ``repro.faults.soak``.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "inject": ("FaultInjector",),
    "plan": (
        "BOARD_CLOCK_SITES", "SITE_KINDS", "FaultRecoveryConfig", "FaultSpec", "FaultsConfig",
        "parse_partition_groups",
    ),
})
