"""Deterministic fault injection (`repro.fault`).

Seedable :class:`FaultPlan` schedules armed against named injection points
sprinkled through the persist/shard/serve layers; inert by default.  See
:mod:`repro.fault.plan` for the model and ``ARCHITECTURE.md`` ("Fault model
& recovery") for the catalogue of injection points.
"""

from repro.fault.plan import (
    ACTIONS,
    NULL_PLAN,
    RECOVERABLE_POINTS,
    FaultPlan,
    FaultRule,
    NullFaultPlan,
    default_fault_plan,
    inject,
    mutate_bytes,
    random_plan,
    set_default_fault_plan,
    use_fault_plan,
)

__all__ = [
    "ACTIONS",
    "FaultPlan",
    "FaultRule",
    "NULL_PLAN",
    "NullFaultPlan",
    "RECOVERABLE_POINTS",
    "default_fault_plan",
    "inject",
    "mutate_bytes",
    "random_plan",
    "set_default_fault_plan",
    "use_fault_plan",
]
