"""repro.faults — deterministic fault injection for the serve stack.

See :mod:`repro.faults.plan` for the model.  The usual surface:

- components call :func:`fire` at named seams (free when disabled);
- tests wrap work in ``with injected(FaultPlan([...], seed=7)):``;
- `repro serve --faults SPEC` / ``REPRO_FAULTS=SPEC`` boot a faulty
  server for chaos smoke runs.
"""

from repro.faults.plan import (
    FAULT_SITES,
    NULL_FAULTS,
    FaultError,
    FaultInjected,
    FaultPlan,
    FaultPoint,
    NullFaultPlan,
    SimulatedCrash,
    active_plan,
    fire,
    injected,
    install,
    parse_fault_spec,
    reset,
    validate_point,
)

__all__ = [
    "FAULT_SITES",
    "NULL_FAULTS",
    "FaultError",
    "FaultInjected",
    "FaultPlan",
    "FaultPoint",
    "NullFaultPlan",
    "SimulatedCrash",
    "active_plan",
    "fire",
    "injected",
    "install",
    "parse_fault_spec",
    "reset",
    "validate_point",
]
