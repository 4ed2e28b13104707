"""Two-qubit gate fidelity simulation for weakly anharmonic superconducting qubits.

The package models iSWAP and CZ gates between multilevel ladder qubits that
are coupled either directly or through a shared cavity, quantifies how the
fidelity degrades as the coupling strength approaches the anharmonicity, and
sweeps out the safe operating regimes.
"""

from types import ModuleType as _ModuleType

from .dispersive import (
    DispersiveRegimeError,
    EffectiveCouplings,
    build_effective_hamiltonian,
    build_rwa_direct_hamiltonian,
    effective_couplings,
)
from .evolution import (
    DEFAULT_DT,
    PropagationResult,
    PulseSchedule,
    ScheduleSegment,
    UnitarityError,
    propagate_constant,
    propagate_schedule,
    square_schedule,
    trapezoid_schedule,
)
from .gates import (
    CZ,
    ISWAP,
    GateResult,
    GateTarget,
    gate_fidelity,
    gate_target,
    gate_time,
    phase_diagonal,
    project_computational,
    run_gate,
)
from .hamiltonians import (
    TWOPI,
    BasisIndex,
    DirectSystemSpec,
    IndirectSystemSpec,
    QubitSpec,
    build_direct_hamiltonian,
    build_indirect_hamiltonian,
    build_jx,
    computational_indices,
    hamiltonian_parts,
    ladder_diagonal,
)
from .sweeps import (
    SweepAxis,
    SweepBase,
    SweepGrid,
    SweepPoint,
    ThresholdResult,
    detrended_amplitude,
    derive_point_spec,
    evaluate_point,
    ramp_study,
    sweep,
    threshold,
    truncation_study,
)

__version__ = "0.1.0"

#: Every name imported above; the submodules that importing them binds are not exports.
__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]
