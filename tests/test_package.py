import scgates

EXPORTS = {
    "TWOPI", "DEFAULT_DT", "QubitSpec", "DirectSystemSpec", "IndirectSystemSpec", "BasisIndex",
    "ladder_diagonal", "build_jx", "build_direct_hamiltonian", "build_indirect_hamiltonian",
    "hamiltonian_parts", "computational_indices", "EffectiveCouplings", "DispersiveRegimeError",
    "effective_couplings", "build_effective_hamiltonian", "build_rwa_direct_hamiltonian",
    "PulseSchedule", "ScheduleSegment", "PropagationResult", "UnitarityError", "square_schedule",
    "trapezoid_schedule", "propagate_constant", "propagate_schedule", "GateTarget", "GateResult",
    "ISWAP", "CZ", "gate_target", "phase_diagonal", "project_computational", "gate_fidelity",
    "gate_time", "run_gate", "SweepAxis", "SweepBase", "SweepGrid", "SweepPoint", "ThresholdResult",
    "sweep", "threshold", "truncation_study", "ramp_study", "detrended_amplitude",
    "derive_point_spec", "evaluate_point",
}


def test_exports_are_the_public_names_and_each_resolves():
    assert len(EXPORTS) == 47
    assert len(scgates.__all__) == len(set(scgates.__all__))
    assert set(scgates.__all__) == EXPORTS
    for name in scgates.__all__:
        assert getattr(scgates, name) is not None
