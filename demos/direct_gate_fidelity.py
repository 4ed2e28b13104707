"""Walkthrough: how fast can a directly coupled pair run an iSWAP?

Two transmon-like qubits at 5.5 GHz with anharmonicities of 150 and 100 MHz
exchange an excitation through a fixed transverse coupling g.  The gate time
shrinks as 1/g, but the same coupling drives unwanted transitions into the
second excited states, so the fidelity falls as g grows against the
anharmonicity.  This script sweeps that trade-off and locates the coupling
where the fidelity drops through 99%.
"""

import numpy as np

from scgates import (
    ISWAP,
    DirectSystemSpec,
    QubitSpec,
    SweepAxis,
    SweepBase,
    run_gate,
    sweep,
    threshold,
)

base = SweepBase(
    system=DirectSystemSpec(
        qubit_a=QubitSpec(freq=5.5, anharm=0.15, n_levels=3),
        qubit_b=QubitSpec(freq=5.5, anharm=0.10, n_levels=3),
        g=0.011,
    ),
    gate="iswap",
)

# Single gate at the published experimental coupling, g = 11 MHz.
result = run_gate(base.system, ISWAP)
print(f"g = 11 MHz -> F = {result.fidelity:.4f}, leakage = {result.leakage:.2e}")

# Now sweep g as a fraction of qubit B's anharmonicity.
axis = SweepAxis("g_over_delta_b", start=0.02, stop=0.4, n_points=39)
grid = sweep(base, (axis,))

print("\n g/anharm_b   fidelity   t_gate (ns)")
for row in grid.rows[::4]:
    print(f"   {row.values[0]:7.3f}   {row.fidelity:8.5f}   {row.t_g_ns:8.2f}")

crossing = threshold(grid, level=0.99)
print(
    f"\nthe 99% boundary sits at g/anharm_b = {crossing.value:.4f}"
    f" (gate time {crossing.t_g_ns:.1f} ns);"
    "\nstronger coupling buys speed but not fidelity"
)
