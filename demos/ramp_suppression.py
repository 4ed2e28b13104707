"""Walkthrough: smoothing fidelity oscillations with trapezoidal ramps.

A square CZ pulse switches the qubit-qubit interaction on instantaneously,
which projects the bare states onto dressed ones and leaves residual
oscillations in the fidelity as a function of coupling strength.  Parking
qubit B 10% above its operating frequency and ramping it down adiabatically
unwinds most of that error.  This script compares the square pulse with a few
ramp durations at one coupling point and then over a short curve.

Note the non-monotonicity at the strongest coupling: a 40 ns ramp is already
slow enough to start following the target anticrossing adiabatically, which
reintroduces an error of its own.
"""

from scgates import CZ, DirectSystemSpec, QubitSpec, gate_time, run_gate, trapezoid_schedule

spec = DirectSystemSpec(
    qubit_a=QubitSpec(freq=7.16, anharm=0.087, n_levels=3),
    qubit_b=QubitSpec(freq=7.274, anharm=0.114, n_levels=3),
    g=0.0091,
)

print(f"CZ at g = {spec.g} GHz (gate time {gate_time(spec, CZ):.1f} ns)")
print("\n tau_d (ns)   fidelity")
for tau_d in (0.0, 5.0, 10.0, 20.0, 40.0):
    schedule = trapezoid_schedule(tau_d, gate_time(spec, CZ))
    res = run_gate(spec, CZ, schedule)
    print(f"   {tau_d:7.1f}   {res.fidelity:.5f}")

print("\nfidelity vs coupling, square pulse against a 10 ns ramp:")
print("  g/anharm_b    square    ramped")
for ratio in (0.10, 0.14, 0.18, 0.22, 0.26):
    g = ratio * spec.qubit_b.anharm
    point = DirectSystemSpec(spec.qubit_a, spec.qubit_b, g)
    t_g = gate_time(point, CZ)
    f_square = run_gate(point, CZ).fidelity
    f_ramped = run_gate(point, CZ, trapezoid_schedule(10.0, t_g)).fidelity
    print(f"    {ratio:7.2f}   {f_square:.5f}   {f_ramped:.5f}")
