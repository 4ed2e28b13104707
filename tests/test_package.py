import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import scgates
from scgates import sweeps

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


def test_names_the_benchmark_patches_resolve(monkeypatch):
    # bench/layers.py wraps these module-level names when tracing; a renamed or
    # removed one would only fail a traced benchmark run
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    # bench/layers.py imports bench/spans.py as ``spans``; the entry is restored, or dropped, after the test
    monkeypatch.setitem(sys.modules, "spans", None)
    del sys.modules["spans"]
    spec = importlib.util.spec_from_file_location("bench_layers", bench / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.trace_targets(scgates)
    assert targets
    for module, attr, name, _ in targets:
        layer, function = name.split(".")
        defined = getattr(importlib.import_module(f"scgates.{layer}"), function)
        assert getattr(module, attr, None) is defined, f"{module.__name__}.{attr} is not {name}"
    assert sweeps.ThreadPoolExecutor is ThreadPoolExecutor


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = tmp_path / "module.py"
    source.write_text(
        '"""Module docstring,\nover two lines."""\n\nimport math  # a comment\n\n# a comment line\n\n\n'
        'class A:\n    """Class docstring."""\n\n    def f(self, x):\n        """Docstring."""\n'
        '        s = """a string,\nnot a docstring"""\n        return (x +\n                1)\n'
    )
    # import, class, def, the two lines of s and the two of the return
    assert code_lines.code_lines(source) == 7
