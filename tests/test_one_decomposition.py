"""Each target is decomposed exactly once per synthesis.

The CNOT backend relies on a closed-form identity for its core: fed the
shifted Bell phases of any coordinates h, the three-CNOT core evaluates to
e^{i psi} E(h) (p (x) q) with p, q and psi independent of h.  The property
test checks that identity over the whole chamber and over arbitrary real h;
the counting tests check that no entry point decomposes a target twice.
``synthesize_cnot`` calls kak_decompose once.  The CLI's synth command and
compare_backends may call it more than once, through each backend and for
the report, so they are counted by the joint diagonalization, the stage that
only a miss of the kak_decompose memo reaches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth import canonical, cli, synthesis
from swapsynth.canonical import exp_minus_iH, lambdas
from swapsynth.costmodel import builtin_profile, compare_backends
from swapsynth.linalg import haar_random_unitary
from swapsynth.synthesis import (
    build_core_cnot_circuit,
    cnot_phase_params,
    evaluate_circuit,
    shifted_bell_phases,
    synthesize_cnot,
)

PI4 = np.pi / 4.0

# The fixed local pair and phase that synthesize_cnot builds on.
P, Q, PSI = synthesis._CORE_P, synthesis._CORE_Q, synthesis._CORE_PSI

unit = st.floats(0.0, 1.0)


@st.composite
def chamber_points(draw):
    hx = PI4 * draw(unit)
    hy = hx * draw(unit)
    hz = hy * (2.0 * draw(unit) - 1.0)
    if hx == PI4:
        hz = abs(hz)
    return (hx, hy, hz)


real_points = st.tuples(*[st.floats(-20.0, 20.0)] * 3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(chamber_points(), real_points))
def test_cnot_core_is_target_core_times_fixed_locals(h):
    core = evaluate_circuit(
        build_core_cnot_circuit(cnot_phase_params(shifted_bell_phases(lambdas(h))))
    )
    expected = np.exp(1j * PSI) * exp_minus_iH(h) @ np.kron(P, Q)
    assert np.max(np.abs(core - expected)) < 1e-12


@pytest.fixture
def kak_calls(monkeypatch):
    """Count kak_decompose calls through every module binding of it."""
    calls = []
    original = canonical.kak_decompose

    def counting(u):
        calls.append(u)
        return original(u)

    for module in (canonical, synthesis, cli):
        monkeypatch.setattr(module, "kak_decompose", counting)
    return calls


@pytest.fixture
def diagonalizations(monkeypatch):
    """Count the joint diagonalizations that kak_decompose runs on a memo miss."""
    calls = []
    original = canonical.diagonalize_complex_symmetric_unitary

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(canonical, "diagonalize_complex_symmetric_unitary", counting)
    return calls


def test_synthesize_cnot_decomposes_once(kak_calls):
    synthesize_cnot(haar_random_unitary(4, seed=3))
    assert len(kak_calls) == 1


@pytest.mark.parametrize("backend", ["swap", "cnot"])
def test_cmd_synth_decomposes_once(diagonalizations, backend, capsys):
    assert cli.main(["synth", "--gate", "cnot", "--backend", backend, "--json"]) == 0
    capsys.readouterr()
    assert len(diagonalizations) == 1


def test_compare_backends_decomposes_once(diagonalizations):
    compare_backends(haar_random_unitary(4, seed=4), builtin_profile("gaas"))
    assert len(diagonalizations) == 1
