"""A broken contract on a value the library computed is a NumericalError.

ContractViolation means the caller passed bad input, and the CLI exits 2.
When a check fires on a value computed inside kak_decompose or a
synthesizer, the fault is numerical: the library re-raises it as
NumericalError, naming the stage, the measured value and the bound, and
the CLI exits 3.  Each test forces one such path with monkeypatch.
"""

import dataclasses

import numpy as np
import pytest

from swapsynth import canonical, cli, linalg, synthesis
from swapsynth.canonical import kak_decompose
from swapsynth.linalg import ContractViolation, NumericalError, haar_random_unitary
from swapsynth.synthesis import synthesize_cnot, synthesize_swap

U = haar_random_unitary(4, seed=17)


def cli_exit(capsys, *argv):
    code = cli.main(["synth", "--gate", "cnot", *argv])
    err = capsys.readouterr().err
    assert "numerical failure" in err
    return code


def test_split_of_computed_local_product(monkeypatch, capsys):
    original = canonical._split_rotations
    monkeypatch.setattr(canonical, "_split_rotations", lambda os: original(os * (1.0 + 1e-6)))
    with pytest.raises(NumericalError, match=r"kak_decompose.*not unitary.*e-06 exceeds 2\.5e-11"):
        kak_decompose(U)
    assert cli_exit(capsys) == 3


def test_local_op_on_computed_local(monkeypatch, capsys):
    """Each of the four computed locals is checked, not only the first."""
    for side in ("front", "back"):
        for slot in (0, 1):

            def skewed(u, side=side, slot=slot):
                dec = canonical.kak_decompose(u)
                pair = list(getattr(dec, side))
                pair[slot] = pair[slot] * (1.0 + 1e-6)
                return dataclasses.replace(dec, **{side: tuple(pair)})

            for module in (synthesis, cli):
                monkeypatch.setattr(module, "kak_decompose", skewed)
            with pytest.raises(NumericalError, match=r"swap synthesis.*not unitary.*exceeds 1e-10"):
                synthesize_swap(U)
            with pytest.raises(NumericalError, match=r"cnot synthesis.*not unitary.*exceeds 1e-10"):
                synthesize_cnot(U)
            assert cli_exit(capsys, "--backend", "swap") == 3
            assert cli_exit(capsys, "--backend", "cnot") == 3
            assert cli.main(["cost", "--compare", "--gate", "cnot"]) == 3
            assert "numerical failure" in capsys.readouterr().err


def test_reduction_to_nan_coordinates(monkeypatch, capsys):
    original = canonical._chamber_gauge

    def to_nan(half, columns):
        _, slots, signs, turns = original(half, columns)
        return [np.nan] * 3, slots, signs, turns

    monkeypatch.setattr(canonical, "_chamber_gauge", to_nan)
    with pytest.raises(NumericalError, match=r"reduction left the chamber: .*nan"):
        kak_decompose(U)
    assert cli_exit(capsys) == 3


def test_swap_angles_of_computed_params(monkeypatch, capsys):
    monkeypatch.setattr(synthesis, "in_weyl_chamber", lambda p: False)
    with pytest.raises(NumericalError, match=r"swap synthesis: parameters .* tolerance 1e-9"):
        synthesize_swap(U)
    assert cli_exit(capsys, "--backend", "swap") == 3


def test_cnot_phase_params_of_computed_phases(monkeypatch, capsys):
    """The sum check of cnot_phase_params runs on the synthesis path, where
    the private shift step hands its floats to the private angle step."""
    original = synthesis._shifted_bell_phases

    def unbalanced(*lam):
        l00, *rest = original(*lam)
        return (l00 + 1e-6, *rest)

    monkeypatch.setattr(synthesis, "_shifted_bell_phases", unbalanced)
    with pytest.raises(NumericalError, match=r"cnot synthesis: .*within 1e-9, got 1\.000e-06"):
        synthesize_cnot(U)
    assert cli_exit(capsys, "--backend", "cnot") == 3


def test_nan_eigenvalue_of_joint_diagonalization(monkeypatch, capsys):
    original = canonical.diagonalize_complex_symmetric_unitary

    def one_nan(m):
        d, q = original(m)
        d = d.copy()
        d[1] = np.nan
        return d, q

    monkeypatch.setattr(canonical, "diagonalize_complex_symmetric_unitary", one_nan)
    with pytest.raises(NumericalError, match=r"imaginary residue nan exceeds 1e-08"):
        kak_decompose(U)
    assert cli_exit(capsys) == 3


# NaN arithmetic on the way to the check may raise numpy's invalid-value flag.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eigh_that_does_not_converge(monkeypatch, capsys):
    """A LAPACK eigensolver that does not converge returns NaN eigenpairs
    through the package's binding, where numpy's wrapper raised LinAlgError,
    a ValueError that escaped the CLI.  The reconstruction check refuses them."""

    def no_convergence(a):
        return np.full(a.shape[-1], np.nan), np.full(a.shape, np.nan)

    monkeypatch.setattr(linalg, "_eigh", no_convergence)
    with pytest.raises(NumericalError, match=r"^diagonalization residual nan exceeds 1e-9$"):
        kak_decompose(U)
    assert cli_exit(capsys) == 3


def test_projection_of_computed_unitary(monkeypatch, capsys):
    original = canonical._newton_schulz
    monkeypatch.setattr(canonical, "_newton_schulz", lambda u: original(u) * (1.0 + 1e-6))
    with pytest.raises(
        NumericalError, match=r"^kak_decompose, projecting u onto SU\(4\): u is not unitary: .*e-06 exceeds 1e-10$"
    ):
        kak_decompose(U)
    assert cli_exit(capsys) == 3


def test_diagonalization_of_computed_m(monkeypatch, capsys):
    original = canonical.project_su

    def scaled(u):
        v, phi = original(u)
        return v * (1.0 + 1e-6), phi

    monkeypatch.setattr(canonical, "project_su", scaled)
    with pytest.raises(
        NumericalError, match=r"^kak_decompose, diagonalizing m: m is not unitary: max deviation 4\.000e-06 exceeds 1e-10$"
    ):
        kak_decompose(U)
    assert cli_exit(capsys) == 3


def test_bounds_print_exactly():
    # A bound that is not a round number is printed as given, not rounded to 1.3e-09.
    with pytest.raises(NumericalError, match=r"^residual 2\.000e-09 exceeds 1\.25e-09$"):
        linalg._check_bound(2e-9, 1.25e-9, "residual")
    with pytest.raises(ContractViolation, match=r"exceeds 1\.25e-09$"):
        linalg._check_unitary(np.eye(2) * (1.0 + 1e-8), "m", atol=1.25e-9)
