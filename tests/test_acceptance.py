"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines; add -s to see the printed summaries with measured
numbers.  Every tolerance here is load-bearing: loosening one is a
functional regression, not a cleanup.
"""

import time

import numpy as np
import pytest

from swapsynth.canonical import (
    CanonicalParams,
    exp_minus_iH,
    kak_decompose,
)
from swapsynth.costmodel import builtin_profile, compare_backends
from swapsynth.entanglement import (
    appendix_a_terms,
    ep_closed_form_swap,
    ep_exact,
    ep_monte_carlo,
    _trace_term,
)
from swapsynth.gates import CNOT, SWAP, named_gate, swap_pow
from swapsynth.linalg import haar_random_unitary, phase_distance
from swapsynth.synthesis import (
    Circuit,
    _core_swap,
    evaluate_circuit,
    gate_counts,
    swap_angles,
    synthesize_cnot,
    synthesize_swap,
)

PI4 = np.pi / 4.0


def _report(name, detail):
    print(f"{name}: PASS  ({detail})", flush=True)


def test_criterion_01_thousand_haar_round_trips():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        u = haar_random_unitary(4, seed=seed)
        for synth in (synthesize_swap, synthesize_cnot):
            r = phase_distance(evaluate_circuit(synth(u)), u)
            worst = max(worst, r)
            assert r < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        "criterion 1 (1000 Haar targets, both backends)",
        f"worst residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_gate_counts():
    for seed in range(50):
        u = haar_random_unitary(4, seed=seed)
        assert gate_counts(synthesize_swap(u)) == (3, 0, 6)
        swaps, cnots, locals_ = gate_counts(synthesize_cnot(u))
        assert (swaps, cnots) == (0, 3)
        assert locals_ <= 8
    _report("criterion 2 (gate counts)", "(3,0,6) and (0,3,<=8) on 50 targets")


def test_criterion_03_core_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        hx = rng.uniform(0, PI4)
        hy = rng.uniform(0, hx)
        hz = rng.uniform(-hy, hy)
        if hx >= PI4 - 1e-10:
            hz = abs(hz)
        p = CanonicalParams(hx, hy, hz)
        dev = np.max(
            np.abs(evaluate_circuit(Circuit(*_core_swap(p))) - exp_minus_iH(p))
        )
        worst = max(worst, dev)
        assert dev < 1e-12
    _report("criterion 3 (three-SWAP core identity)", f"worst entrywise {worst:.2e}")


def test_criterion_04_entangling_power_constants():
    checks = [
        (ep_exact(CNOT), 2.0 / 9.0, "cnot"),
        (ep_exact(swap_pow(0.5)), 1.0 / 6.0, "half swap"),
        (ep_exact(SWAP), 0.0, "swap"),
        (ep_exact(np.eye(4, dtype=complex)), 0.0, "identity"),
    ]
    for got, want, label in checks:
        assert abs(got - want) < 1e-12, label
    _report("criterion 4 (entangling power constants)", "2/9, 1/6, 0, 0 at 1e-12")


def test_criterion_05_closed_forms_on_grid():
    worst = 0.0
    for alpha in np.arange(100) * 0.02:
        v = swap_pow(alpha)
        d1 = abs(ep_closed_form_swap(alpha) - ep_exact(v))
        t2, t3 = appendix_a_terms(alpha)
        d2 = abs(t2 - _trace_term(v))
        d3 = abs(t3 - _trace_term(SWAP @ v))
        worst = max(worst, d1, d2, d3)
        assert max(d1, d2, d3) < 1e-12
    _report("criterion 5 (closed forms on 100-point grid)", f"worst {worst:.2e}")


def test_criterion_06_monte_carlo():
    for u, label in ((CNOT, "cnot"), (swap_pow(0.5), "half swap")):
        start = time.perf_counter()
        est = ep_monte_carlo(u, samples=100000, seed=31415)
        elapsed = time.perf_counter() - start
        exact = ep_exact(u)
        assert abs(est.mean - exact) < 4.0 * est.std_error, label
        assert elapsed < 5.0, label
    _report(
        "criterion 6 (1e5-sample Monte Carlo)",
        f"cnot and half swap within 4 sigma, {elapsed:.2f} s",
    )


def test_criterion_07_ordering():
    assert ep_exact(swap_pow(0.5)) < ep_exact(CNOT)
    assert 1.0 / 6.0 < 2.0 / 9.0
    _report("criterion 7 (half swap weaker than cnot)", "1/6 < 2/9")


def test_criterion_08_landmark_decompositions():
    dec = kak_decompose(CNOT)
    assert tuple(dec.params) == pytest.approx((PI4, 0.0, 0.0), abs=1e-12)
    assert tuple(swap_angles(dec.params)) == pytest.approx((0.5, 0.5, 0.0), abs=1e-12)
    dec = kak_decompose(SWAP)
    assert tuple(dec.params) == pytest.approx((PI4, PI4, PI4), abs=1e-12)
    assert tuple(swap_angles(dec.params)) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    _report(
        "criterion 8 (landmark decompositions)",
        "cnot (pi/4,0,0)->(1/2,1/2,0); swap (pi/4,pi/4,pi/4)->(1,0,0)",
    )


def test_criterion_09_cost_model():
    gaas = builtin_profile("gaas")
    si = builtin_profile("si")
    assert (gaas.rabi_frequency_hz, gaas.pi_rotation_time_s) == (6.2e6, 80e-9)
    assert (si.rabi_frequency_hz, si.pi_rotation_time_s) == (28e6, 18e-9)
    assert gaas.swap_full_time_s == si.swap_full_time_s == 50e-12
    for seed in range(100):
        rep = compare_backends(haar_random_unitary(4, seed=seed), gaas)
        assert rep["backends"]["naive"]["gate_counts"]["swap_pow"] == 6
        assert rep["backends"]["swap"]["gate_counts"]["swap_pow"] == 3
        assert (
            rep["backends"]["naive"]["total_time_s"]
            >= rep["backends"]["swap"]["total_time_s"] - 1e-15
        )
    _report(
        "criterion 9 (cost model)",
        "profile constants exact; naive (6 pulses) never beats optimal (3) on 100 targets",
    )


def test_criterion_10_degenerate_robustness():
    rng = np.random.default_rng(55)
    worst = 0.0

    def check(u):
        nonlocal worst
        for synth in (synthesize_swap, synthesize_cnot):
            r = phase_distance(evaluate_circuit(synth(u)), u)
            worst = max(worst, r)
            assert r < 1e-9

    for name in ("cnot", "cz", "swap", "identity4", "iswap", "sqrt_swap"):
        check(named_gate(name))
    for s in range(10):
        check(np.kron(haar_random_unitary(2, seed=s), haar_random_unitary(2, seed=s + 90)))
    for _ in range(100):
        hx = rng.uniform(0, PI4)
        pick = rng.integers(4)
        if pick == 0:
            p = CanonicalParams(hx, hx, hx)
        elif pick == 1:
            p = CanonicalParams(hx, hx, rng.uniform(-hx, hx))
        elif pick == 2:
            p = CanonicalParams(hx, rng.uniform(0, hx), 0.0)
        else:
            p = CanonicalParams(PI4, hx, hx)
        locals_ = [haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(4)]
        u = np.kron(locals_[0], locals_[1]) @ exp_minus_iH(p) @ np.kron(locals_[2], locals_[3])
        check(u)
    _report("criterion 10 (degenerate targets)", f"worst residual {worst:.2e}")
