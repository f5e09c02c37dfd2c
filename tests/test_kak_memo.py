"""kak_decompose remembers its last 8 targets by content.

Both backends, compare_backends and the CLI decompose the target they are
handed, so a target met twice in a row is decomposed once.  The memo is keyed
by the bytes of the admitted complex matrix, holds results only, and hands
every caller the same read-only decomposition.  Every call admits the
target's entries and shape; only a miss checks its unitarity.  Each test
starts from an empty memo (``tests/conftest.py``).
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from swapsynth import canonical, linalg
from swapsynth.canonical import kak_decompose
from swapsynth.linalg import ID4, ContractViolation, NumericalError, haar_random_unitary
from swapsynth.synthesis import synthesize_cnot, synthesize_swap

MEMO = canonical._decompose


def _arrays(dec):
    return (*dec.front, *dec.back)


def _same_bits(a, b):
    """Equal coordinates, global phase and locals, bit for bit."""
    return (
        tuple(a.params) == tuple(b.params)
        and a.global_phase == b.global_phase
        and all(x.tobytes() == y.tobytes() for x, y in zip(_arrays(a), _arrays(b)))
    )


def test_repeat_call_returns_the_same_object():
    u = haar_random_unitary(4, seed=31)
    first = kak_decompose(u)
    assert kak_decompose(u) is first
    assert kak_decompose(u.copy()) is first
    assert MEMO.cache_info().hits == 2 and MEMO.cache_info().misses == 1


def test_a_hit_is_bit_for_bit_a_miss():
    for seed in range(20):
        u = haar_random_unitary(4, seed=seed)
        remembered = kak_decompose(u)
        MEMO.cache_clear()
        assert _same_bits(kak_decompose(u), remembered), seed


def test_shared_result_refuses_writes():
    dec = kak_decompose(haar_random_unitary(4, seed=32))
    for a in _arrays(dec):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.global_phase = 0.0
    changed = dataclasses.replace(dec, global_phase=0.0)
    assert changed.global_phase == 0.0 and changed.front is dec.front
    assert kak_decompose(haar_random_unitary(4, seed=32)) is dec


def test_circuits_stay_private_to_each_caller():
    u = haar_random_unitary(4, seed=33)
    for synthesize in (synthesize_swap, synthesize_cnot):
        first, second = synthesize(u), synthesize(u)
        first.ops[0].matrix[0, 0] = 7.0
        assert second.ops[0].matrix[0, 0] != 7.0
    remembered = kak_decompose(u)
    MEMO.cache_clear()
    assert _same_bits(remembered, kak_decompose(u))


def test_in_place_edit_gives_a_new_decomposition():
    u = haar_random_unitary(4, seed=34)
    before = kak_decompose(u)
    u *= np.exp(0.3j)
    after = kak_decompose(u)
    assert after is not before
    assert after.global_phase != before.global_phase
    MEMO.cache_clear()
    assert _same_bits(after, kak_decompose(u.copy()))


def test_layout_does_not_change_the_result():
    u = haar_random_unitary(4, seed=35)
    contiguous = np.ascontiguousarray(u.T)
    fortran = np.asfortranarray(u)
    assert not u.T.flags.c_contiguous and not fortran.flags.c_contiguous
    assert kak_decompose(fortran) is kak_decompose(u)
    assert kak_decompose(u.T) is kak_decompose(contiguous)
    # And with nothing remembered: the same bits from either layout.
    for strided, plain in ((fortran, u), (u.T, contiguous)):
        MEMO.cache_clear()
        got = kak_decompose(strided)
        MEMO.cache_clear()
        assert _same_bits(got, kak_decompose(plain))


def test_a_failing_target_raises_on_every_call(monkeypatch):
    u = haar_random_unitary(4, seed=36)
    original = canonical._chamber_gauge
    runs = []

    def to_nan(half, columns):
        runs.append(1)
        _, slots, signs, turns = original(half, columns)
        return [np.nan] * 3, slots, signs, turns

    monkeypatch.setattr(canonical, "_chamber_gauge", to_nan)
    for _ in range(3):
        with pytest.raises(NumericalError, match="reduction left the chamber"):
            kak_decompose(u)
    assert len(runs) == 3 and MEMO.cache_info().currsize == 0
    monkeypatch.undo()
    assert canonical.in_weyl_chamber(kak_decompose(u).params)


def test_a_hit_runs_no_unitarity_product(monkeypatch):
    checked = []
    for module in (canonical, linalg):
        def counting(*args, _check=module._check_unitary, **kwargs):
            checked.append(args[1])
            return _check(*args, **kwargs)

        monkeypatch.setattr(module, "_check_unitary", counting)
    u = haar_random_unitary(4, seed=37)
    kak_decompose(u)
    assert checked
    checked.clear()
    # Each has the bytes of u once admitted, so each is a hit.
    for same in (u, u.copy(), np.asfortranarray(u), u.tolist()):
        kak_decompose(same)
    assert checked == [] and MEMO.cache_info().hits == 4


def test_a_target_refused_for_its_shape_or_entries_is_never_looked_up():
    kak_decompose(haar_random_unitary(4, seed=38))
    before = MEMO.cache_info()
    refused = (
        np.eye(3),
        ID4[:2],
        [[str(int(i == j)) for j in range(4)] for i in range(4)],
        [[True if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)],
        [[float(i == j) for j in range(4)] for i in range(3)] + [[1.0]],
    )
    for u in refused:
        with pytest.raises(ContractViolation, match=r"^u must be a "):
            kak_decompose(u)
        assert MEMO.cache_info() == before
    # A target refused for its unitarity is looked up, and never remembered.
    with pytest.raises(ContractViolation, match=r"^u is not unitary"):
        kak_decompose(2 * ID4)
    assert MEMO.cache_info().misses == before.misses + 1
    assert MEMO.cache_info().currsize == before.currsize


def test_threads_match_a_serial_run():
    targets = [haar_random_unitary(4, seed=seed) for seed in range(40, 56)]
    serial = [kak_decompose(u) for u in targets]
    MEMO.cache_clear()
    # Each target four times, in a stride-7 order that interleaves them, on
    # more threads than cores, switching as often as the interpreter allows.
    order = [i * 7 % 16 for i in range(16)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(kak_decompose, targets[k]) for k in order]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, dec in zip(order, threaded):
        assert _same_bits(dec, serial[k]), k
    assert MEMO.cache_info().currsize <= 8


def test_memo_holds_at_most_eight_targets():
    assert MEMO.cache_info().maxsize == 8
    targets = [haar_random_unitary(4, seed=seed) for seed in range(60, 80)]
    for u in targets:
        kak_decompose(u)
        assert MEMO.cache_info().currsize <= 8
    assert MEMO.cache_info().currsize == 8
    # The last 8 are hits; the ninth from last was dropped and is a miss.
    for u in targets[-8:]:
        kak_decompose(u)
    assert MEMO.cache_info().hits == 8
    kak_decompose(targets[-9])
    assert MEMO.cache_info().misses == len(targets) + 1
