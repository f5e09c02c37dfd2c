"""Property test: the stacked split of real SO(4) matrices agrees with one-at-a-time splits.

``canonical._split_rotations`` splits a (k, 4, 4) stack of real magic-basis
local products in one call per step, so that ``kak_decompose`` splits both
of its factors at once.  Each member's (a, b) must be bit for bit what a
stack of that member alone gives, and must rebuild it.  One bad member must
fail the whole stack with the error a split of it alone raises.  The run is
derandomized, so it draws the same stacks every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.canonical import MAGIC, _split_rotations
from swapsynth.gates import SWAP
from swapsynth.linalg import ContractViolation, NumericalError, haar_random_unitary

MAGIC_H = MAGIC.conj().T

stacks = st.builds(
    lambda k, seed, slot: (k, seed, slot % k),
    st.sampled_from((1, 2, 3, 5)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
)


def rotations(k, seed):
    """k real magic-basis forms MAGIC^dag (a (x) b) MAGIC of Haar-random
    SU(2) factors, with the rounding residue of their imaginary parts dropped."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        a, b = (haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(2))
        a, b = (f / np.sqrt(np.linalg.det(f)) for f in (a, b))
        out.append((MAGIC_H @ np.kron(a, b) @ MAGIC).real)
    return np.stack(out)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(stack=stacks)
def test_stacked_split_matches_one_at_a_time(stack):
    k, seed, _ = stack
    os = rotations(k, seed)
    a, b = _split_rotations(os)
    assert a.shape == b.shape == (k, 2, 2)
    for i in range(k):
        ai, bi = _split_rotations(os[i : i + 1])
        assert a[i].tobytes() == ai[0].tobytes()
        assert b[i].tobytes() == bi[0].tobytes()
        assert np.abs(MAGIC @ os[i] @ MAGIC_H - np.kron(a[i], b[i])).max() < 1e-14


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(stack=stacks)
def test_one_entangler_fails_the_stack(stack):
    k, seed, slot = stack
    os = rotations(k, seed)
    # SWAP is real orthogonal in the magic basis, with determinant -1.
    os[slot] = (MAGIC_H @ SWAP @ MAGIC).real
    with pytest.raises(NumericalError, match="not a single-qubit tensor product"):
        _split_rotations(os)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(stack=stacks)
def test_one_non_unitary_member_fails_the_stack(stack):
    k, seed, slot = stack
    os = rotations(k, seed)
    os[slot] *= 1.0 + 1e-6
    with pytest.raises(ContractViolation, match=r"^local product is not unitary"):
        _split_rotations(os)
