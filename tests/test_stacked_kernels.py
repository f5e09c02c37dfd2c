"""Property test: the stacked local-product split agrees with the one-matrix split.

``canonical._split_local_products`` splits a (k, 4, 4) stack in one call per
step, so that ``kak_decompose`` splits both of its local products at once.
Each member's (a, b, psi) must be bit for bit what ``split_local_product``
gives for that member alone, and one bad member must fail the whole stack
with the error a split of it alone raises.  The run is derandomized, so it
draws the same stacks every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.canonical import _split_local_products, split_local_product
from swapsynth.gates import CNOT
from swapsynth.linalg import ContractViolation, NumericalError, haar_random_unitary

stacks = st.builds(
    lambda k, seed, slot: (k, seed, slot % k),
    st.sampled_from((1, 2, 3, 5)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
)


def local_products(k, seed):
    """k products e^{i psi} a (x) b of Haar-random factors and phases."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        a, b = (haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(2))
        out.append(np.exp(1j * rng.uniform(-np.pi, np.pi)) * np.kron(a, b))
    return np.stack(out)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(stack=stacks)
def test_stacked_split_matches_one_at_a_time(stack):
    k, seed, _ = stack
    ls = local_products(k, seed)
    a, b, psi = _split_local_products(ls)
    assert a.shape == b.shape == (k, 2, 2) and psi.shape == (k,)
    for i in range(k):
        ai, bi, psii = split_local_product(ls[i])
        assert a[i].tobytes() == ai.tobytes()
        assert b[i].tobytes() == bi.tobytes()
        assert float(psi[i]) == psii


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(stack=stacks)
def test_one_entangler_fails_the_stack(stack):
    k, seed, slot = stack
    ls = local_products(k, seed)
    ls[slot] = CNOT
    with pytest.raises(NumericalError, match="not a single-qubit tensor product"):
        _split_local_products(ls)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(stack=stacks)
def test_one_non_unitary_member_fails_the_stack(stack):
    k, seed, slot = stack
    ls = local_products(k, seed)
    ls[slot] *= 1.0 + 1e-6
    with pytest.raises(ContractViolation, match=r"^local product is not unitary"):
        _split_local_products(ls)
