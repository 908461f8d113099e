import numpy as np
import pytest
from scipy.linalg import block_diag

import fouriercat as fc
from fouriercat.groups import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PHASE_S,
    PHASE_T,
    GroupFourierTransform,
)


def test_pauli_group_structure(d8):
    assert d8.order == 8
    assert not d8.is_abelian()
    # every element is a phase times X^a Z^b with phase in {1, -1}
    for i in range(8):
        m = d8.matrix(i)
        assert np.linalg.norm(m.conj().T @ m - np.eye(2)) < 1e-12


def test_quaternion_group():
    q8 = fc.quaternion_group()
    assert q8.order == 8
    assert not q8.is_abelian()
    # -1 is the unique element of order 2
    order2 = [
        i
        for i in range(8)
        if i != q8.identity_index and q8.cayley[i, i] == q8.identity_index
    ]
    assert len(order2) == 1
    assert np.allclose(q8.matrix(order2[0]), -np.eye(2))


def test_cyclic_group():
    z8 = fc.cyclic_group(8)
    assert z8.order == 8
    assert z8.is_abelian()


def test_cayley_table_is_a_group(d8):
    cayley = d8.cayley
    n = d8.order
    # closure with unique products per row/column (Latin square)
    for i in range(n):
        assert sorted(cayley[i]) == list(range(n))
        assert sorted(cayley[:, i]) == list(range(n))
    # associativity spot check through the matrices
    for i in range(n):
        for j in range(n):
            prod = d8.matrix(i) @ d8.matrix(j)
            assert d8.find(prod) == cayley[i, j]


def test_inverse_indices(d8):
    for i in range(d8.order):
        assert d8.cayley[i, d8.inverse[i]] == d8.identity_index


def test_generate_group_rejects_infinite():
    irrational = np.array(
        [[np.exp(1j * 1.0), 0.0], [0.0, np.exp(-1j * 1.0)]], dtype=complex
    )
    with pytest.raises(ValueError, match="too large"):
        fc.generate_group([irrational], max_order=64)


@pytest.mark.parametrize("maker", [fc.pauli_group, fc.quaternion_group])
def test_irrep_dimensions_order8(maker):
    group = maker()
    irreps = fc.irrep_table(group)
    dims = sorted(r.dim for r in irreps)
    assert dims == [1, 1, 1, 1, 2]
    assert sum(d * d for d in dims) == group.order


def test_irreps_are_homomorphisms(d8):
    for rep in fc.irrep_table(d8):
        mats = rep.matrices
        for i in range(d8.order):
            for j in range(d8.order):
                prod = mats[i] @ mats[j]
                assert np.linalg.norm(prod - mats[d8.cayley[i, j]]) < 1e-12


def test_character_orthogonality(d8):
    irreps = fc.irrep_table(d8)
    chars = np.array(
        [[np.trace(m) for m in rep.matrices] for rep in irreps]
    )
    gram = chars.conj() @ chars.T / d8.order
    assert np.linalg.norm(gram - np.eye(len(irreps))) < 1e-12


def test_cyclic_irreps_are_characters():
    z5 = fc.cyclic_group(5)
    irreps = fc.irrep_table(z5)
    assert len(irreps) == 5
    assert all(rep.dim == 1 for rep in irreps)


def test_irrep_table_unavailable_for_klein_four():
    klein = fc.generate_group(
        [np.diag([1.0, -1.0]).astype(complex), np.diag([-1.0, 1.0]).astype(complex)]
    )
    assert klein.is_abelian() and klein.order == 4
    with pytest.raises(ValueError, match="not available"):
        fc.irrep_table(klein)


@pytest.mark.parametrize(
    "maker", [fc.pauli_group, fc.quaternion_group, lambda: fc.cyclic_group(8)]
)
def test_fourier_unitarity(maker):
    group = maker()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    f = fourier.matrix
    assert np.linalg.norm(f @ f.conj().T - np.eye(group.order)) < 1e-12


@pytest.mark.parametrize(
    "maker", [fc.pauli_group, fc.quaternion_group, lambda: fc.cyclic_group(8)]
)
def test_block_diagonalization(maker):
    group = maker()
    irreps = fc.irrep_table(group)
    fourier = fc.build_fourier_transform(group, irreps)
    assert fc.verify_block_diagonalization(fourier, group, irreps) < 1e-12


def block_diagonalization_loop_reference(fourier, group):
    """The per-element loop ``verify_block_diagonalization`` replaced."""
    f = fourier.matrix
    worst = 0.0
    for g in range(group.order):
        left = f @ fc.regular_representation(group, g, "left") @ f.conj().T
        right = f @ fc.regular_representation(group, g, "right") @ f.conj().T
        lblocks = [np.kron(r.matrices[g], np.eye(r.dim)) for r in fourier.irreps]
        rblocks = [np.kron(np.eye(r.dim), r.matrices[g].conj()) for r in fourier.irreps]
        worst = max(
            worst,
            np.linalg.norm(left - block_diag(*lblocks)),
            np.linalg.norm(right - block_diag(*rblocks)),
        )
    return worst


@pytest.mark.parametrize("maker", [fc.pauli_group, fc.quaternion_group])
def test_block_diagonalization_matches_loop_reference(maker):
    group = maker()
    irreps = fc.irrep_table(group)
    fourier = fc.build_fourier_transform(group, irreps)
    got = fc.verify_block_diagonalization(fourier, group, irreps)
    assert abs(got - block_diagonalization_loop_reference(fourier, group)) < 1e-15
    # two swapped rows mislabel two irrep components, which breaks the blocks
    swapped = fourier.matrix[[1, 0] + list(range(2, group.order))]
    broken = GroupFourierTransform(swapped, fourier.row_index, fourier.irreps)
    got = fc.verify_block_diagonalization(broken, group, irreps)
    assert got > 1e-1
    assert abs(got - block_diagonalization_loop_reference(broken, group)) < 1e-15 * got


def test_regular_representation_permutes(d8):
    for side in ("left", "right"):
        m = fc.regular_representation(d8, 3, side)
        assert np.array_equal(np.abs(m) @ np.ones(8), np.ones(8))
        assert np.linalg.norm(m @ m.conj().T - np.eye(8)) < 1e-15


def test_normalizer_membership(d8):
    assert fc.normalizer_membership(d8, HADAMARD)
    assert fc.normalizer_membership(d8, PHASE_S)
    assert not fc.normalizer_membership(d8, PHASE_T)
    # group elements themselves normalize trivially
    assert fc.normalizer_membership(d8, PAULI_X @ PAULI_Z)


def test_find_rejects_foreign_matrix(d8):
    assert d8.find(PHASE_T) == -1


def test_validate_irrep_rejects_broken_tables(d8):
    from fouriercat.groups import Irrep, _validate_irrep

    defining = fc.irrep_table(d8)[-1]
    _validate_irrep(d8, defining)
    swapped = defining.matrices.copy()
    swapped[[1, 2]] = swapped[[2, 1]]  # unitary, but no longer a homomorphism
    scaled = 1.5 * defining.matrices  # a homomorphism only up to scale
    for mats in (swapped, scaled):
        with pytest.raises(ValueError, match="not available"):
            _validate_irrep(d8, Irrep(label="broken", dim=2, matrices=mats))


def test_cayley_table_at_default_max_order():
    # breadth-first closure labels g^k as k, so the table is addition mod 64
    z64 = fc.cyclic_group(64)
    k = np.arange(64)
    assert np.array_equal(z64.cayley, np.add.outer(k, k) % 64)
    assert np.array_equal(z64.inverse, -k % 64)
