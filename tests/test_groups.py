import numpy as np
import pytest
from scipy.linalg import block_diag

import fouriercat as fc
from fouriercat.encoding import analytic_gram
from fouriercat.groups import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PHASE_S,
    PHASE_T,
    GroupFourierTransform,
)

from conftest import traced


def test_pauli_group_structure(d8):
    assert d8.order == 8
    assert not d8.is_abelian()
    # every element is a phase times X^a Z^b with phase in {1, -1}
    for i in range(8):
        m = d8.matrices[i]
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
    assert np.allclose(q8.matrices[order2[0]], -np.eye(2))


def test_cyclic_group():
    z8 = fc.cyclic_group(8)
    assert z8.order == 8
    assert z8.is_abelian()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fc.generate_group([2 * PAULI_X]), "generator is not unitary"),
        (lambda: fc.generate_group([np.eye(3)]), "generator is not unitary"),
        # <S, X> is non-abelian of order 32: neither Z_N nor Pauli-like of order 8
        (lambda: fc.irrep_table(fc.generate_group([PHASE_S, PAULI_X])), "irrep table not available"),
        (lambda: fc.build_fourier_transform(fc.pauli_group(), fc.irrep_table(fc.pauli_group())[:4]),
         "incomplete irrep set"),
    ],
    ids=["non-unitary-generator", "three-by-three-generator", "non-abelian-order-32",
         "four-of-five-irreps"],
)
def test_group_layer_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
            prod = d8.matrices[i] @ d8.matrices[j]
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


@pytest.mark.parametrize("n", range(2, 17))
def test_cyclic_transform_and_gram_match_closed_forms(n):
    # the cat qudit's DFT w^{kl}/sqrt(N) and circulant Gram exp(alpha^2 (w^{l-k} - 1))
    group = fc.cyclic_group(n)
    f = fc.build_fourier_transform(group, fc.irrep_table(group)).matrix
    w = np.exp(2j * np.pi / n)
    k = np.arange(n)
    assert np.max(np.abs(f - w ** np.outer(k, k) / np.sqrt(n))) < 1e-14
    alpha = 1.25
    want = np.exp(alpha**2 * (-1 + w ** (k[None, :] - k[:, None])))
    assert np.max(np.abs(analytic_gram(group, [0.0, alpha]) - want)) < 1e-14


@pytest.mark.parametrize("maker", [fc.pauli_group, fc.quaternion_group])
def test_logical_rows_are_the_lambda_rows(maker):
    group = maker()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    want = [fourier.row_index.index(("lambda", l, m)) for l in (0, 1) for m in (0, 1)]
    assert fourier.logical_rows == want


def test_logical_rows_need_a_two_dimensional_irrep():
    z4 = fc.cyclic_group(4)
    fourier = fc.build_fourier_transform(z4, fc.irrep_table(z4))
    with pytest.raises(ValueError, match="group has no irrep of dimension > 1"):
        fourier.logical_rows


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
    assert fc.verify_block_diagonalization(fourier, group) < 1e-12


def regular_representation(group, g, side="left"):
    """Permutation matrix of the left or right regular representation.

    Left action sends |h> to |gh>; right action sends |h> to |h g^-1>.
    """
    if side == "left":
        image = group.cayley[g]  # image[h] = gh
    elif side == "right":
        image = group.cayley[:, group.inverse[g]]  # image[h] = h g^-1
    else:
        raise ValueError(f"unknown side {side!r}")
    mat = np.zeros((group.order, group.order))
    mat[image, np.arange(group.order)] = 1.0
    return mat


def block_diagonalization_loop_reference(fourier, group):
    """The per-element loop ``verify_block_diagonalization`` replaced."""
    f = fourier.matrix
    worst = 0.0
    for g in range(group.order):
        left = f @ regular_representation(group, g, "left") @ f.conj().T
        right = f @ regular_representation(group, g, "right") @ f.conj().T
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
    got = fc.verify_block_diagonalization(fourier, group)
    assert abs(got - block_diagonalization_loop_reference(fourier, group)) < 1e-15
    # two swapped rows mislabel two irrep components, which breaks the blocks
    swapped = fourier.matrix[[1, 0] + list(range(2, group.order))]
    broken = GroupFourierTransform(swapped, fourier.row_index, fourier.irreps)
    got = fc.verify_block_diagonalization(broken, group)
    assert got > 1e-1
    assert abs(got - block_diagonalization_loop_reference(broken, group)) < 1e-15 * got


def test_regular_representation_permutes(d8):
    for side in ("left", "right"):
        m = regular_representation(d8, 3, side)
        assert np.array_equal(np.abs(m) @ np.ones(8), np.ones(8))
        assert np.linalg.norm(m @ m.conj().T - np.eye(8)) < 1e-15


def normalizes(group, u):
    """Whether U g U^dag is a group element up to a global phase, for every g.

    Two 2x2 unitaries A, B differ by a phase iff |tr(A^dag B)| = 2.
    """
    mats = group.matrices
    images = u @ mats @ u.conj().T
    overlaps = np.abs(np.einsum("gab,hab->gh", images.conj(), mats))
    return bool(np.all(np.any(np.abs(overlaps - 2.0) < 1e-9, axis=1)))


def test_normalizer_membership(d8):
    assert normalizes(d8, HADAMARD)
    assert normalizes(d8, PHASE_S)
    assert not normalizes(d8, PHASE_T)
    # group elements themselves normalize trivially
    assert normalizes(d8, PAULI_X @ PAULI_Z)


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


def generate_group_loop_reference(generators, max_order=64):
    """The per-product breadth-first closure ``generate_group`` replaced."""
    from fouriercat.groups import MATCH_TOL

    gens = [np.asarray(g, dtype=complex) for g in generators]
    mats = [np.eye(2, dtype=complex)]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens:
                prod = mats[i] @ g
                if not any(np.linalg.norm(prod - m) <= MATCH_TOL for m in mats):
                    if len(mats) >= max_order:
                        raise ValueError("group too large or not finite")
                    mats.append(prod)
                    nxt.append(len(mats) - 1)
        frontier = nxt

    mats = np.array(mats)
    cayley = np.empty((len(mats), len(mats)), dtype=int)
    for i, a in enumerate(mats):
        match = np.linalg.norm((a @ mats)[:, None] - mats, axis=(2, 3)) <= MATCH_TOL
        if not np.all(match.any(axis=1)):
            raise ValueError("group too large or not finite")
        cayley[i] = np.argmax(match, axis=1)
    inverse = np.argmax(cayley == 0, axis=1)
    return mats, cayley, inverse


def z_n(n):
    return np.diag([1.0, np.exp(2j * np.pi / n)]).astype(complex)


IRRATIONAL = np.diag([np.exp(1j * 1.0), np.exp(-1j * 1.0)]).astype(complex)


@pytest.mark.parametrize(
    "gens, max_order",
    [
        pytest.param([PAULI_X, PAULI_Z], 64, id="d8"),
        pytest.param([1j * PAULI_X, 1j * PAULI_Z], 64, id="q8"),
        pytest.param([z_n(3)], 3, id="z3"),
        pytest.param([z_n(12)], 12, id="z12"),
        pytest.param([z_n(64)], 64, id="z64"),
        pytest.param([PAULI_X, PHASE_S], 64, id="x-s-order-32"),
        pytest.param([], 64, id="trivial"),
    ],
)
def test_generate_group_matches_loop_reference(gens, max_order):
    group = fc.generate_group(gens, max_order=max_order)
    mats, cayley, inverse = generate_group_loop_reference(gens, max_order)
    # bit-identical: same elements in the same order, same tables
    assert group.matrices.shape == mats.shape
    assert group.matrices.tobytes() == mats.tobytes()
    assert np.array_equal(group.cayley, cayley)
    assert np.array_equal(group.inverse, inverse)
    if not gens:
        assert group.order == 1 and group.cayley.tolist() == [[0]]


@pytest.mark.parametrize(
    "gens",
    [pytest.param([PAULI_X, PHASE_T], id="x-t-order-128"), pytest.param([IRRATIONAL], id="irrational")],
)
def test_generate_group_too_large_like_loop_reference(gens):
    for closure in (fc.generate_group, generate_group_loop_reference):
        with pytest.raises(ValueError, match="too large"):
            closure(gens, max_order=64)


def test_cayley_table_memory_stays_quadratic():
    # one row of Z_64 products against all elements holds 64^2 2x2 complex
    # differences (0.26 MB); all rows at once would hold 64^3 (16.8 MB)
    peak, _ = traced(lambda: fc.cyclic_group(64))
    assert peak < 2e6


def test_irrep_validation_memory_stays_quadratic():
    # one character of Z_128 at a time holds (128, 128) products (0.26 MB);
    # all 128 characters in one stack would hold 128^3 (34 MB, 118 MB traced)
    peak, _ = traced(lambda: fc.irrep_table(fc.cyclic_group(128)))
    assert peak < 4e6


def pauli_like_exponents_loop_reference(m):
    """The per-element exponent reader that ``irrep_table`` replaced."""
    if abs(m[0, 1]) > 0.5:
        a = 1
        if abs(m[0, 1] - m[1, 0]) <= 1e-6:
            b = 0
        elif abs(m[0, 1] + m[1, 0]) <= 1e-6:
            b = 1
        else:
            return None
        if abs(m[0, 0]) > 1e-6 or abs(m[1, 1]) > 1e-6:
            return None
    else:
        a = 0
        if abs(m[0, 0] - m[1, 1]) <= 1e-6:
            b = 0
        elif abs(m[0, 0] + m[1, 1]) <= 1e-6:
            b = 1
        else:
            return None
    return a, b


@pytest.mark.parametrize("maker", [fc.pauli_group, fc.quaternion_group])
def test_characters_match_loop_reference(maker):
    group = maker()
    exps = np.array([pauli_like_exponents_loop_reference(m) for m in group.matrices])
    for irrep in fc.irrep_table(group)[:4]:
        s, t = int(irrep.label[3]), int(irrep.label[4])
        want = (-1.0 + 0j) ** (exps @ [s, t])[:, None, None]
        assert irrep.matrices.tobytes() == want.tobytes()


def test_rotated_pauli_group_has_no_irrep_table():
    # conjugating <X, Z> by a generic unitary leaves an order-8 group whose
    # elements are no longer phases times X^a Z^b
    c, s = np.cos(0.3), np.sin(0.3)
    v = np.array([[c, -s], [s, c]], dtype=complex)
    group = fc.generate_group([v @ PAULI_X @ v.T, v @ PAULI_Z @ v.T])
    assert group.order == 8
    assert any(pauli_like_exponents_loop_reference(m) is None for m in group.matrices)
    with pytest.raises(ValueError, match="not available"):
        fc.irrep_table(group)


def test_validate_irrep_rejects_a_stack_with_one_broken_irrep(d8):
    from fouriercat.groups import Irrep, _validate_irrep

    chars = np.array([r.matrices for r in fc.irrep_table(d8) if r.dim == 1])
    _validate_irrep(d8, Irrep(label="stack", dim=1, matrices=chars))
    chars[2, 5] *= -1.0  # one wrong sign in one character
    with pytest.raises(ValueError, match="not available"):
        _validate_irrep(d8, Irrep(label="stack", dim=1, matrices=chars))


def group_arrays(group, irreps, fourier):
    """Every array the group, its irreps and its Fourier transform hold."""
    return [group.matrices, group.cayley, group.inverse, fourier.matrix] + [
        r.matrices for r in irreps + fourier.irreps
    ]


@pytest.mark.parametrize("maker", [fc.pauli_group, fc.quaternion_group])
def test_group_memos_share_one_read_only_build(maker):
    group = maker()
    irreps = fc.irrep_table(group)
    fourier = fc.build_fourier_transform(group, irreps)
    assert maker() is group
    assert fc.irrep_table(group) is irreps
    assert fc.build_fourier_transform(group, irreps) is fourier
    assert isinstance(irreps, tuple) and isinstance(fourier.row_index, tuple)
    for array in group_arrays(group, irreps, fourier):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


@pytest.mark.parametrize("maker", [fc.pauli_group, fc.quaternion_group])
def test_group_memos_match_an_uncached_build(maker):
    group = maker()
    irreps = fc.irrep_table(group)
    fourier = fc.build_fourier_transform(group, irreps)
    fresh = maker.__wrapped__()
    fresh_irreps = fc.irrep_table.__wrapped__(fresh)
    fresh_fourier = fc.build_fourier_transform.__wrapped__(fresh, fresh_irreps)
    assert fresh is not group and fresh_fourier is not fourier
    for got, want in zip(group_arrays(group, irreps, fourier),
                         group_arrays(fresh, fresh_irreps, fresh_fourier), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [(r.label, r.dim) for r in irreps] == [(r.label, r.dim) for r in fresh_irreps]
    assert fourier.row_index == fresh_fourier.row_index


def test_failing_irrep_table_is_not_memoized():
    klein = fc.generate_group(
        [np.diag([1.0, -1.0]).astype(complex), np.diag([-1.0, 1.0]).astype(complex)]
    )
    size = fc.irrep_table.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="not available"):
            fc.irrep_table(klein)
    assert fc.irrep_table.cache_info().currsize == size
